(** Abstract syntax of CMINUS, the host language: "a rather complete subset
    of ANSI C" (§I) — int/float/bool/void types, functions, the usual
    statements and expression operators, array-subscript syntax, and casts.

    Extensibility: each syntactic category has an extension point carried
    by an {e open (extensible) variant} ([ext_expr], [ext_stmt],
    [ext_ty]).  A language extension adds its own constructors (the
    abstract syntax it declared to the composition machinery) and
    registers build / typecheck / lowering hooks with the driver.  This is
    the OCaml rendering of Silver's open nonterminals (see DESIGN.md §2).

    Expression nodes carry a mutable [ety] slot filled by the typechecker
    and read by the lowering — the moral equivalent of a synthesized type
    attribute cached on the tree. *)

type span = Support.Pos.span

(* --- types (syntactic) ----------------------------------------------------- *)

type ext_ty = ..
(** extension type syntax, e.g. the matrix extension's [Matrix float <3>] *)

type ty_expr =
  | TyInt
  | TyFloat
  | TyBool
  | TyVoid
  | TyTuple of ty_expr list
      (** tuple types; per §VI-A the tuples extension fails [isComposable]
          (its syntax starts with the host's ["("]) and is therefore
          "packaged as part of the host language" — so tuple types live in
          the host AST *)
  | TyExt of ext_ty

(* --- operators -------------------------------------------------------------- *)

type binop =
  | BArith of Runtime.Scalar.arith
  | BCmp of Runtime.Scalar.cmp
  | BLogic of Runtime.Scalar.logic
  | BExt of string
      (** extension-declared infix operators, keyed by name: the matrix
          extension's elementwise [.*] ("DOTSTAR") and range [::]
          ("RANGE") *)

type unop = UNeg | UNot

(* --- expressions -------------------------------------------------------------- *)

type ext_expr = ..

type expr = {
  e : expr_node;
  espan : span;
  mutable ety : Types.ty option;  (** filled by the typechecker *)
}

and expr_node =
  | IntLit of int
  | FloatLit of float
  | BoolLit of bool
  | StrLit of string
  | Ident of string
  | Bin of binop * expr * expr
  | Un of unop * expr
  | Cast of ty_expr * expr
  | CallE of string * expr list
  | TupleLit of expr list  (** host-packaged tuples extension *)
  | Subscript of expr * index list
      (** C subscript syntax [a\[i, j, ...\]]; the matrix extension
          overloads its semantics with the §III-A3 indexing modes *)
  | ExtE of ext_expr

and index =
  | IExpr of expr
      (** plain expression: scalar position, boolean-mask or int-vector
          gather — disambiguated by its type *)
  | IAll of span  (** the [:] whole-dimension index (matrix extension) *)

let mk_expr ?ty e espan = { e; espan; ety = ty }

(* --- statements ----------------------------------------------------------------- *)

type ext_stmt = ..

type stmt = { s : stmt_node; sspan : span }

and stmt_node =
  | DeclS of ty_expr * string * expr option
  | AssignS of expr * expr
      (** assignment "lhs = rhs": the target is an expression
          (identifier, subscript, or tuple literal of lvalues for
          destructuring); the typechecker validates lvalue-ness *)
  | IfS of expr * stmt list * stmt list
  | WhileS of expr * stmt list
  | ForS of stmt option * expr option * stmt option * stmt list
      (** C for-loop: init (decl or assign), condition, step *)
  | ReturnS of expr option
  | BreakS
  | ContinueS
  | ExprStmt of expr
  | BlockS of stmt list
  | ExtS of ext_stmt

let mk_stmt s sspan = { s; sspan }

(* --- declarations ------------------------------------------------------------------ *)

type fundef = {
  fname : string;
  params : (ty_expr * string) list;
  ret : ty_expr;
  body : stmt list;
  fspan : span;
}

type program = fundef list

(* --- pretty-printing hooks ----------------------------------------------------------- *)

(** Extensions register printers for their nodes so diagnostics can quote
    extension constructs. *)
let ext_expr_printers : (ext_expr -> string option) list ref = ref []

let ext_stmt_printers : (ext_stmt -> string option) list ref = ref []
let ext_ty_printers : (ext_ty -> string option) list ref = ref []

let register_ext_expr_printer f = ext_expr_printers := f :: !ext_expr_printers
let register_ext_stmt_printer f = ext_stmt_printers := f :: !ext_stmt_printers
let register_ext_ty_printer f = ext_ty_printers := f :: !ext_ty_printers

(** Extensions register the host statement one of their statements
    forwards to (§VI), for analyses that must see inside it: a transform
    statement is its assignment.  An extension statement with no
    forward stays opaque to them. *)
let ext_stmt_forwards : (ext_stmt -> stmt_node option) list ref = ref []

let register_ext_stmt_forward f = ext_stmt_forwards := f :: !ext_stmt_forwards
let forward_stmt s = List.find_map (fun f -> f s) !ext_stmt_forwards

let print_via printers x fallback =
  match List.find_map (fun f -> f x) !printers with
  | Some s -> s
  | None -> fallback

let rec ty_expr_to_string = function
  | TyInt -> "int"
  | TyFloat -> "float"
  | TyBool -> "bool"
  | TyVoid -> "void"
  | TyTuple ts ->
      "(" ^ String.concat ", " (List.map ty_expr_to_string ts) ^ ")"
  | TyExt t -> print_via ext_ty_printers t "<extension type>"
