(** Semantic types of the extended language.

    The set of types is closed here (an engineering substitution for
    Silver's open type nonterminals, see DESIGN.md): the {e operations} on
    matrix and tuple types are contributed entirely by the extensions via
    typechecker hooks, but the type constructors themselves are shared so
    that type equality and error printing stay total. *)

type ty =
  | TInt
  | TFloat
  | TBool
  | TVoid
  | TMat of Runtime.Ndarray.elem * int  (** element type, rank (§III-A1) *)
  | TTuple of ty list
  | TStr  (** string literals (file paths for readMatrix/writeMatrix) *)

let rec to_string = function
  | TInt -> "int"
  | TFloat -> "float"
  | TBool -> "bool"
  | TVoid -> "void"
  | TMat (e, r) ->
      Printf.sprintf "Matrix %s <%d>" (Runtime.Ndarray.elem_name e) r
  | TTuple ts -> "(" ^ String.concat ", " (List.map to_string ts) ^ ")"
  | TStr -> "string"

let pp ppf t = Fmt.string ppf (to_string t)

let rec equal a b =
  match (a, b) with
  | TInt, TInt | TFloat, TFloat | TBool, TBool | TVoid, TVoid -> true
  | TMat (e1, r1), TMat (e2, r2) -> e1 = e2 && r1 = r2
  | TTuple x, TTuple y ->
      List.length x = List.length y && List.for_all2 equal x y
  | TStr, TStr -> true
  | _ -> false

let is_scalar = function TInt | TFloat | TBool -> true | _ -> false

(** C-style arithmetic promotion for scalars. *)
let promote a b =
  match (a, b) with
  | TFloat, (TInt | TFloat) | TInt, TFloat -> Some TFloat
  | TInt, TInt -> Some TInt
  | _ -> None

(** Can a value of type [src] initialise / be assigned to [dst]?  C allows
    int↔float conversion implicitly; everything else must match. *)
let assignable ~dst ~src =
  equal dst src
  || match (dst, src) with
     | TFloat, TInt | TInt, TFloat -> true
     | _ -> false

let elem_ty = function
  | Runtime.Ndarray.EFloat -> TFloat
  | Runtime.Ndarray.EInt -> TInt
  | Runtime.Ndarray.EBool -> TBool

let elem_of_ty = function
  | TFloat -> Some Runtime.Ndarray.EFloat
  | TInt -> Some Runtime.Ndarray.EInt
  | TBool -> Some Runtime.Ndarray.EBool
  | _ -> None

(** The cir type corresponding to a semantic type. *)
let rec to_ctype = function
  | TInt -> Cir.Ir.CInt
  | TFloat -> Cir.Ir.CFloat
  | TBool -> Cir.Ir.CBool
  | TVoid -> Cir.Ir.CVoid
  | TMat (e, r) -> Cir.Ir.CMat (e, r)
  | TTuple ts -> Cir.Ir.CTuple (List.map to_ctype ts)
  | TStr -> invalid_arg "Types.to_ctype: strings are not first-class"
