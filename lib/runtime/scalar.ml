(** Scalar values of the three matrix element types (§III-A1: "matrices can
    only contain integers, booleans, or floating point numbers"), with the
    C-style arithmetic/comparison semantics the translated code uses. *)

type t = F of float | I of int | B of bool

exception Type_error of string

let err fmt = Format.kasprintf (fun m -> raise (Type_error m)) fmt

let pp ppf = function
  | F f -> Fmt.pf ppf "%g" f
  | I i -> Fmt.int ppf i
  | B b -> Fmt.bool ppf b

let to_string v = Fmt.str "%a" pp v

let to_float = function
  | F f -> f
  | I i -> float_of_int i
  | B _ -> err "boolean used as number"

let to_int = function
  | I i -> i
  | F f -> int_of_float f
  | B _ -> err "boolean used as integer"

let to_bool = function B b -> b | v -> err "%s used as boolean" (to_string v)

type arith = Add | Sub | Mul | Div | Mod

let arith_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"

(** C-style binary arithmetic with int→float promotion; integer division
    truncates; [%] is defined on integers only. *)
let arith op a b =
  match (op, a, b) with
  | Add, I x, I y -> I (x + y)
  | Sub, I x, I y -> I (x - y)
  | Mul, I x, I y -> I (x * y)
  | Div, I x, I y ->
      if y = 0 then err "integer division by zero" else I (x / y)
  | Mod, I x, I y -> if y = 0 then err "modulo by zero" else I (x mod y)
  | Mod, _, _ -> err "%% requires integer operands"
  | (Add | Sub | Mul | Div), (F _ | I _), (F _ | I _) -> (
      let x = to_float a and y = to_float b in
      match op with
      | Add -> F (x +. y)
      | Sub -> F (x -. y)
      | Mul -> F (x *. y)
      | Div -> F (x /. y)
      | Mod -> assert false)
  | _, B _, _ | _, _, B _ -> err "arithmetic on boolean"

type cmp = Lt | Le | Gt | Ge | Eq | Ne

let cmp_name = function
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="

(** C comparison: ints compare as ints, and a float with a number under
    IEEE 754, so a NaN is unordered: every comparison with it is false
    but [!=].  Booleans order [false] before [true]. *)
let cmp op a b =
  let holds c =
    match op with
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0
    | Eq -> c = 0
    | Ne -> c <> 0
  in
  B
    (match (a, b) with
    | B x, B y -> holds (compare x y)
    | I x, I y -> holds (compare x y)
    | (F _ | I _), (F _ | I _) -> (
        let x = to_float a and y = to_float b in
        match op with
        | Lt -> x < y
        | Le -> x <= y
        | Gt -> x > y
        | Ge -> x >= y
        | Eq -> x = y
        | Ne -> x <> y)
    | _ -> err "comparison between boolean and number")

type logic = And | Or

let equal a b =
  match (a, b) with
  | I x, I y -> x = y
  | F x, F y -> x = y
  | B x, B y -> x = y
  | _ -> false
