(** Matrix shapes: rank, extents and row-major index arithmetic.

    The matrix extension stores all matrices in flat row-major buffers (as
    the generated C code does); this module centralises the index ↔ offset
    arithmetic behind {!Ndarray}'s constructors and accessors, and the
    shape errors the interpreter reports. *)

type t = int array
(** Extents per dimension; rank = array length. Rank 0 is a scalar. *)

let rank (s : t) = Array.length s

(** Total number of elements. *)
let size (s : t) = Array.fold_left ( * ) 1 s

let equal (a : t) (b : t) = a = b
let to_string (s : t) =
  "[" ^ String.concat "x" (Array.to_list (Array.map string_of_int s)) ^ "]"

let pp ppf s = Fmt.string ppf (to_string s)

exception Shape_error of string

let err fmt = Format.kasprintf (fun m -> raise (Shape_error m)) fmt

(** Row-major strides: [strides s].(d) is the offset step of dimension d. *)
let strides (s : t) : int array =
  let r = rank s in
  let st = Array.make r 1 in
  for d = r - 2 downto 0 do
    st.(d) <- st.(d + 1) * s.(d + 1)
  done;
  st

(** [offset s idx] — flat offset of multi-index [idx], bounds-checked. *)
let offset (s : t) (idx : int array) : int =
  let r = rank s in
  if Array.length idx <> r then
    err "index rank %d does not match shape %s" (Array.length idx) (to_string s);
  let st = strides s in
  let off = ref 0 in
  for d = 0 to r - 1 do
    if idx.(d) < 0 || idx.(d) >= s.(d) then
      err "index %d out of bounds for dimension %d of %s" idx.(d) d
        (to_string s);
    off := !off + (idx.(d) * st.(d))
  done;
  !off

(** [unoffset s off] — inverse of {!offset}: the multi-index of flat
    offset [off]. *)
let unoffset (s : t) (off : int) : int array =
  let st = strides s in
  Array.mapi (fun d _ -> off / st.(d) mod s.(d)) s
