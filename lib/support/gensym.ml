(** Fresh-name generation for lowering passes.

    The with-loop and matrixMap lowerings introduce index variables,
    accumulators and temporaries; the split/tile transformations introduce
    [jin]/[jout]-style indices when the programmer did not name them.  Names
    are made collision-free by a reserved prefix ["__mm_"] that the CMINUS
    lexer rejects in user programs. *)

type t = { mutable next : int; prefix : string }

let reserved_prefix = "__mm_"
let create ?(prefix = reserved_prefix) () = { next = 0; prefix }

(** [fresh g hint] returns a new unique name such as ["__mm_acc3"]. *)
let fresh g hint =
  let n = g.next in
  g.next <- n + 1;
  Printf.sprintf "%s%s%d" g.prefix hint n

(** [is_reserved name] is true when [name] could collide with generated
    temporaries and must be rejected by the scanner. *)
let is_reserved name =
  String.length name >= String.length reserved_prefix
  && String.sub name 0 (String.length reserved_prefix) = reserved_prefix
