(** Source positions and spans.

    Every token and syntax-tree node carries a {!span} so diagnostics can
    point back into the extended-C source text. *)

type t = {
  line : int;  (** 1-based line number *)
  col : int;  (** 1-based column number *)
  offset : int;  (** 0-based byte offset into the source buffer *)
}

let start = { line = 1; col = 1; offset = 0 }

(** [advance p c] is the position immediately after reading character [c]
    at position [p]. Newlines reset the column and bump the line. *)
let advance p c =
  if Char.equal c '\n' then
    { line = p.line + 1; col = 1; offset = p.offset + 1 }
  else { p with col = p.col + 1; offset = p.offset + 1 }

(** [advance_string p s] advances [p] over every character of [s]. *)
let advance_string p s = String.fold_left advance p s

let compare a b = Int.compare a.offset b.offset
let equal a b = a.offset = b.offset
let pp ppf p = Fmt.pf ppf "%d:%d" p.line p.col
let to_string p = Fmt.str "%a" pp p

type span = { left : t; right : t }
(** A half-open region of source text: [left] is the first character,
    [right] is one past the last. *)

let span left right = { left; right }
let dummy_span = { left = start; right = start }

(** Smallest span covering both arguments. *)
let merge a b =
  {
    left = (if compare a.left b.left <= 0 then a.left else b.left);
    right = (if compare a.right b.right >= 0 then a.right else b.right);
  }

let pp_span ppf s =
  if s.left.line = s.right.line then
    Fmt.pf ppf "%d:%d-%d" s.left.line s.left.col s.right.col
  else Fmt.pf ppf "%a-%a" pp s.left pp s.right

let span_to_string s = Fmt.str "%a" pp_span s

(** [span_of_string s] — the inverse of {!span_to_string}: ["L:C-C2"]
    (one line) or ["L1:C1-L2:C2"], every line and column at least 1;
    [None] otherwise.  Byte offsets are not transported, but {!equal}
    (and so the caret renderer's empty-span test) compares offsets only,
    so a non-degenerate span gets synthetic ordered offsets; line and
    column carry the real location. *)
let span_of_string s =
  let pos_of t =
    match String.split_on_char ':' t with
    | [ l; c ] -> (
        match (int_of_string_opt l, int_of_string_opt c) with
        | Some line, Some col when line >= 1 && col >= 1 ->
            Some { line; col; offset = 0 }
        | _ -> None)
    | _ -> None
  in
  let span left right =
    let degenerate = left.line = right.line && left.col = right.col in
    let right = if degenerate then right else { right with offset = 1 } in
    Some { left; right }
  in
  match String.split_on_char '-' s with
  | [ a; b ] -> (
      match (pos_of a, pos_of b, int_of_string_opt b) with
      | Some left, Some right, _ -> span left right
      | Some left, None, Some col when col >= 1 -> span left { left with col }
      | _ -> None)
  | _ -> None
