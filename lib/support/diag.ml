(** Diagnostics: errors, warnings and notes produced by every phase of the
    translator (scanning, parsing, semantic analysis, lowering,
    transformation binding checks, composability analyses).

    A phase returns a list of diagnostics rather than raising, so the driver
    can collect errors from several extensions' analyses before giving up —
    mirroring how Silver collects the [errors] attribute over a whole tree. *)

type severity = Error | Warning | Note

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

type t = {
  severity : severity;
  span : Pos.span;
  phase : string;  (** e.g. "parse", "typecheck", "matrix", "transform" *)
  message : string;
}

let make ?(severity = Error) ~phase ~span message =
  { severity; span; phase; message }

let error ~phase ~span fmt =
  Format.kasprintf (fun message -> make ~severity:Error ~phase ~span message) fmt

let warning ~phase ~span fmt =
  Format.kasprintf
    (fun message -> make ~severity:Warning ~phase ~span message)
    fmt

let note ~phase ~span fmt =
  Format.kasprintf (fun message -> make ~severity:Note ~phase ~span message) fmt

let is_error d = d.severity = Error
let has_errors ds = List.exists is_error ds

(* A diagnostic at the dummy span has no location, and prints none. *)
let pp ppf d =
  if d.span <> Pos.dummy_span then Fmt.pf ppf "%a: " Pos.pp_span d.span;
  Fmt.pf ppf "%s [%s]: %s" (severity_to_string d.severity) d.phase d.message

let to_string d = Fmt.str "%a" pp d

(** Render a diagnostic list, one per line, errors first. *)
let pp_list ppf ds =
  let rank d = match d.severity with Error -> 0 | Warning -> 1 | Note -> 2 in
  let sorted = List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) ds in
  Fmt.pf ppf "%a" (Fmt.list ~sep:Fmt.cut pp) sorted

(* --- caret rendering -------------------------------------------------- *)

(** [source_line src n] — the 1-based [n]th line of [src] (without its
    newline), if it exists. *)
let source_line src n =
  if n < 1 then None
  else
    let len = String.length src in
    let rec find_start line i =
      if line = n then Some i
      else if i >= len then None
      else
        match String.index_from_opt src i '\n' with
        | Some nl -> find_start (line + 1) (nl + 1)
        | None -> None
    in
    match find_start 1 0 with
    | None -> None
    | Some start ->
        let stop =
          match String.index_from_opt src start '\n' with
          | Some nl -> nl
          | None -> len
        in
        Some (String.sub src start (stop - start))

(** [pp_excerpt src ppf span] — clang-style source excerpt: the offending
    line followed by a [^~~~] underline covering the span (clamped to the
    first line for multi-line spans).  Prints nothing for spans that do
    not point into [src] (dummy or stale positions). *)
let pp_excerpt src ppf (span : Pos.span) =
  if Pos.equal span.Pos.left span.Pos.right then
    (* empty span (e.g. [Pos.dummy_span], "no useful location"): there is
       no source extent to underline *)
    ()
  else
  match source_line src span.Pos.left.Pos.line with
  | None -> ()
  | Some line ->
      let width = String.length line in
      let c0 = span.Pos.left.Pos.col in
      if c0 < 1 || c0 > width then ()
      else begin
        let c1 =
          if span.Pos.right.Pos.line = span.Pos.left.Pos.line then
            (* right is one past the last character *)
            max c0 (min (span.Pos.right.Pos.col - 1) width)
          else width
        in
        (* Tabs in the source line keep alignment by echoing them into
           the pad. *)
        let pad =
          String.init (c0 - 1) (fun i -> if line.[i] = '\t' then '\t' else ' ')
        in
        Fmt.pf ppf "%s@.%s^%s" line pad (String.make (c1 - c0) '~')
      end

(** [pp_with_source src ppf d] — {!pp} plus the caret excerpt when the
    span points into [src]. *)
let pp_with_source src ppf d =
  pp ppf d;
  if Fmt.str "%a" (pp_excerpt src) d.span <> "" then
    Fmt.pf ppf "@.%a" (pp_excerpt src) d.span

(** Render a list with excerpts, errors first. *)
let pp_list_with_source src ppf ds =
  let rank d = match d.severity with Error -> 0 | Warning -> 1 | Note -> 2 in
  let sorted = List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) ds in
  Fmt.pf ppf "%a" (Fmt.list ~sep:Fmt.cut (pp_with_source src)) sorted

exception Fatal of t
(** Raised only for internal invariant violations that indicate a bug in the
    translator itself (never for user errors in the input program). *)

let fatal ~phase ~span fmt =
  Format.kasprintf
    (fun message -> raise (Fatal (make ~severity:Error ~phase ~span message)))
    fmt
