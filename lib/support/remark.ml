(** Optimization remarks: structured records of every decision the
    lowering pipeline takes — a with-loop fused (or not, and what blocked
    it), a slice copy elided (or kept, with the alias-analysis verdict), a
    loop promoted to [ParFor] (or demoted, and why), reference-count
    operations placed, a transform-script clause bound (or skipped).

    In the spirit of clang/LLVM [-Rpass] remarks: the pipeline already
    {e makes} these decisions — this module makes them observable, so a
    user can ask {e why} their eddy kernel did not parallelize instead of
    diffing generated C.  [mmc explain] is the one report of them; no
    telemetry counter or gauge counts the same decisions again.

    Mirrors {!Telemetry}'s discipline: collection is {b off by default}
    behind one flag, which [Driver.explain] switches on for its compile
    and back off, so other compiles pay a read-and-branch per decision
    point and no allocation. *)

(** What the pass did at this site. [Applied]: the optimization fired.
    [Missed]: the pass looked and declined (the interesting case — the
    message says what blocked it). [Skipped]: the pass did not run at all
    here (disabled by flags, or a transform clause that failed to bind). *)
type kind = Applied | Missed | Skipped

let kind_to_string = function
  | Applied -> "applied"
  | Missed -> "missed"
  | Skipped -> "skipped"

type t = {
  pass : string;
      (** which decision point: "bounds" (a subscript check dropped or
          kept, decided by lowering), "fuse", "copy-elim", "auto-par",
          "rc", "transform" *)
  kind : kind;
  span : Pos.span;  (** the source construct the decision is about *)
  message : string;
  details : (string * string) list;
      (** structured payload (blocking construct, alias verdict, clause
          text, inc/dec counts, …) — carried verbatim into the JSON
          report *)
}

(** Canonical pass order for reports; unknown passes sort after, in
    first-emission order. *)
let pass_order =
  [ "bounds"; "fuse"; "copy-elim"; "auto-par"; "rc"; "transform" ]

(* --- collection -------------------------------------------------------- *)

let enabled = ref false
let set_enabled b = enabled := b
let on () = !enabled
let buf : t list ref = ref []
let reset () = buf := []

(** [record r] — buffer a pre-built remark (no-op when disabled).  Use
    this when the same record also feeds a stderr diagnostic, so both
    outputs share one value. *)
let record r = if !enabled then buf := r :: !buf

(** [emit ~pass ~kind ~span ?details fmt] — format and buffer a remark.
    The message is only formatted when collection is on, so emitters can
    sit on lowering paths without per-compile allocation. *)
let emit ~pass ~kind ~span ?(details = []) fmt =
  if !enabled then
    Format.kasprintf
      (fun message -> buf := { pass; kind; span; message; details } :: !buf)
      fmt
  else Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt

(** All remarks in emission order (stable: lowering is deterministic, so
    two runs of the same program produce the same list). *)
let results () = List.rev !buf

(* --- filtering and aggregation ----------------------------------------- *)

let filter ?pass ?kind rs =
  let keep r =
    (match pass with None -> true | Some p -> String.equal r.pass p)
    && match kind with None -> true | Some k -> r.kind = k
  in
  List.filter keep rs

(** [counts rs] — [(pass, applied, missed, skipped)] per pass, in
    {!pass_order} then first-appearance order. *)
let counts rs =
  let passes =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun r ->
        if Hashtbl.mem seen r.pass then None
        else begin
          Hashtbl.add seen r.pass ();
          Some r.pass
        end)
      rs
  in
  let rank p =
    let rec go i = function
      | [] -> List.length pass_order
      | q :: _ when String.equal p q -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 pass_order
  in
  let passes =
    List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) passes
  in
  List.map
    (fun p ->
      let n k = List.length (filter ~pass:p ~kind:k rs) in
      (p, n Applied, n Missed, n Skipped))
    passes

(* --- rendering --------------------------------------------------------- *)

(** [to_diag r] — the stderr face of a remark.  [Skipped] is a warning
    (the user asked for something that did not happen); [Missed] and
    [Applied] are notes. *)
let to_diag r =
  let severity =
    match r.kind with
    | Skipped -> Diag.Warning
    | Missed | Applied -> Diag.Note
  in
  Diag.make ~severity ~phase:r.pass ~span:r.span r.message

let pp_one ?src ppf r =
  Fmt.pf ppf "  %-7s %a  %s" (kind_to_string r.kind) Pos.pp_span r.span
    r.message;
  List.iter (fun (k, v) -> Fmt.pf ppf "@.          %s: %s" k v) r.details;
  match src with
  | None -> ()
  | Some src ->
      let excerpt = Fmt.str "%a" (Diag.pp_excerpt src) r.span in
      if excerpt <> "" then
        List.iter
          (fun line -> Fmt.pf ppf "@.      | %s" line)
          (String.split_on_char '\n' excerpt)

(** [pp ?src ppf rs] — remark table grouped by pass (in {!pass_order}),
    emission order within a pass; with [?src], each remark gets a
    clang-style caret excerpt. *)
let pp ?src ppf rs =
  let groups = counts rs in
  let first = ref true in
  List.iter
    (fun (pass, a, m, s) ->
      if not !first then Fmt.pf ppf "@.";
      first := false;
      Fmt.pf ppf "pass %s: %d applied, %d missed, %d skipped@." pass a m s;
      List.iter
        (fun r -> Fmt.pf ppf "%a@." (pp_one ?src) r)
        (filter ~pass rs))
    groups;
  if groups = [] then Fmt.pf ppf "no remarks@."

let to_string ?src rs = Fmt.str "%a" (pp ?src) rs

(* --- JSON -------------------------------------------------------------- *)

let span_json (s : Pos.span) =
  Telemetry.json_obj
    [
      ("line", string_of_int s.Pos.left.Pos.line);
      ("col", string_of_int s.Pos.left.Pos.col);
      ("end_line", string_of_int s.Pos.right.Pos.line);
      ("end_col", string_of_int s.Pos.right.Pos.col);
    ]

let remark_json r =
  Telemetry.json_obj
    [
      ("pass", Telemetry.json_string r.pass);
      ("kind", Telemetry.json_string (kind_to_string r.kind));
      ("span", span_json r.span);
      ("message", Telemetry.json_string r.message);
      ( "details",
        Telemetry.json_obj
          (List.map (fun (k, v) -> (k, Telemetry.json_string v)) r.details) );
    ]

(** [to_json rs] — the report consumed by [bench --check-explain-json]:
    [{"remarks":[…],"counts":{pass:{"applied":n,"missed":n,"skipped":n}}}]. *)
let to_json rs =
  let remarks =
    "[" ^ String.concat "," (List.map remark_json rs) ^ "]"
  in
  let counts_json =
    Telemetry.json_obj
      (List.map
         (fun (p, a, m, s) ->
           ( p,
             Telemetry.json_obj
               [
                 ("applied", string_of_int a);
                 ("missed", string_of_int m);
                 ("skipped", string_of_int s);
               ] ))
         (counts rs))
  in
  Telemetry.json_obj [ ("remarks", remarks); ("counts", counts_json) ]
