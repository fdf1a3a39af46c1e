(** Parse the profile JSON an instrumented native binary prints as its
    [__mm_profile] line (runtime/c/mm_prof.c) back into the interpreter
    profiler's row shape, so [mmc profile --native] renders through
    exactly the same report code as interpreted profiles. *)

module J = Support.Json
module P = Support.Profile

exception Bad of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let int_field j name =
  match J.num_field j name with
  | Some f -> int_of_float f
  | None -> fail "missing numeric field %S" name

let parse_row j : P.row =
  let span =
    match Option.bind (J.field "span" j) J.str with
    | Some s -> (
        match Support.Pos.span_of_string s with
        | Some span -> span
        | None -> fail "bad span %S" s)
    | None -> fail "span row without a span string"
  in
  let workers =
    match J.field "workers" j with
    | Some (J.Obj fields) ->
        List.map
          (fun (w, v) ->
            let ns =
              match J.num v with
              | Some f -> int_of_float f
              | None -> fail "bad worker ns for thread %S" w
            in
            match int_of_string_opt w with
            | Some id -> (id, ns)
            | None -> fail "bad worker id %S" w)
          fields
        |> List.sort compare
    | _ -> []
  in
  {
    P.r_span = span;
    r_total_ns = int_field j "total_ns";
    r_self_ns = int_field j "self_ns";
    r_iters = int_field j "iters";
    r_dispatches = int_field j "dispatches";
    r_par_ns = int_field j "par_ns";
    r_seq_ns = int_field j "seq_ns";
    r_alloc_bytes = int_field j "alloc_bytes";
    r_worker_ns = workers;
  }

let parse_fold j =
  match Option.bind (J.field "stack" j) J.str with
  | Some stack -> (stack, int_field j "self_ns")
  | None -> fail "folded entry without a stack"

(** [parse text] — the profile decoded, or [Error] with a one-line reason
    (a truncated dump from a crashed binary must not crash the driver). *)
let parse (text : string) : (P.report, string) result =
  match
    let j = J.parse text in
    let rows =
      match Option.bind (J.field "spans" j) J.arr with
      | Some spans -> List.map parse_row spans
      | None -> fail "missing spans array"
    in
    let folded =
      match Option.bind (J.field "folded" j) J.arr with
      | Some folds -> List.map parse_fold folds
      | None -> []
    in
    let mem =
      match J.field "memory" j with
      | Some m -> m
      | None -> fail "missing memory object"
    in
    {
      P.wall_ns = int_field j "wall_ns";
      rows;
      folded;
      attributed_ns = int_field j "attributed_ns";
      unattributed_alloc = int_field mem "unattributed_alloc_bytes";
      live_bytes = int_field mem "live_bytes";
      peak_bytes = int_field mem "peak_bytes";
      allocated_bytes = int_field mem "allocated_bytes";
    }
  with
  | t -> Ok t
  | exception Bad m -> Error m
  | exception J.Bad_json m -> Error m
