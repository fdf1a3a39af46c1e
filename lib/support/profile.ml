(** Source-attributed runtime profiling.

    Aggregates interpreter time, iteration counts, pool dispatches,
    per-worker busy time and matrix-allocation bytes *per source span*
    ({!Pos.span}): the provenance the lowerings stamp onto CIR loops and
    [Located] blocks.  The result is the data behind [mmc profile] — a
    hot-loop table in terms of the matrix code the user wrote, not the C
    it becomes.

    Attribution model:
    - the interpreting domain keeps a stack of open frames (one per
      provenance-carrying loop or top-level statement); on exit, the
      elapsed time is charged to the span's [total], the parent frame's
      child-time grows by the same amount, and [self = total - children]
      (clamped at 0);
    - a [ParFor] dispatch installs a global *region* for its duration.
      While a region is open no new frames are created (the interpreter
      gates on {!in_region}): the dispatching row's self time is the
      region's wall clock, counted exactly once, so the table's self
      percentages sum to at most 100% of wall time even on many workers.
      Per-worker CPU time inside the region is still broken out via
      {!worker_busy}, and worker allocations are charged to the region's
      row.  The finer per-span breakdown inside parallel bodies is
      available from a sequential ([--threads 1]) profile — this also
      keeps clock reads and profiler-mutex traffic out of worker loops;
    - allocation bytes are charged to the innermost open frame of the
      allocating domain, falling back to the active region, and counted
      as unattributed otherwise. *)

type row = {
  r_span : Pos.span;
  mutable r_total_ns : int;  (** wall time while the span was open *)
  mutable r_self_ns : int;  (** total minus time in nested spans *)
  mutable r_iters : int;  (** loop iterations executed *)
  mutable r_dispatches : int;  (** pool dispatches (ParFor headers) *)
  mutable r_par_ns : int;  (** self time spent under a ParFor header *)
  mutable r_seq_ns : int;  (** self time of sequential execution *)
  mutable r_alloc_bytes : int;  (** matrix bytes allocated in the span *)
  mutable r_worker_ns : (int * int) list;  (** worker id -> busy ns *)
}

(** One profiled run: the per-span rows, folded stacks and memory totals
    behind [mmc profile], whether the interpreter or an instrumented
    native binary produced them. *)
type report = {
  wall_ns : int;
  rows : row list;
  folded : (string * int) list;  (** "outer;inner" stack -> self ns *)
  attributed_ns : int;
  unattributed_alloc : int;
  live_bytes : int;
  peak_bytes : int;
  allocated_bytes : int;
}

let enabled = ref false
let set_enabled b = enabled := b
let is_enabled () = !enabled

(* All aggregate state is guarded by one mutex: the interpreting domain
   only touches it at loop/statement granularity and workers only at
   dispatch/allocation granularity, so contention is negligible. *)
let mu = Mutex.create ()
let rows : (Pos.span, row) Hashtbl.t = Hashtbl.create 64
let folded_tbl : (string, int) Hashtbl.t = Hashtbl.create 64
let unattributed_alloc = ref 0

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let row_for sp =
  match Hashtbl.find_opt rows sp with
  | Some r -> r
  | None ->
      let r =
        {
          r_span = sp;
          r_total_ns = 0;
          r_self_ns = 0;
          r_iters = 0;
          r_dispatches = 0;
          r_par_ns = 0;
          r_seq_ns = 0;
          r_alloc_bytes = 0;
          r_worker_ns = [];
        }
      in
      Hashtbl.add rows sp r;
      r

(* --- frames ---------------------------------------------------------- *)

type frame = {
  f_span : Pos.span;
  f_start : int;
  mutable f_child : int;  (** ns spent in same-domain nested frames *)
}

let stack : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* Active ParFor region: the span of the dispatching loop.  Workers read
   it to attribute busy time and allocations; the interpreter reads it to
   suppress frame creation inside the region. *)
let region : Pos.span option Atomic.t = Atomic.make None

let depth () = List.length !(Domain.DLS.get stack)
let in_region () = Atomic.get region <> None

let enter sp =
  let st = Domain.DLS.get stack in
  st := { f_span = sp; f_start = Telemetry.now_ns (); f_child = 0 } :: !st

(** Close the innermost frame. [par] marks the frame as a parallel
    dispatch header: its self time counts as parallel, it contributed
    [dispatches], and the active region is torn down. *)
let exit_ ?(iters = 0) ?(dispatches = 0) ?(par = false) () =
  let st = Domain.DLS.get stack in
  match !st with
  | [] -> ()
  | f :: rest ->
      st := rest;
      let total = Telemetry.now_ns () - f.f_start in
      if par then (
        match Atomic.get region with
        | Some sp when sp = f.f_span -> Atomic.set region None
        | _ -> ());
      let self = max 0 (total - f.f_child) in
      (match rest with
      | parent :: _ -> parent.f_child <- parent.f_child + total
      | [] -> ());
      locked (fun () ->
          let r = row_for f.f_span in
          r.r_total_ns <- r.r_total_ns + total;
          r.r_self_ns <- r.r_self_ns + self;
          r.r_iters <- r.r_iters + iters;
          r.r_dispatches <- r.r_dispatches + dispatches;
          if par then r.r_par_ns <- r.r_par_ns + self
          else r.r_seq_ns <- r.r_seq_ns + self;
          if self > 0 then begin
            let path =
              List.rev_map (fun fr -> Pos.span_to_string fr.f_span) (f :: rest)
              |> String.concat ";"
            in
            let prev =
              Option.value ~default:0 (Hashtbl.find_opt folded_tbl path)
            in
            Hashtbl.replace folded_tbl path (prev + self)
          end)

(** Install the worker-attribution region for a ParFor dispatch; call
    between {!enter} and the dispatch itself. *)
let open_region sp = Atomic.set region (Some sp)

(* --- worker / allocation attribution --------------------------------- *)

let worker_busy ~worker ns =
  match Atomic.get region with
  | None -> ()
  | Some sp ->
      locked (fun () ->
          let r = row_for sp in
          let prev =
            Option.value ~default:0 (List.assoc_opt worker r.r_worker_ns)
          in
          r.r_worker_ns <-
            (worker, prev + ns) :: List.remove_assoc worker r.r_worker_ns)

let on_alloc bytes =
  let sp =
    match !(Domain.DLS.get stack) with
    | f :: _ -> Some f.f_span
    | [] -> Atomic.get region
  in
  locked (fun () ->
      match sp with
      | Some sp ->
          let r = row_for sp in
          r.r_alloc_bytes <- r.r_alloc_bytes + bytes
      | None -> unattributed_alloc := !unattributed_alloc + bytes)

(* --- results ---------------------------------------------------------- *)

let reset () =
  locked (fun () ->
      Hashtbl.reset rows;
      Hashtbl.reset folded_tbl;
      unattributed_alloc := 0);
  Atomic.set region None;
  Domain.DLS.get stack := []

(** Aggregated rows, hottest (by self time) first. *)
let results () =
  locked (fun () ->
      Hashtbl.fold (fun _ r acc -> r :: acc) rows []
      |> List.sort (fun a b -> compare b.r_self_ns a.r_self_ns))

(** Folded stacks ("outer;inner self_ns" lines) for flamegraph tools. *)
let folded () =
  locked (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) folded_tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let unattributed_alloc_bytes () = locked (fun () -> !unattributed_alloc)

(** Sum of self time over all rows — the profiler's "attributed" total. *)
let attributed_ns () =
  locked (fun () -> Hashtbl.fold (fun _ r acc -> acc + r.r_self_ns) rows 0)
