(** Reference-counting cells — the general-purpose extension of §III-B and
    the memory management underneath every matrix (§III-C).

    The generated C code attaches a count to each allocation; assignments
    increment the new referent and decrement the old one, scope exit
    decrements, and a count reaching zero frees the payload.  Here the
    OCaml GC does the actual freeing, so "free" means dropping the payload
    and debiting the cell's {b ledger} — which is precisely what lets the
    test-suite assert the paper's invariant: after a translated program
    finishes, no allocation is still live (no leaks), and no cell is ever
    decremented below zero (no double-free).

    A ledger is a few atomic counts.  Each interpreter run starts one (so
    does {!reset}), and every cell points to the ledger it was allocated
    in, so the pool's domains retain and release without a lock: a cell's
    own atomic count decides use-after-free and double-free, and its
    ledger's counts stay exact under any interleaving.  The accessors
    ({!live_count}, {!stats}, …) read the ledger started last. *)

type ledger = {
  live_cells : int Atomic.t;
  live_bytes : int Atomic.t;
  peak_bytes : int Atomic.t;  (** high-water mark of [live_bytes] *)
  allocated_bytes : int Atomic.t;
  n_allocs : int Atomic.t;
  n_frees : int Atomic.t;
  discarded : bool Atomic.t;  (** set by {!discard} *)
}

type 'a t = {
  count : int Atomic.t;  (** 0 once freed *)
  mutable payload : 'a option;  (** [None] after the count reaches zero *)
  id : int;  (** allocation number within its ledger *)
  bytes : int;  (** approximate payload size *)
  ledger : ledger;
}

exception Use_after_free of int
exception Double_free of int

exception Borrowed_release
(** A release of a {!borrow}ed cell. *)

(* Telemetry counters for the §III-B/C memory-management traffic; each is
   one gated atomic bump on top of the ledger's. *)
let c_allocs = Support.Telemetry.counter "rc.allocs"
let c_frees = Support.Telemetry.counter "rc.frees"
let c_incrs = Support.Telemetry.counter "rc.incrs"
let c_decrs = Support.Telemetry.counter "rc.decrs"
let c_drained = Support.Telemetry.counter "rc.drained"

let fresh () =
  {
    live_cells = Atomic.make 0;
    live_bytes = Atomic.make 0;
    peak_bytes = Atomic.make 0;
    allocated_bytes = Atomic.make 0;
    n_allocs = Atomic.make 0;
    n_frees = Atomic.make 0;
    discarded = Atomic.make false;
  }

let current = Atomic.make (fresh ())

(** [start ()] — a fresh ledger, from now on the one the accessors read. *)
let start () =
  let l = fresh () in
  Atomic.set current l;
  l

(** Start a fresh ledger between tests or benchmark runs.  Cells of the
    previous one keep debiting it, not the new one. *)
let reset () = ignore (start ())

(* The peak only rises: a compare-and-set per allocation that lifts the
   live bytes above it, so the high-water mark is exact. *)
let rec raise_peak l b =
  let p = Atomic.get l.peak_bytes in
  if b > p && not (Atomic.compare_and_set l.peak_bytes p b) then raise_peak l b

(** [alloc ?ledger ~bytes payload] — a fresh cell with count 1, live in
    [ledger] (by default the one started last). *)
let alloc ?(ledger = Atomic.get current) ?(bytes = 0) payload =
  Support.Telemetry.bump c_allocs;
  let id = Atomic.fetch_and_add ledger.n_allocs 1 in
  Atomic.incr ledger.live_cells;
  ignore (Atomic.fetch_and_add ledger.allocated_bytes bytes);
  raise_peak ledger (Atomic.fetch_and_add ledger.live_bytes bytes + bytes);
  { count = Atomic.make 1; payload = Some payload; id; bytes; ledger }

(* The ledger of borrowed cells: its counts are never read. *)
let nowhere = fresh ()

(** [borrow payload] — a cell for a view into another cell's payload,
    which that cell's owner keeps alive: it is counted in no ledger, and
    releasing it raises {!Borrowed_release}. *)
let borrow payload =
  { count = Atomic.make 1; payload = Some payload; id = -1; bytes = 0;
    ledger = nowhere }

(** [get cell] — dereference; raises {!Use_after_free} on a dead cell. *)
let get cell =
  match cell.payload with
  | Some p -> p
  | None -> raise (Use_after_free cell.id)

let rec retain cell =
  let n = Atomic.get cell.count in
  if n <= 0 then raise (Use_after_free cell.id);
  if not (Atomic.compare_and_set cell.count n (n + 1)) then retain cell

(** [incr_ cell] — a new reference now exists (assignment RHS, argument
    passing, storing into a structure). *)
let incr_ cell =
  Support.Telemetry.bump c_incrs;
  retain cell

(* A discarded ledger's cells count nowhere: their run is over. *)
let free cell =
  cell.payload <- None;
  let l = cell.ledger in
  if not (Atomic.get l.discarded) then begin
    Support.Telemetry.bump c_frees;
    Atomic.incr l.n_frees;
    Atomic.decr l.live_cells;
    ignore (Atomic.fetch_and_add l.live_bytes (-cell.bytes))
  end

let rec release cell =
  let n = Atomic.get cell.count in
  if n <= 0 then raise (Double_free cell.id);
  if cell.ledger == nowhere then raise Borrowed_release;
  if not (Atomic.compare_and_set cell.count n (n - 1)) then release cell
  else if n = 1 then free cell

(** [decr_ cell] — a reference died (scope exit, overwriting assignment).
    Frees the payload when the count reaches zero. *)
let decr_ cell =
  Support.Telemetry.bump c_decrs;
  release cell

let is_live cell = Atomic.get cell.count > 0

(** [discard l] — the abort path of the generated code's memory
    discipline.  A run that dies mid-flight never executes its scope-exit
    decrements, so the interpreter drops its ledger wholesale: live cells
    and bytes read 0 from then on (the OCaml GC reclaims the payloads),
    [rc.drained] counts the cells still live, and a later release of any
    of its cells counts nowhere.  Call once every domain of the run has
    stopped. *)
let discard l =
  Atomic.set l.discarded true;
  Support.Telemetry.add c_drained (Atomic.exchange l.live_cells 0);
  Atomic.set l.live_bytes 0

(* --- the ledger started last ------------------------------------------- *)

(** Number of allocations still live — a translated program that manages
    its references correctly leaves this at 0. *)
let live_count () = Atomic.get (Atomic.get current).live_cells

(** Live payload bytes: what the cooperative [--max-bytes] guard polls at
    loop and chunk boundaries. *)
let live_bytes () = Atomic.get (Atomic.get current).live_bytes

(** High-water mark of live payload bytes. *)
let peak_bytes () = Atomic.get (Atomic.get current).peak_bytes

(** Total payload bytes ever allocated. *)
let allocated_bytes () = Atomic.get (Atomic.get current).allocated_bytes

type stats = { allocs : int; frees : int; live : int }

let stats () =
  let l = Atomic.get current in
  {
    allocs = Atomic.get l.n_allocs;
    frees = Atomic.get l.n_frees;
    live = Atomic.get l.live_cells;
  }
