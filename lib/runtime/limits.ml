(** Cooperative resource guards for program execution.

    The translated programs run over real data files on a shared runtime;
    a malformed input or a runaway loop must not spin forever or exhaust
    memory before anyone notices.  Three limits are enforced
    {e cooperatively} — the interpreter calls {!tick} at loop-iteration
    boundaries and the pool calls {!check} at chunk boundaries, so a
    violation surfaces at the next boundary rather than pre-empting
    mid-statement:

    - [max_steps] — total loop iterations executed (checked every tick);
    - [max_bytes] — live matrix payload bytes in the ledger of the run
      started last ({!Rc.live_bytes}), checked at chunk boundaries and
      every {!slow_period} ticks;
    - [timeout] — a wall-clock deadline on the monotonic telemetry clock,
      checked on the same schedule as [max_bytes].

    Exceeding a limit raises {!Resource_limit} carrying which limit, the
    configured bound, the observed value, and (once the interpreter has
    enriched it) the provenance span of the active loop — so the
    diagnostic renders with a caret excerpt like a static error.

    Disabled (the default) costs one atomic load per tick. *)

type kind = Max_steps | Max_bytes | Timeout

type violation = {
  v_kind : kind;
  v_limit : int;  (** the configured bound (steps, bytes, or ns) *)
  v_actual : int;  (** the observed value at the failing check *)
  v_span : Support.Pos.span option;
      (** provenance of the active loop, filled in by the interpreter's
          span-enrichment wrapper; [None] until then *)
}

exception Resource_limit of violation

let active = Atomic.make false
let steps = Atomic.make 0
let lim_steps = Atomic.make 0 (* 0 = unlimited *)
let lim_bytes = Atomic.make 0 (* 0 = unlimited *)
let deadline_ns = Atomic.make 0 (* 0 = none *)
let timeout_ns = Atomic.make 0

(* How many ticks between clock/ledger reads: steps are checked on
   every tick (one fetch-and-add), wall clock and live bytes only every
   [slow_period] ticks and at every chunk boundary. *)
let slow_period = 64

(** [configure ?max_steps ?max_bytes ?timeout_s ()] — install limits and
    reset the step counter; the wall-clock deadline starts now.  Any
    omitted limit is unenforced; configuring with none given is
    {!clear}. *)
let configure ?max_steps ?max_bytes ?timeout_s () =
  Atomic.set steps 0;
  Atomic.set lim_steps (match max_steps with Some s when s > 0 -> s | _ -> 0);
  Atomic.set lim_bytes (match max_bytes with Some b when b > 0 -> b | _ -> 0);
  (match timeout_s with
  | Some t when t > 0. ->
      let ns = int_of_float (t *. 1e9) in
      Atomic.set timeout_ns ns;
      Atomic.set deadline_ns (Support.Telemetry.now_ns () + ns)
  | _ ->
      Atomic.set timeout_ns 0;
      Atomic.set deadline_ns 0);
  Atomic.set active
    (Atomic.get lim_steps > 0
    || Atomic.get lim_bytes > 0
    || Atomic.get deadline_ns > 0)

let clear () =
  Atomic.set active false;
  Atomic.set steps 0;
  Atomic.set lim_steps 0;
  Atomic.set lim_bytes 0;
  Atomic.set deadline_ns 0;
  Atomic.set timeout_ns 0

let enabled () = Atomic.get active

let violation v_kind v_limit v_actual =
  raise (Resource_limit { v_kind; v_limit; v_actual; v_span = None })

(* Wall clock + live bytes: the checks that cost a clock read, throttled
   to chunk boundaries and every [slow_period] ticks. *)
let check_slow () =
  let dl = Atomic.get deadline_ns in
  if dl > 0 then begin
    let now = Support.Telemetry.now_ns () in
    if now > dl then violation Timeout (Atomic.get timeout_ns) (now - dl + Atomic.get timeout_ns)
  end;
  let mb = Atomic.get lim_bytes in
  if mb > 0 then begin
    let live = Rc.live_bytes () in
    if live > mb then violation Max_bytes mb live
  end

(** [check ()] — the chunk-boundary probe: deadline and live-byte limits,
    no step charged.  One load when limits are disabled. *)
let check () = if Atomic.get active then check_slow ()

(** [tick ()] — the loop-iteration probe: charges one step, enforces
    [max_steps] exactly, and runs the slow checks every {!slow_period}
    steps.  One load when limits are disabled. *)
let tick () =
  if Atomic.get active then begin
    let n = 1 + Atomic.fetch_and_add steps 1 in
    let ms = Atomic.get lim_steps in
    if ms > 0 && n > ms then violation Max_steps ms n;
    if n mod slow_period = 0 then check_slow ()
  end

let human_bytes b =
  if b >= 1 lsl 20 then Printf.sprintf "%.1f MiB" (float_of_int b /. 1048576.)
  else if b >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int b /. 1024.)
  else Printf.sprintf "%d bytes" b

(** Human-readable description of a violation, used verbatim as the
    diagnostic message. *)
let describe v =
  match v.v_kind with
  | Max_steps ->
      Printf.sprintf
        "resource limit exceeded: %d loop iterations (--max-steps %d)"
        v.v_actual v.v_limit
  | Max_bytes ->
      Printf.sprintf
        "resource limit exceeded: %s of live matrix payload (--max-bytes %s)"
        (human_bytes v.v_actual) (human_bytes v.v_limit)
  | Timeout ->
      Printf.sprintf
        "resource limit exceeded: wall clock passed the %.3fs deadline \
         (--timeout)"
        (float_of_int v.v_limit /. 1e9)
