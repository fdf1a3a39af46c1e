(** Telemetry: phase tracing, pipeline counters and runtime-pool metrics.

    The paper's evaluation (§V, §VI) reasons about {e where} time goes —
    with-loop fusion, slice-copy elimination, enhanced fork-join vs naive
    spawn, composition cost.  This module makes those sub-operations
    observable: nestable spans over the monotonic clock, named atomic
    counters and gauges, a human-readable summary table, and a Chrome
    trace-event JSON export that opens directly in [chrome://tracing] or
    Perfetto.

    Zero library dependencies — time comes from
    [clock_gettime(CLOCK_MONOTONIC)] via a local C stub, so spans are
    immune to wall-clock (NTP) steps — and {b disabled by default}: every
    probe first reads one atomic flag, so an un-instrumented run pays a
    single load-and-branch per probe and no allocation. *)

val now_ns : unit -> int
(** Monotonic nanoseconds since the telemetry epoch (module
    initialisation).  The time source used for spans; also used by the
    runtime pool for busy-time and barrier-wait accounting. *)

(** {1 Global switch} *)

val set_enabled : bool -> unit
(** Turn collection on or off.  Off by default. *)

val on : unit -> bool
(** Is collection currently enabled? *)

val reset : unit -> unit
(** Zero every counter, clear all gauges and recorded spans.  Counter
    handles stay valid (they are interned by name). *)

(** {1 Counters and gauges} *)

type counter
(** A named monotonic counter.  Bumping is a single [Atomic.fetch_and_add]
    when telemetry is enabled and a read-and-branch when disabled, so
    handles can live on hot paths (worker loops, per-element stores). *)

val counter : string -> counter
(** [counter name] — intern a counter.  Calling again with the same name
    returns the same underlying cell. *)

val bump : counter -> unit
(** Increment by one (no-op when disabled). *)

val add : counter -> int -> unit
(** Increment by [n] (no-op when disabled). *)

val read : counter -> int
(** Current value (readable even when disabled). *)

val counter_name : counter -> string

val set_gauge : string -> float -> unit
(** Record a point-in-time measurement (LALR state count, worker busy
    seconds, …).  Last write wins.  No-op when disabled. *)

(** {1 Spans} *)

type span = {
  sp_name : string;
  sp_phase : string;  (** category, e.g. "compose", "parse", "run" *)
  sp_tid : int;  (** domain id that executed the span *)
  sp_depth : int;  (** nesting depth within that domain, 0 = outermost *)
  sp_start : float;  (** seconds since telemetry epoch *)
  sp_dur : float;  (** seconds *)
}

val with_span : ?phase:string -> string -> (unit -> 'a) -> 'a
(** [with_span ~phase name f] — run [f], recording its wall-clock
    duration as a span when telemetry is enabled.  Spans nest: the depth is
    tracked per domain.  The span is recorded even if [f] raises.  When
    disabled, [with_span] is just [f ()]. *)

(** {1 Inspection} *)

val spans : unit -> span list
(** All completed spans in completion order (a nested span therefore
    appears before its parent). *)

val counters : unit -> (string * int) list
(** Every interned counter with its value, sorted by name (zeros
    included). *)

val gauges : unit -> (string * float) list
(** All gauges, sorted by name. *)

val span_totals : unit -> (string * int * float) list
(** Aggregated spans: [(name, calls, total seconds)], sorted by total
    time descending. *)

(** {1 Exporters} *)

val json_string : string -> string
(** JSON-escape and quote a string.  Shared with other modules emitting
    hand-rolled JSON (the profiler report), so all exports escape
    identically. *)

val json_obj : (string * string) list -> string
(** [json_obj fields] — a JSON object from already-rendered value
    strings; keys are escaped with {!json_string}. *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable table: span aggregates, non-zero counters, gauges. *)

val to_json : unit -> string
(** Machine-readable snapshot:
    [{"counters":{..},"gauges":{..},"spans":{name:{"calls":n,"total_ms":t}}}].
    Used by the benchmark harness for [BENCH_telemetry.json]. *)

val write_chrome_trace : string -> unit
(** [write_chrome_trace path] — write all recorded spans (as ["X"]
    complete events, one track per domain) and the final counter/gauge
    values (as ["C"] counter events) in the Chrome trace-event format. *)
