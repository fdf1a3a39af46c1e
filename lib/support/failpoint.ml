(** Deterministic fault injection — the registry behind the chaos/stress
    harness.

    A {i failpoint} is a named site in the runtime (matrix allocation, the
    pool's chunk dispatch, [readMatrix] I/O) that can be {e armed} to raise
    {!Injected} on a chosen hit.  Arming is external — the
    [MMC_FAILPOINTS] environment variable or [mmc --failpoints] — so the
    production code path never references a specific fault; it only calls
    {!hit} at the site.

    Firing is deterministic: [name\@k] fires on exactly the k-th hit
    (one-shot: later hits pass), and [name\@p:seed] fires pseudo-randomly
    per hit from a seeded hash, so a given (spec, hit sequence) always
    injects the same faults.  Arming a name no site registered is a
    {!Bad_spec}, so a misspelt spec cannot run the program unfaulted.

    The disarmed fast path is one atomic load per site, matching the
    telemetry discipline; hit and fired counts are always collected (they
    are how tests assert a fault actually fired) and can be exported as
    telemetry gauges via {!export_gauges}. *)

exception Injected of string
(** Raised by {!hit} when the site's armed condition is met; the payload
    is the failpoint name. *)

type mode =
  | Off
  | Nth of int  (** fire on exactly the k-th hit (1-based), one-shot *)
  | Prob of float * int  (** (probability, seed): fire per-hit from a hash *)

type t = {
  fp_name : string;
  armed : bool Atomic.t;  (** fast-path gate, one load when disarmed *)
  mutable mode : mode;
  hits : int Atomic.t;
  fired : int Atomic.t;
}

let mu = Mutex.create ()
let registry : (string, t) Hashtbl.t = Hashtbl.create 16

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(** [register name] — intern a failpoint handle; sites call this once at
    module initialisation, before anything can arm them. *)
let register name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some fp -> fp
      | None ->
          let fp =
            {
              fp_name = name;
              armed = Atomic.make false;
              mode = Off;
              hits = Atomic.make 0;
              fired = Atomic.make 0;
            }
          in
          Hashtbl.add registry name fp;
          fp)

let name fp = fp.fp_name

(* Deterministic per-hit coin for probabilistic failpoints: a splitmix64
   step of (seed, hit index), so which hits fire depends only on the spec
   and the hit sequence, never on wall clock or global PRNG state. *)
let coin ~seed ~n =
  let z = ref (seed * 0x9E3779B9 + n * 0xBF58476D + 0x94D049BB) in
  z := (!z lxor (!z lsr 30)) * 0x4CE4E5B9BF58476D;
  z := (!z lxor (!z lsr 27)) * 0x133111EB94D049BB;
  let bits = (!z lxor (!z lsr 31)) land 0x3FFFFFFF in
  float_of_int bits /. float_of_int 0x40000000

(** [hit fp] — record one pass through the site; raises {!Injected} when
    the armed condition is met on this hit.  Safe to call from any domain:
    the hit index comes from one [fetch_and_add], so [Nth k] fires in
    exactly one thread. *)
let hit fp =
  if Atomic.get fp.armed then begin
    let n = 1 + Atomic.fetch_and_add fp.hits 1 in
    let fire =
      match fp.mode with
      | Off -> false
      | Nth k -> n = k
      | Prob (p, seed) -> coin ~seed ~n < p
    in
    if fire then begin
      Atomic.incr fp.fired;
      raise (Injected fp.fp_name)
    end
  end

let arm fp mode =
  fp.mode <- mode;
  Atomic.set fp.armed (mode <> Off)

exception Bad_spec of string

(* One clause of a failpoint spec:
     name@K        fire on the K-th hit (K a positive integer)
     name@P        fire each hit with probability P (a float in (0,1])
     name@P:SEED   same, with an explicit PRNG seed *)
let parse_clause clause =
  match String.index_opt clause '@' with
  | None ->
      raise
        (Bad_spec
           (Printf.sprintf "%S: expected name@k or name@p[:seed]" clause))
  | Some at ->
      let fp_name = String.sub clause 0 at in
      let rest = String.sub clause (at + 1) (String.length clause - at - 1) in
      if fp_name = "" || rest = "" then
        raise (Bad_spec (Printf.sprintf "%S: empty name or trigger" clause));
      let prob, seed =
        match String.index_opt rest ':' with
        | None -> (rest, 1)
        | Some c -> (
            let s = String.sub rest (c + 1) (String.length rest - c - 1) in
            match int_of_string_opt s with
            | Some seed -> (String.sub rest 0 c, seed)
            | None ->
                raise (Bad_spec (Printf.sprintf "%S: bad seed %S" clause s)))
      in
      let mode =
        match int_of_string_opt prob with
        | Some k when k >= 1 -> Nth k
        | Some k ->
            raise
              (Bad_spec (Printf.sprintf "%S: hit count %d must be >= 1" clause k))
        | None -> (
            match float_of_string_opt prob with
            | Some p when p > 0. && p <= 1. -> Prob (p, seed)
            | Some p ->
                raise
                  (Bad_spec
                     (Printf.sprintf "%S: probability %g outside (0,1]" clause p))
            | None ->
                raise
                  (Bad_spec (Printf.sprintf "%S: bad trigger %S" clause prob)))
      in
      (fp_name, mode)

(** [parse_spec "pool.worker_body@2,ndarray.alloc@0.1:7"] — the
    comma-separated clauses as (name, mode) pairs, blank clauses
    skipped; raises {!Bad_spec} on a malformed clause.  Only the grammar
    is checked: the names may belong to another runtime. *)
let parse_spec spec =
  String.split_on_char ',' spec
  |> List.filter_map (fun clause ->
         let clause = String.trim clause in
         if clause = "" then None else Some (parse_clause clause))

(** [arm_spec spec] — arm every clause of [spec]; raises {!Bad_spec},
    arming nothing, on a malformed clause or a name no site registered. *)
let arm_spec spec =
  let clauses = parse_spec spec in
  locked (fun () ->
      List.map
        (fun (fp_name, mode) ->
          match Hashtbl.find_opt registry fp_name with
          | Some fp -> (fp, mode)
          | None ->
              raise (Bad_spec (Printf.sprintf "no failpoint named %S" fp_name)))
        clauses)
  |> List.iter (fun (fp, mode) -> arm fp mode)

(** Arm from [MMC_FAILPOINTS], if set.  Raises {!Bad_spec} on a malformed
    value, like {!arm_spec}. *)
let arm_from_env () =
  match Sys.getenv_opt "MMC_FAILPOINTS" with
  | Some spec -> arm_spec spec
  | None -> ()

(** Disarm every failpoint and zero all hit/fired counters.  Handles stay
    valid (they are interned by name). *)
let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ fp ->
          arm fp Off;
          Atomic.set fp.hits 0;
          Atomic.set fp.fired 0)
        registry)

let hit_count fp = Atomic.get fp.hits
let fired_count fp = Atomic.get fp.fired

(** [hits name] / [fired name] — counters by name; 0 for a name no site
    has registered. *)
let hits name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some fp -> Atomic.get fp.hits
      | None -> 0)

let fired name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some fp -> Atomic.get fp.fired
      | None -> 0)

(** All registered failpoints as [(name, hits, fired)], sorted by name. *)
let all () =
  locked (fun () ->
      Hashtbl.fold
        (fun _ fp acc ->
          (fp.fp_name, Atomic.get fp.hits, Atomic.get fp.fired) :: acc)
        registry [])
  |> List.sort compare

(** Export non-zero hit/fired counts as telemetry gauges
    ([failpoint.<name>.hits] / [.fired]) so [--stats] shows which faults
    actually fired.  No-op while telemetry is disabled. *)
let export_gauges () =
  List.iter
    (fun (n, h, f) ->
      if h > 0 then begin
        Telemetry.set_gauge (Printf.sprintf "failpoint.%s.hits" n)
          (float_of_int h);
        Telemetry.set_gauge (Printf.sprintf "failpoint.%s.fired" n)
          (float_of_int f)
      end)
    (all ())
