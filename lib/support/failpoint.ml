(** Deterministic fault injection — the registry behind the fault tests.

    A {i failpoint} is a named site in the runtime (matrix allocation, the
    pool's chunk dispatch, [readMatrix] I/O) that can be {e armed} to raise
    {!Injected} on a chosen hit.  Arming is external — [mmc run
    --failpoints] — so the production code path never references a
    specific fault; it only calls {!hit} at the site.

    [name\@k] fires on exactly the k-th hit (one-shot: later hits pass),
    so a given (spec, hit sequence) always injects the same fault.
    Arming a name no site registered is a {!Bad_spec}, so a misspelt spec
    cannot run the program unfaulted.

    The disarmed fast path is one atomic load per site, matching the
    telemetry discipline; an armed failpoint counts its hits and fires
    (they are how tests assert a fault actually fired). *)

exception Injected of string
(** Raised by {!hit} when the site's armed hit comes; the payload is the
    failpoint name. *)

type t = {
  fp_name : string;
  nth : int Atomic.t;
      (** fire on exactly this hit (1-based); 0 when disarmed, so the fast
          path is one load *)
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
              nth = Atomic.make 0;
              hits = Atomic.make 0;
              fired = Atomic.make 0;
            }
          in
          Hashtbl.add registry name fp;
          fp)

(** [hit fp] — record one pass through the site; raises {!Injected} on
    the armed hit.  Safe to call from any domain: the hit index comes from
    one [fetch_and_add], so the fault fires in exactly one thread. *)
let hit fp =
  let k = Atomic.get fp.nth in
  if k > 0 && 1 + Atomic.fetch_and_add fp.hits 1 = k then begin
    Atomic.incr fp.fired;
    raise (Injected fp.fp_name)
  end

exception Bad_spec of string

(* One clause of a failpoint spec: name@K, fire on the K-th hit (K a
   positive decimal integer). *)
let parse_clause clause =
  match String.index_opt clause '@' with
  | None -> raise (Bad_spec (Printf.sprintf "%S: expected name@k" clause))
  | Some at -> (
      let fp_name = String.sub clause 0 at in
      let k = String.sub clause (at + 1) (String.length clause - at - 1) in
      if fp_name = "" || k = "" then
        raise (Bad_spec (Printf.sprintf "%S: empty name or trigger" clause));
      let digits = String.for_all (function '0' .. '9' -> true | _ -> false) in
      match int_of_string_opt k with
      | Some n when digits k && n >= 1 -> (fp_name, n)
      | _ ->
          raise
            (Bad_spec
               (Printf.sprintf "%S: trigger %S is not a hit count >= 1" clause
                  k)))

(** [parse_spec "pool.worker_body@2,ndarray.alloc@5"] — the
    comma-separated clauses as (name, k) pairs, blank clauses skipped;
    raises {!Bad_spec} on a malformed clause.  Only the grammar is
    checked: the names may belong to another runtime. *)
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
        (fun (fp_name, k) ->
          match Hashtbl.find_opt registry fp_name with
          | Some fp -> (fp, k)
          | None ->
              raise (Bad_spec (Printf.sprintf "no failpoint named %S" fp_name)))
        clauses)
  |> List.iter (fun (fp, k) -> Atomic.set fp.nth k)

(** Disarm every failpoint and zero all hit/fired counters.  Handles stay
    valid (they are interned by name). *)
let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ fp ->
          Atomic.set fp.nth 0;
          Atomic.set fp.hits 0;
          Atomic.set fp.fired 0)
        registry)

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
