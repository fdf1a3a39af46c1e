(* See telemetry.mli for the design discussion.  Implementation notes:

   - The enabled flag is one [bool Atomic.t]; every probe reads it first,
     so a disabled run pays a load and a branch, nothing else.
   - Counters are interned by name in a mutex-guarded table, but bumping
     an interned handle is lock-free (one [Atomic.fetch_and_add]) — the
     invariant the worker-pool hot path relies on.
   - Spans are appended to a mutex-guarded list on completion; nesting
     depth is tracked per domain with [Domain.DLS], so spans recorded
     concurrently from pool workers never race. *)

(* CLOCK_MONOTONIC via a C stub (see telemetry_stubs.c): wall-clock
   differences can go negative under NTP steps; span durations must not. *)
external monotonic_ns : unit -> int64 = "mmc_monotonic_ns"

let epoch = monotonic_ns ()
let now_ns () = Int64.to_int (Int64.sub (monotonic_ns ()) epoch)
let now () = float_of_int (now_ns ()) *. 1e-9
let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let on () = Atomic.get enabled

(* --- registry ------------------------------------------------------------- *)

let mutex = Mutex.create ()

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

type counter = { c_name : string; c_cell : int Atomic.t }

let registry : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges_tbl : (string, float) Hashtbl.t = Hashtbl.create 16

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_cell = Atomic.make 0 } in
          Hashtbl.replace registry name c;
          c)

let add c n = if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_cell n)
let bump c = add c 1
let read c = Atomic.get c.c_cell
let counter_name c = c.c_name

let set_gauge name v =
  if Atomic.get enabled then locked (fun () -> Hashtbl.replace gauges_tbl name v)

(* --- spans ----------------------------------------------------------------- *)

type span = {
  sp_name : string;
  sp_phase : string;
  sp_tid : int;
  sp_depth : int;
  sp_start : float;
  sp_dur : float;
}

(* reverse completion order *)
let spans_acc : span list ref = ref []
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let with_span ?(phase = "") sp_name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    incr depth;
    let t0 = now () in
    Fun.protect
      ~finally:(fun () ->
        let dur = now () -. t0 in
        decr depth;
        let sp =
          {
            sp_name;
            sp_phase = phase;
            sp_tid = (Domain.self () :> int);
            sp_depth = d;
            sp_start = t0;
            sp_dur = dur;
          }
        in
        locked (fun () -> spans_acc := sp :: !spans_acc))
      f
  end

(* --- inspection ------------------------------------------------------------ *)

let reset () =
  locked (fun () ->
      Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) registry;
      Hashtbl.reset gauges_tbl;
      spans_acc := [])

let spans () = locked (fun () -> List.rev !spans_acc)

let counters () =
  locked (fun () ->
      Hashtbl.fold (fun _ c acc -> (c.c_name, Atomic.get c.c_cell) :: acc)
        registry [])
  |> List.sort compare

let gauges () =
  locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges_tbl [])
  |> List.sort compare

let span_totals () =
  let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let c, t =
        Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl sp.sp_name)
      in
      Hashtbl.replace tbl sp.sp_name (c + 1, t +. sp.sp_dur))
    (spans ());
  Hashtbl.fold (fun n (c, t) acc -> (n, c, t) :: acc) tbl []
  |> List.sort (fun (n1, _, a) (n2, _, b) ->
         match compare b a with 0 -> compare n1 n2 | o -> o)

(* --- exporters ------------------------------------------------------------- *)

let pp_summary ppf () =
  Fmt.pf ppf "--- telemetry summary ---@.";
  (match span_totals () with
  | [] -> ()
  | st ->
      Fmt.pf ppf "  %-38s %8s %12s@." "span" "calls" "total (ms)";
      List.iter
        (fun (n, c, t) -> Fmt.pf ppf "  %-38s %8d %12.3f@." n c (t *. 1000.))
        st);
  (match List.filter (fun (_, v) -> v <> 0) (counters ()) with
  | [] -> ()
  | cs ->
      Fmt.pf ppf "  %-38s %21s@." "counter" "value";
      List.iter (fun (n, v) -> Fmt.pf ppf "  %-38s %21d@." n v) cs);
  match gauges () with
  | [] -> ()
  | gs ->
      Fmt.pf ppf "  %-38s %21s@." "gauge" "value";
      List.iter (fun (n, v) -> Fmt.pf ppf "  %-38s %21.1f@." n v) gs

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let json_obj (fields : (string * string) list) =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
  ^ "}"

let to_json () =
  let counters_json =
    json_obj
      (List.map (fun (n, v) -> (n, string_of_int v)) (counters ()))
  in
  let gauges_json =
    json_obj
      (List.map (fun (n, v) -> (n, Printf.sprintf "%.6f" v)) (gauges ()))
  in
  let spans_json =
    json_obj
      (List.map
         (fun (n, calls, total) ->
           ( n,
             json_obj
               [
                 ("calls", string_of_int calls);
                 ("total_ms", Printf.sprintf "%.6f" (total *. 1000.));
               ] ))
         (span_totals ()))
  in
  json_obj
    [
      ("counters", counters_json);
      ("gauges", gauges_json);
      ("spans", spans_json);
    ]

let write_chrome_trace path =
  let buf = Buffer.create 4096 in
  let first = ref true in
  let event s =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_string buf s
  in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  event
    (json_obj
       [
         ("name", json_string "process_name");
         ("ph", json_string "M");
         ("pid", "0");
         ("tid", "0");
         ("args", json_obj [ ("name", json_string "mmc") ]);
       ]);
  List.iter
    (fun sp ->
      event
        (json_obj
           [
             ("name", json_string sp.sp_name);
             ( "cat",
               json_string (if sp.sp_phase = "" then "span" else sp.sp_phase) );
             ("ph", json_string "X");
             ("ts", Printf.sprintf "%.3f" (sp.sp_start *. 1e6));
             ("dur", Printf.sprintf "%.3f" (sp.sp_dur *. 1e6));
             ("pid", "0");
             ("tid", string_of_int sp.sp_tid);
           ]))
    (spans ());
  let ts_end = Printf.sprintf "%.3f" (now () *. 1e6) in
  List.iter
    (fun (n, v) ->
      event
        (json_obj
           [
             ("name", json_string n);
             ("cat", json_string "counter");
             ("ph", json_string "C");
             ("ts", ts_end);
             ("pid", "0");
             ("tid", "0");
             ("args", json_obj [ ("value", string_of_int v) ]);
           ]))
    (counters ());
  List.iter
    (fun (n, v) ->
      event
        (json_obj
           [
             ("name", json_string n);
             ("cat", json_string "gauge");
             ("ph", json_string "C");
             ("ts", ts_end);
             ("pid", "0");
             ("tid", "0");
             ("args", json_obj [ ("value", Printf.sprintf "%.6f" v) ]);
           ]))
    (gauges ());
  Buffer.add_string buf "]}";
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Buffer.contents buf))
