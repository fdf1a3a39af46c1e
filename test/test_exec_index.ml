(* The exec index in front of the binary cache (Native.Index, consulted
   by Driver.exec): a warm exec goes from the source bytes straight to
   the cached binary, composing, parsing, lowering and emitting nothing.
   A hit must report what the full path reports, replay the full path's
   warnings byte for byte, and miss whenever any input of the
   translation changes; a corrupt entry is a miss; --no-cache and
   --keep-c bypass it, and an earlier Driver.explain does not; a failed
   translation records nothing.

   Every case needing a real compiler probes first and skips visibly
   when none is available. *)

module T = Support.Telemetry
module Nd = Runtime.Ndarray
module P = Driver.Pipeline

let all4 =
  Driver.compose
    [ Driver.matrix; Driver.transform; Driver.refptr; Driver.cilk ]

let golden_dir = "golden"
let read path = In_channel.with_open_bin path In_channel.input_all

let contains needle hay =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let fresh_dir () =
  let d = Filename.temp_file "mmidx" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let ensure_cc () =
  match Native.Toolchain.probe () with
  | Ok tc -> tc
  | Error e ->
      Printf.printf "SKIP: no C compiler (%s)\n%!"
        (Native.Toolchain.describe_error e);
      Alcotest.skip ()

let stems =
  Sys.readdir golden_dir |> Array.to_list
  |> List.filter_map (Filename.chop_suffix_opt ~suffix:".mc")
  |> List.sort compare

(* What a translation leaves in --stats: an index hit shows none. *)
let translation_spans =
  [ "driver.compose"; "frontend.parse"; "driver.lower"; "driver.emit" ]

(* [traced f] — [f ()] and whether it translated the program. *)
let traced f =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    (fun () ->
      let r = f () in
      ( r,
        List.exists
          (fun (sp : T.span) -> List.mem sp.T.sp_name translation_spans)
          (T.spans ()) ))

let index_entries dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".idx")

let only_entry dir =
  match index_entries dir with
  | [ f ] -> Filename.concat dir f
  | es -> Alcotest.failf "expected one index entry, found %d" (List.length es)

let value o = Fmt.str "%a" Native.Exec.pp_value o.Native.Exec.value

let ok what = function
  | Driver.Ok_ o -> o
  | Driver.Failed ds ->
      Alcotest.failf "%s: exec failed: %s" what (Driver.diags_to_string ds)

(* The corpus inputs: every golden program sizes itself from dimSize, and
   Fig 8's scoring needs a series that ends on a drop. *)
let data_dir () =
  let dir = fresh_dir () in
  let p = 40 in
  let ts k =
    let fk = float_of_int k in
    if k < 10 then 1.0 +. (0.01 *. fk)
    else if k < 20 then 1.1 -. (0.1 *. (fk -. 10.))
    else if k < 30 then 0.1 +. (0.1 *. (fk -. 20.))
    else 1.1 -. (0.005 *. (fk -. 30.))
  in
  Interp.Eval.provide_input ~dir "ssh.data"
    (Nd.init_float [| 3; 4; p |] (fun ix ->
         ts ix.(2) +. (0.01 *. float_of_int (ix.(0) + ix.(1)))));
  Interp.Eval.provide_input ~dir "dates.data"
    (Nd.init_int [| p |] (fun ix -> 1012000 + ix.(0)));
  dir

(* --- a hit is the full path without the translation ---------------------- *)

(* Every golden program under three pipelines: 87 compiles, at cc -O0
   because the binaries' speed is not under test. *)
let test_hits_agree_with_full_path () =
  ignore (ensure_cc ());
  let cache_dir = fresh_dir () and dir = data_dir () in
  let configs =
    [
      ("default", Driver.default_config all4);
      ("-O0", P.set_all (Driver.default_config all4) false);
      ("auto-par", P.enable (Driver.default_config all4) "auto-par" true);
    ]
  in
  List.iter
    (fun stem ->
      let src = read (Filename.concat golden_dir (stem ^ ".mc")) in
      List.iter
        (fun (level, config) ->
          let what = Printf.sprintf "%s (%s)" stem level in
          let exec t =
            traced (fun () ->
                Driver.exec ~config ~cflags:[ "-O0" ] ~dir ~cache_dir t src)
          in
          let full, translated = exec (Driver.Composed all4) in
          let hit, retranslated =
            exec (Driver.Selection all4.Driver.selected)
          in
          let full = ok what full and hit = ok what hit in
          Alcotest.(check bool) (what ^ ": first run translates") true translated;
          Alcotest.(check bool) (what ^ ": rerun translates nothing") false
            retranslated;
          Alcotest.(check string) (what ^ ": value") (value full) (value hit);
          Alcotest.(check int) (what ^ ": live count") full.Native.Exec.live
            hit.Native.Exec.live;
          Alcotest.(check string) (what ^ ": binary") full.Native.Exec.exe
            hit.Native.Exec.exe;
          Alcotest.(check bool) (what ^ ": from_cache") true
            hit.Native.Exec.from_cache)
        configs)
    stems

(* --- every input of the translation is in the key ------------------------ *)

let test_every_input_misses () =
  let src = read (Filename.concat golden_dir "rand03.mc") in
  let cfg = Driver.default_config all4 in
  let tc ?cc ?cflags ?sanitize () =
    Native.Toolchain.configure ?cc ?cflags ?sanitize ()
  in
  let key ?build_id ?(selected = all4.Driver.selected) ?(config = cfg)
      ?line_file ?instrument ?(toolchain = tc ()) ?(src = src) () =
    Driver.index_key ?build_id ~selected ~config ?line_file ?instrument
      ~toolchain src
  in
  let edited =
    String.mapi (fun i c -> if i = String.index src '1' then '2' else c) src
  in
  let variants =
    [
      ("baseline", key ());
      ("one source byte", key ~src:edited ());
      ( "extension order",
        key ~selected:(List.rev all4.Driver.selected) () );
      ( "extension selection",
        key ~selected:[ Driver.matrix; Driver.transform; Driver.refptr ] () );
      ( "--passes transform,auto-par",
        key ~config:(Result.get_ok (P.of_spec cfg [ "transform"; "auto-par" ])) ()
      );
      ("-O0", key ~config:(P.set_all cfg false) ());
      ("fuse off", key ~config:(P.enable cfg "fuse" false) ());
      ("copy-elim off", key ~config:(P.enable cfg "copy-elim" false) ());
      ("--threads 2", key ~config:(P.enable cfg "auto-par" true) ());
      ("--line-directives a.mc", key ~line_file:"a.mc" ());
      ("--line-directives b.mc", key ~line_file:"b.mc" ());
      ("--sanitize address", key ~toolchain:(tc ~sanitize:"address" ()) ());
      ("--sanitize undefined", key ~toolchain:(tc ~sanitize:"undefined" ()) ());
      ("--cc", key ~toolchain:(tc ~cc:"mmc-some-other-cc" ()) ());
      ("--cflags", key ~toolchain:(tc ~cflags:[ "-O3" ] ()) ());
      ("instrument", key ~instrument:true ());
      ("build id", key ~build_id:"another build" ());
    ]
  in
  List.iteri
    (fun i (a, ka) ->
      List.iteri
        (fun j (b, kb) ->
          if i < j then
            Alcotest.(check bool) (a ^ " vs " ^ b ^ ": distinct keys") true
              (ka <> kb))
        variants)
    variants

(* Through Driver.exec: an edit misses the index, and a whitespace-only
   one still hits the binary through the C key; a permuted extension
   order (pipeline pinned) misses the index but emits the same C. *)
let test_edits_miss_through_exec () =
  ignore (ensure_cc ());
  let cache_dir = fresh_dir () in
  let config = Driver.default_config all4 in
  let src = read (Filename.concat golden_dir "rand03.mc") in
  let exec ?(t = Driver.Composed all4) src =
    traced (fun () -> Driver.exec ~config ~cache_dir t src)
  in
  let first, _ = exec src in
  let first = ok "rand03" first in
  let runs =
    [
      ("blank line appended", exec (src ^ "\n"));
      ( "extension order",
        exec ~t:(Driver.Selection (List.rev all4.Driver.selected)) src );
    ]
  in
  List.iter
    (fun (what, (o, translated)) ->
      let o = ok what o in
      Alcotest.(check bool) (what ^ ": translates") true translated;
      Alcotest.(check bool) (what ^ ": binary from the cache") true
        o.Native.Exec.from_cache;
      Alcotest.(check string) (what ^ ": same binary") first.Native.Exec.exe
        o.Native.Exec.exe;
      Alcotest.(check string) (what ^ ": same value") (value first) (value o))
    runs;
  let edited =
    String.mapi (fun i c -> if i = String.index src '1' then '2' else c) src
  in
  let o, translated = exec edited in
  let o = ok "edited" o in
  Alcotest.(check bool) "edit: translates" true translated;
  Alcotest.(check bool) "edit: compiles a new binary" false
    o.Native.Exec.from_cache

(* --- warnings replay byte for byte ---------------------------------------- *)

let mmc_exe = Filename.concat (Filename.concat ".." "bin") "mmc.exe"

(* [mmc args] — exit code, stdout and stderr of one mmc process. *)
let mmc args =
  let dir = fresh_dir () in
  let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote mmc_exe)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote out) (Filename.quote err))
  in
  (code, read out, read err)

let test_warnings_replay () =
  ignore (ensure_cc ());
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ();
  let cache_dir = fresh_dir () and dir = data_dir () in
  let exec extra =
    mmc
      ([ "exec"; "--threads"; "2"; "--data-dir"; dir; "--cache-dir"; cache_dir ]
      @ extra
      @ [ Filename.concat golden_dir "fig9_tile.mc" ])
  in
  let miss_code, miss_out, miss_err = exec [] in
  let hit_code, hit_out, hit_err = exec [] in
  Alcotest.(check int) "miss exits 0" 0 miss_code;
  Alcotest.(check bool) "miss warns" true
    (contains "transformation script skipped" miss_err);
  Alcotest.(check int) "hit exits 0" 0 hit_code;
  Alcotest.(check string) "hit prints the miss's stdout" miss_out hit_out;
  Alcotest.(check string) "hit replays the miss's stderr byte for byte"
    miss_err hit_err;
  let _, _, stats = exec [ "--stats" ] in
  Alcotest.(check bool) "the rerun was an index hit" false
    (contains "frontend.parse" stats)

(* --- corrupt entries are misses ---------------------------------------- *)

let test_corrupt_entries_miss () =
  ignore (ensure_cc ());
  let cache_dir = fresh_dir () in
  let src = read (Filename.concat golden_dir "rand05.mc") in
  let exec () =
    traced (fun () -> Driver.exec ~cache_dir (Driver.Composed all4) src)
  in
  let first = ok "rand05" (fst (exec ())) in
  let entry = only_entry cache_dir in
  let text = read entry in
  let write s = Out_channel.with_open_bin entry (fun oc -> output_string oc s) in
  let rerun what =
    let o, translated = exec () in
    let o = ok what o in
    Alcotest.(check bool) (what ^ ": translates again") true translated;
    Alcotest.(check string) (what ^ ": same value") (value first) (value o);
    Alcotest.(check string) (what ^ ": entry rewritten") text (read entry);
    o
  in
  write (String.sub text 0 (String.length text / 2));
  ignore (rerun "truncated entry");
  write (String.sub text 0 (String.length text - 4));
  ignore (rerun "entry without its end line");
  write "garbage\n\x00\xff";
  ignore (rerun "garbage entry");
  Sys.remove first.Native.Exec.exe;
  let o = rerun "entry naming a deleted binary" in
  Alcotest.(check bool) "deleted binary: compiled again" false
    o.Native.Exec.from_cache;
  let o, translated = exec () in
  Alcotest.(check bool) "then hits again" false translated;
  Alcotest.(check string) "hit value" (value first) (value (ok "hit" o))

(* --- bypasses ---------------------------------------------------------------- *)

let test_bypasses () =
  ignore (ensure_cc ());
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ();
  let cache_dir = fresh_dir () in
  let file = Filename.concat golden_dir "fig1_with_slice_copy.mc" in
  let src = read file in
  let dir = data_dir () in
  let exec ?cache ?keep_c () =
    traced (fun () ->
        Driver.exec ~dir ?cache ?keep_c ~cache_dir (Driver.Composed all4) src)
  in
  ignore (ok "warm-up" (fst (exec ())));
  Alcotest.(check bool) "warm" false (snd (exec ()));
  Alcotest.(check bool) "cache:false translates" true
    (snd (exec ~cache:false ()));
  let kept = Filename.concat (fresh_dir ()) "kept.c" in
  Alcotest.(check bool) "keep_c translates" true (snd (exec ~keep_c:kept ()));
  Alcotest.(check bool) "keep_c writes the C" true (Sys.file_exists kept);
  Alcotest.(check bool) "still warm afterwards" false (snd (exec ()));
  (* explain collects remarks only while it compiles: it leaves
     collection off and the next exec goes through the index *)
  ignore (Driver.explain all4 src);
  Alcotest.(check bool) "remark collection off after explain" false
    (Support.Remark.on ());
  Alcotest.(check bool) "warm after explain" false (snd (exec ()));
  (* the CLI, on a warm cache *)
  let cli extra =
    mmc
      ([ "exec"; "--data-dir"; dir; "--cache-dir"; cache_dir ] @ extra @ [ file ])
  in
  ignore (cli []);
  let kept = Filename.concat (fresh_dir ()) "cli.c" in
  let code, _, _ = cli [ "--keep-c"; kept ] in
  Alcotest.(check int) "--keep-c exits 0" 0 code;
  Alcotest.(check bool) "--keep-c writes the file on a warm run" true
    (Sys.file_exists kept);
  let _, _, stats = cli [ "--no-cache"; "--stats" ] in
  Alcotest.(check bool) "--no-cache translates" true
    (contains "frontend.parse" stats)

(* --- the lookup is a span --------------------------------------------------- *)

(* The index key and the lookup run before [driver.exec] opens, so they
   are their own span: exactly one [native.index] on a miss and on a
   hit. *)
let test_lookup_span () =
  ignore (ensure_cc ());
  let cache_dir = fresh_dir () in
  let src = "int main() { return 5; }\n" in
  List.iter
    (fun (what, translates) ->
      let n, translated =
        traced (fun () ->
            ignore
              (ok what (Driver.exec ~cache_dir (Driver.Composed all4) src));
            List.length
              (List.filter
                 (fun (sp : T.span) -> sp.T.sp_name = "native.index")
                 (T.spans ())))
      in
      Alcotest.(check bool) (what ^ ": translates") translates translated;
      Alcotest.(check int) (what ^ ": one native.index span") 1 n)
    [ ("miss", true); ("hit", false) ]

(* --- a failed translation records nothing --------------------------------- *)

let test_failed_translation_records_nothing () =
  let cache_dir = fresh_dir () in
  let src = "int main() { return undefined_name; }\n" in
  for run = 1 to 2 do
    match Driver.exec ~cache_dir (Driver.Composed all4) src with
    | Driver.Ok_ _ -> Alcotest.failf "run %d: a type error executed" run
    | Driver.Failed ds ->
        Alcotest.(check bool)
          (Printf.sprintf "run %d reports the type error" run)
          true
          (contains "undefined_name" (Driver.diags_to_string ds))
  done;
  Alcotest.(check (list string)) "no index entry" [] (index_entries cache_dir)

let suite =
  [
    Alcotest.test_case "hits agree with the full path (corpus)" `Quick
      test_hits_agree_with_full_path;
    Alcotest.test_case "every input of the translation misses" `Quick
      test_every_input_misses;
    Alcotest.test_case "edits miss through exec" `Quick
      test_edits_miss_through_exec;
    Alcotest.test_case "warnings replay byte for byte" `Quick
      test_warnings_replay;
    Alcotest.test_case "corrupt entries are misses" `Quick
      test_corrupt_entries_miss;
    Alcotest.test_case "--no-cache and --keep-c bypass; explain does not"
      `Quick test_bypasses;
    Alcotest.test_case "failed translations record nothing" `Quick
      test_failed_translation_records_nothing;
    Alcotest.test_case "the lookup is one native.index span" `Quick
      test_lookup_span;
  ]
