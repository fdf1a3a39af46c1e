(* Source-attributed profiling: provenance spans through lowering and loop
   transformations, #line directive emission, the Driver.profile report
   (coverage, memory gauges, folded stacks), RC byte gauges against a
   hand-computed allocation sequence, the caret diagnostic renderer, and
   the `mmc profile --json` CLI surface. *)

module Ir = Cir.Ir
module T = Cir.Transforms
module P = Support.Profile
module Pos = Support.Pos
module J = Support.Json

let all4 =
  Driver.compose
    [ Driver.matrix; Driver.transform; Driver.refptr; Driver.cilk ]

(* A self-contained eddy-style kernel (synthesized input, no readMatrix):
   temporal mean of a small SSH cube plus a fold over the result. *)
let eddy_src =
  {|
int main() {
  int m = 16;
  int n = 16;
  int p = 24;
  Matrix float <3> ssh = init(Matrix float <3>, m, n, p);
  ssh = with ([0,0,0] <= [i,j,k] < [m,n,p])
        genarray ([m,n,p], (float)((i * 7 + j * 13 + k * 5) % 37) / 37.0);
  Matrix float <2> means = init(Matrix float <2>, m, n);
  means = with ([0,0] <= [i,j] < [m,n])
          genarray ([m,n],
            (with ([0] <= [k] < [p]) fold (+, 0f, ssh[i,j,k])) / p);
  float total = with ([0,0] <= [i,j] < [m,n]) fold (+, 0f, means[i,j]);
  int hot = 0;
  for (int i = 0; i < m; i++) {
    for (int j = 0; j < n; j++) {
      if (means[i, j] > total / (m * n)) { hot = hot + 1; }
    }
  }
  return hot;
}
|}

let lower_src ?(auto_par = false) src =
  match Driver.frontend all4 src with
  | Driver.Failed ds -> Alcotest.failf "frontend: %s" (Driver.diags_to_string ds)
  | Driver.Ok_ ast -> (
      match Driver.lower ~config:(Driver.Pipeline.enable (Driver.default_config all4) "auto-par" auto_par) all4 ast with
      | Driver.Failed ds ->
          Alcotest.failf "lower: %s" (Driver.diags_to_string ds)
      | Driver.Ok_ prog -> prog)

(* Collect every For/ParFor loop record in a statement list. *)
let rec loops_of_stmts acc stmts = List.fold_left loops_of_stmt acc stmts

and loops_of_stmt acc s =
  match s with
  | Ir.For l | Ir.ParFor l -> loops_of_stmts (l :: acc) l.Ir.body
  | Ir.If (_, a, b) -> loops_of_stmts (loops_of_stmts acc a) b
  | Ir.While (_, b) | Ir.Block b | Ir.Located (_, b) -> loops_of_stmts acc b
  | _ -> acc

let program_loops (p : Ir.program) =
  List.concat_map (fun f -> loops_of_stmts [] f.Ir.f_body) p.Ir.funcs

(* --- provenance through lowering ----------------------------------------- *)

let test_lowering_stamps_provenance () =
  let prog = lower_src eddy_src in
  let loops = program_loops prog in
  Alcotest.(check bool) "program has loops" true (List.length loops > 5);
  List.iter
    (fun (l : Ir.loop) ->
      match l.Ir.prov with
      | Some sp ->
          Alcotest.(check bool)
            (Printf.sprintf "span %s points into the source"
               (Pos.span_to_string sp))
            true
            (sp.Pos.left.Pos.line >= 1
            && sp.Pos.left.Pos.line
               <= List.length (String.split_on_char '\n' eddy_src))
      | None ->
          Alcotest.failf "loop over '%s' lost its provenance" l.Ir.index)
    loops

let test_auto_par_keeps_provenance () =
  let prog = lower_src ~auto_par:true eddy_src in
  List.iter
    (fun (l : Ir.loop) ->
      Alcotest.(check bool)
        (Printf.sprintf "loop '%s' has prov" l.Ir.index)
        true (l.Ir.prov <> None))
    (program_loops prog)

(* --- provenance through the §V transformations --------------------------- *)

let mkpos line col = { Pos.line; col; offset = ((line - 1) * 80) + col }

let mkspan l c0 c1 = { Pos.left = mkpos l c0; Pos.right = mkpos l c1 }

let nest_ij () =
  Ir.For
    (Ir.mk_loop ~prov:(mkspan 3 1 20) ~index:"i" ~bound:(Ir.Int 8)
       [
         Ir.For
           (Ir.mk_loop ~prov:(mkspan 4 1 20) ~index:"j" ~bound:(Ir.Int 8)
              [ Ir.ExprS (Ir.Var "j") ]);
       ])

let apply_ok ts body =
  match T.apply_all ts body with
  | Ok b -> b
  | Error m -> Alcotest.failf "transform failed: %s" m

let test_split_preserves_provenance () =
  let out =
    apply_ok
      [ T.Split { target = "j"; factor = 4; inner = "jin"; outer = "jout" } ]
      [ nest_ij () ]
  in
  let loops = loops_of_stmts [] out in
  Alcotest.(check bool) "split produced more loops" true
    (List.length loops >= 3);
  List.iter
    (fun (l : Ir.loop) ->
      Alcotest.(check bool)
        (Printf.sprintf "loop '%s' kept prov after split" l.Ir.index)
        true (l.Ir.prov <> None))
    loops

let test_tile_preserves_provenance () =
  let out =
    apply_ok
      [ T.Tile { outer_ix = "i"; inner_ix = "j"; size = 4 } ]
      [ nest_ij () ]
  in
  let loops = loops_of_stmts [] out in
  Alcotest.(check bool) "tile produced a deeper nest" true
    (List.length loops >= 4);
  List.iter
    (fun (l : Ir.loop) ->
      Alcotest.(check bool)
        (Printf.sprintf "loop '%s' kept prov after tile" l.Ir.index)
        true (l.Ir.prov <> None))
    loops

(* --- #line directives ----------------------------------------------------- *)

let test_line_directives () =
  let src_lines = List.length (String.split_on_char '\n' eddy_src) in
  let with_lines =
    match Driver.compile_to_c ~line_file:"eddy.mc" all4 eddy_src with
    | Driver.Ok_ c -> c
    | Driver.Failed ds -> Alcotest.failf "emit: %s" (Driver.diags_to_string ds)
  in
  let plain =
    match Driver.compile_to_c all4 eddy_src with
    | Driver.Ok_ c -> c
    | Driver.Failed ds -> Alcotest.failf "emit: %s" (Driver.diags_to_string ds)
  in
  let directives =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ "#line"; n; file ] when file = "\"eddy.mc\"" ->
            Some (int_of_string n)
        | _ -> None)
      (String.split_on_char '\n' with_lines)
  in
  Alcotest.(check bool) "several #line directives emitted" true
    (List.length directives > 5);
  (* round-trip: every directive names a real line of the source *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "#line %d within source (%d lines)" n src_lines)
        true
        (n >= 1 && n <= src_lines))
    directives;
  (* the directives point at distinct statements, not all at line 1 *)
  Alcotest.(check bool) "directives cover multiple source lines" true
    (List.length (List.sort_uniq compare directives) > 3);
  Alcotest.(check bool) "no directives without the flag" true
    (not
       (String.fold_left
          (fun (prev, found) c ->
            if found then (c, true)
            else if prev = '#' && c = 'l' then (c, true)
            else (c, false))
          (' ', false) plain
       |> snd))

(* --- Driver.profile coverage and report ----------------------------------- *)

let test_profile_coverage () =
  let outcome, report = Driver.profile ~config:(Driver.default_config all4) all4 eddy_src [] in
  (match outcome with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds -> Alcotest.failf "run: %s" (Driver.diags_to_string ds));
  Alcotest.(check bool) "wall clock advanced" true
    (report.Driver.Profile_report.wall_ns > 0);
  let cov = Driver.Profile_report.coverage report in
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.3f >= 0.9" cov)
    true (cov >= 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "coverage %.3f <= 1.05 (self time cannot exceed wall)" cov)
    true (cov <= 1.05);
  Alcotest.(check bool) "rows recorded" true
    (List.length report.Driver.Profile_report.rows > 3);
  Alcotest.(check bool) "some iterations counted" true
    (List.exists
       (fun (r : P.row) -> r.P.r_iters > 0)
       report.Driver.Profile_report.rows);
  Alcotest.(check bool) "allocation bytes attributed" true
    (List.exists
       (fun (r : P.row) -> r.P.r_alloc_bytes > 0)
       report.Driver.Profile_report.rows);
  Alcotest.(check bool) "allocated_bytes gauge positive" true
    (report.Driver.Profile_report.allocated_bytes > 0);
  Alcotest.(check bool) "folded stacks non-empty" true
    (Driver.Profile_report.folded_lines report <> []);
  (* profiler must be off again after the run *)
  Alcotest.(check bool) "profiler disabled after profile" false
    (P.is_enabled ())

let test_profile_parallel_coverage () =
  Runtime.Pool.with_pool 2 (fun pool ->
      let outcome, report =
        Driver.profile ~config:(Driver.Pipeline.enable (Driver.default_config all4) "auto-par" true) ~pool all4 eddy_src []
      in
      (match outcome with
      | Driver.Ok_ _ -> ()
      | Driver.Failed ds ->
          Alcotest.failf "run: %s" (Driver.diags_to_string ds));
      let cov = Driver.Profile_report.coverage report in
      Alcotest.(check bool)
        (Printf.sprintf "parallel coverage %.3f in [0.9, 1.05]" cov)
        true
        (cov >= 0.9 && cov <= 1.05);
      Alcotest.(check bool) "a ParFor dispatched" true
        (List.exists
           (fun (r : P.row) -> r.P.r_dispatches > 0)
           report.Driver.Profile_report.rows))

(* --- RC byte gauges -------------------------------------------------------- *)

let test_rc_peak_bytes_hand_computed () =
  Runtime.Rc.reset ();
  let a = Runtime.Rc.alloc ~bytes:100 () in
  let b = Runtime.Rc.alloc ~bytes:50 () in
  Alcotest.(check int) "live after a+b" 150 (Runtime.Rc.live_bytes ());
  Runtime.Rc.decr_ a;
  (* a freed: live drops to 50, peak stays at 150 *)
  let c = Runtime.Rc.alloc ~bytes:25 () in
  Alcotest.(check int) "live after free(a)+c" 75 (Runtime.Rc.live_bytes ());
  Alcotest.(check int) "peak is the high-water mark" 150
    (Runtime.Rc.peak_bytes ());
  Alcotest.(check int) "total allocated" 175 (Runtime.Rc.allocated_bytes ());
  Runtime.Rc.decr_ b;
  Runtime.Rc.decr_ c;
  Alcotest.(check int) "all freed" 0 (Runtime.Rc.live_bytes ());
  Alcotest.(check int) "peak survives frees" 150 (Runtime.Rc.peak_bytes ());
  Runtime.Rc.reset ();
  Alcotest.(check int) "reset clears peak" 0 (Runtime.Rc.peak_bytes ())

(* Every matrix a run allocates is charged to a row or counted as
   unattributed, readMatrix's included: fig1 reads a 12x14x8 cube on
   line 3, and that statement's row carries its 12*14*8*4 bytes. *)
let test_profile_charges_read_matrix () =
  let dir = Filename.temp_file "mmprof" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Interp.Eval.provide_input ~dir "ssh.data"
    (Runtime.Ndarray.init_float [| 12; 14; 8 |] (fun ix ->
         float_of_int (ix.(0) + ix.(1) + ix.(2))));
  let outcome, report =
    Driver.profile ~config:(Driver.default_config all4) ~dir all4
      Eddy.Programs.fig1_temporal_mean []
  in
  (match outcome with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds -> Alcotest.failf "run: %s" (Driver.diags_to_string ds));
  let rows = report.Driver.Profile_report.rows in
  let read_row =
    List.filter (fun (r : P.row) -> r.P.r_span.Pos.left.Pos.line = 3) rows
  in
  Alcotest.(check (list int)) "the readMatrix statement's bytes"
    [ 12 * 14 * 8 * 8 ]
    (List.map (fun (r : P.row) -> r.P.r_alloc_bytes) read_row);
  let attributed =
    List.fold_left (fun acc (r : P.row) -> acc + r.P.r_alloc_bytes) 0 rows
  in
  Alcotest.(check int) "attributed + unattributed = allocated"
    report.Driver.Profile_report.allocated_bytes
    (attributed + report.Driver.Profile_report.unattributed_alloc)

(* --- caret renderer goldens ------------------------------------------------ *)

let excerpt src span = Fmt.str "%a" (Support.Diag.pp_excerpt src) span

let test_caret_single_line () =
  let src = "int x = 1;\nMatrix float <2> m;\nreturn x;\n" in
  (* span covering "float" on line 2: cols 8-13 (right one past last) *)
  let span = mkspan 2 8 13 in
  Alcotest.(check string) "caret under 'float'"
    "Matrix float <2> m;\n       ^~~~~" (excerpt src span)

let test_caret_multi_line_clamps () =
  let src = "a\nlong line here\nb\n" in
  let span = { Pos.left = mkpos 2 6; right = mkpos 3 2 } in
  Alcotest.(check string) "underline runs to end of first line"
    "long line here\n     ^~~~~~~~~" (excerpt src span)

let test_caret_dummy_span_silent () =
  Alcotest.(check string) "dummy span renders nothing" ""
    (excerpt "int x;\n" Pos.dummy_span)

let test_caret_tab_alignment () =
  let src = "\tint y = z;\n" in
  (* 'z' is at column 10 (tab counts as one column) *)
  let span = mkspan 1 10 11 in
  Alcotest.(check string) "pad echoes the tab" "\tint y = z;\n\t        ^"
    (excerpt src span)

let test_caret_out_of_range_silent () =
  let src = "short\n" in
  Alcotest.(check string) "column past end renders nothing" ""
    (excerpt src (mkspan 1 40 45));
  Alcotest.(check string) "line past end renders nothing" ""
    (excerpt src (mkspan 9 1 3))

(* --- CLI surface ----------------------------------------------------------- *)

let mmc_exe = Filename.concat (Filename.concat ".." "bin") "mmc.exe"

let test_cli_profile_json () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_file "mmcprof" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let prog = Filename.concat dir "eddy.mc" in
    Out_channel.with_open_text prog (fun oc -> output_string oc eddy_src);
    let out = Filename.concat dir "profile.json" in
    let folded = Filename.concat dir "folded.txt" in
    let cmd =
      Printf.sprintf "%s profile --json --folded %s %s > %s 2> /dev/null"
        (Filename.quote mmc_exe) (Filename.quote folded)
        (Filename.quote prog) (Filename.quote out)
    in
    Alcotest.(check int) "mmc profile exits 0" 0 (Sys.command cmd);
    let j = J.parse_file out in
    (match J.num_field j "coverage" with
    | Some c ->
        Alcotest.(check bool)
          (Printf.sprintf "CLI coverage %.3f >= 0.9" c)
          true (c >= 0.9)
    | None -> Alcotest.fail "profile JSON has no coverage field");
    (match Option.bind (J.field "rows" j) J.arr with
    | Some rows ->
        Alcotest.(check bool) "JSON rows present" true (List.length rows > 3);
        Alcotest.(check bool) "rows carry source excerpts" true
          (List.exists
             (fun r ->
               match Option.bind (J.field "source" r) J.str with
               | Some s -> String.length s > 0
               | None -> false)
             rows)
    | None -> Alcotest.fail "profile JSON has no rows array");
    (match Option.bind (J.field "memory" j) (J.field "peak_bytes") with
    | Some (J.Num b) ->
        Alcotest.(check bool) "peak_bytes positive" true (b > 0.)
    | _ -> Alcotest.fail "profile JSON has no memory.peak_bytes");
    let folded_text = In_channel.with_open_text folded In_channel.input_all in
    Alcotest.(check bool) "folded file has stack lines" true
      (String.length (String.trim folded_text) > 0)
  end

let test_cli_emit_line_directives () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else begin
    let dir = Filename.temp_file "mmcline" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    let prog = Filename.concat dir "eddy.mc" in
    Out_channel.with_open_text prog (fun oc -> output_string oc eddy_src);
    let out = Filename.concat dir "out.c" in
    let cmd =
      Printf.sprintf "%s emit --line-directives %s > %s 2> /dev/null"
        (Filename.quote mmc_exe) (Filename.quote prog) (Filename.quote out)
    in
    Alcotest.(check int) "mmc emit exits 0" 0 (Sys.command cmd);
    let text = In_channel.with_open_text out In_channel.input_all in
    let has_directive =
      List.exists
        (fun l -> String.length l >= 5 && String.sub l 0 5 = "#line")
        (String.split_on_char '\n' text)
    in
    Alcotest.(check bool) "emitted C references the .mc source" true
      (has_directive
      &&
      let needle = Filename.basename prog in
      let n = String.length needle and m = String.length text in
      let rec go i =
        i + n <= m && (String.sub text i n = needle || go (i + 1))
      in
      go 0)
  end

let suite =
  [
    Alcotest.test_case "lowering stamps provenance on every loop" `Quick
      test_lowering_stamps_provenance;
    Alcotest.test_case "auto-par lowering keeps provenance" `Quick
      test_auto_par_keeps_provenance;
    Alcotest.test_case "split preserves provenance" `Quick
      test_split_preserves_provenance;
    Alcotest.test_case "tile preserves provenance" `Quick
      test_tile_preserves_provenance;
    Alcotest.test_case "#line directives round-trip source lines" `Quick
      test_line_directives;
    Alcotest.test_case "profile attributes >=90% of runtime" `Quick
      test_profile_coverage;
    Alcotest.test_case "parallel profile stays within wall time" `Quick
      test_profile_parallel_coverage;
    Alcotest.test_case "rc peak bytes match a hand-computed sequence" `Quick
      test_rc_peak_bytes_hand_computed;
    Alcotest.test_case "profile charges readMatrix its bytes" `Quick
      test_profile_charges_read_matrix;
    Alcotest.test_case "caret: single-line span" `Quick test_caret_single_line;
    Alcotest.test_case "caret: multi-line span clamps to first line" `Quick
      test_caret_multi_line_clamps;
    Alcotest.test_case "caret: dummy span is silent" `Quick
      test_caret_dummy_span_silent;
    Alcotest.test_case "caret: tab-aligned pad" `Quick
      test_caret_tab_alignment;
    Alcotest.test_case "caret: out-of-range spans are silent" `Quick
      test_caret_out_of_range_silent;
    Alcotest.test_case "cli: mmc profile --json schema + coverage" `Quick
      test_cli_profile_json;
    Alcotest.test_case "cli: mmc emit --line-directives" `Quick
      test_cli_emit_line_directives;
  ]
