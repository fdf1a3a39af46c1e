(* Compiler decision tracing: the Support.Remark stream through every
   pipeline decision point, pass-by-pass IR snapshots and diffs, the
   structured transform warn-and-skip path (one source of truth for
   stderr, remarks and JSON), the Driver.explain staging, JSON round-trip
   through Support.Json, the fusion-remark/loop-count property, and the
   `mmc explain` CLI surface. *)

module Ir = Cir.Ir
module R = Support.Remark
module J = Support.Json
module Pos = Support.Pos
module Diag = Support.Diag

let all4 =
  Driver.compose
    [ Driver.matrix; Driver.transform; Driver.refptr; Driver.cilk ]

(* Self-contained kernel (no readMatrix) touching fuse, copy-elim (both
   slice shapes: the row slice read in place and the identity-slice
   alias), auto-par, rc and transform — the .mc twin ships as
   examples/transform_tiling.mc. *)
let tiling_src =
  {|
float rowMean(Matrix float <2> grid, int i) {
  Matrix float <1> row = grid[i, :];
  int n = dimSize(row, 0);
  float total = with ([0] <= [k] < [n]) fold (+, 0f, row[k]);
  return total / n;
}

int main() {
  int m = 16;
  int n = 16;
  Matrix float <2> grid = init(Matrix float <2>, m, n);
  grid = with ([0,0] <= [i,j] < [m,n]) genarray ([m,n], 0.5f);
  Matrix float <2> scaled = init(Matrix float <2>, m, n);
  scaled = with ([0,0] <= [i,j] < [m,n]) genarray ([m,n], grid[i, j] + 1f)
    transform split j by 4, jin, jout.
              interchange jout, jin;
  Matrix float <2> view = scaled[:, :];
  float total = with ([0,0] <= [i,j] < [m,n]) fold (+, 0f, view[i, j]);
  Matrix float <1> means = init(Matrix float <1>, m);
  means = with ([0] <= [i] < [m]) genarray ([m], rowMean(grid, i));
  return (int)(total + means[0]);
}
|}

(* A script that binds against the sequential nest but not the
   auto-parallelized one: interchange needs both i and j as plain For
   loops, and auto-par promotes i to ParFor. *)
let skip_src =
  Eddy.Programs.fig9_with_script "interchange i, j"

let explain ?(fuse = true) ?(auto_par = true) ?dump_passes ?ir_diff ?warn src =
  let config =
    let open Driver.Pipeline in
    enable (enable (Driver.default_config all4) "fuse" fuse) "auto-par" auto_par
  in
  Driver.explain ~config ?dump_passes ?ir_diff ?warn all4 src

let explain_ok ?fuse ?auto_par ?dump_passes ?ir_diff ?warn src =
  match explain ?fuse ?auto_par ?dump_passes ?ir_diff ?warn src with
  | Driver.Ok_ _, report -> report
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)

let count ?pass ?kind (report : Driver.Explain_report.t) =
  List.length (R.filter ?pass ?kind report.Driver.Explain_report.remarks)

(* --- golden remark tables ------------------------------------------------- *)

(* fig1 under the parallel config: both genarray nests promoted, the
   inner fold demoted with its blocking construct named, rc active. *)
let test_fig1_parallel_remarks () =
  let src = Eddy.Programs.fig1_temporal_mean in
  let report = explain_ok ~auto_par:true src in
  Alcotest.(check bool) "fusion fired" true (count ~pass:"fuse" ~kind:R.Applied report >= 1);
  Alcotest.(check bool) "genarray promoted" true
    (count ~pass:"auto-par" ~kind:R.Applied report >= 1);
  Alcotest.(check bool) "fold demoted" true
    (count ~pass:"auto-par" ~kind:R.Missed report >= 1);
  Alcotest.(check bool) "rc reported" true (count ~pass:"rc" report >= 1);
  (* the demotion names its blocking construct *)
  let demoted =
    R.filter ~pass:"auto-par" ~kind:R.Missed report.Driver.Explain_report.remarks
  in
  List.iter
    (fun r ->
      Alcotest.(check bool) "demotion carries a reason detail" true
        (List.mem_assoc "demoted" r.R.details))
    demoted;
  (* sequential config reports the same decision points as skips *)
  let seq = explain_ok ~auto_par:false src in
  Alcotest.(check int) "no promotions when sequential" 0
    (count ~pass:"auto-par" ~kind:R.Applied seq);
  Alcotest.(check bool) "skips when sequential" true
    (count ~pass:"auto-par" ~kind:R.Skipped seq >= 1)

let test_fig4_remarks () =
  let src = Eddy.Programs.fig4_conncomp in
  let report = explain_ok ~auto_par:true src in
  (* matrixMap promotion is fig4's headline decision *)
  let promoted =
    R.filter ~pass:"auto-par" ~kind:R.Applied report.Driver.Explain_report.remarks
  in
  Alcotest.(check bool) "matrixMap slice dispatch promoted" true
    (List.exists
       (fun r ->
         let n = String.length "matrixMap" and m = String.length r.R.message in
         let rec go i =
           i + n <= m && (String.sub r.R.message i n = "matrixMap" || go (i + 1))
         in
         go 0)
       promoted);
  Alcotest.(check bool) "rc reports every function" true
    (count ~pass:"rc" report >= 2)

let test_transform_remarks_applied () =
  let report = explain_ok ~auto_par:false tiling_src in
  let applied =
    R.filter ~pass:"transform" ~kind:R.Applied report.Driver.Explain_report.remarks
  in
  Alcotest.(check int) "one remark per applied clause" 2 (List.length applied);
  (* clause text is carried as a detail, in script order *)
  Alcotest.(check (list string)) "clauses in script order"
    [ "split j by 4, jin, jout"; "interchange jout jin" ]
    (List.map (fun r -> List.assoc "clause" r.R.details) applied);
  (* one per slice shape: the row slice read in place ("slice" detail)
     and the identity slice aliased to its base ("alias" detail) *)
  Alcotest.(check (list string)) "copy-elim applied to both slice shapes"
    [ "alias"; "slice" ]
    (List.sort compare
       (List.map
          (fun r -> fst (List.hd r.R.details))
          (R.filter ~pass:"copy-elim" ~kind:R.Applied
             report.Driver.Explain_report.remarks)))

(* Every remark for these programs points at real source: the caret
   excerpt must render non-empty. *)
let test_remarks_carry_caret_spans () =
  List.iter
    (fun (name, src) ->
      let report = explain_ok ~auto_par:true src in
      Alcotest.(check bool)
        (Printf.sprintf "%s produces remarks" name)
        true
        (report.Driver.Explain_report.remarks <> []);
      List.iter
        (fun r ->
          let excerpt = Fmt.str "%a" (Diag.pp_excerpt src) r.R.span in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s remark at %s renders an excerpt" name
               r.R.pass (Pos.span_to_string r.R.span))
            true
            (String.length excerpt > 0))
        report.Driver.Explain_report.remarks)
    [
      ("fig1", Eddy.Programs.fig1_temporal_mean);
      ("fig4", Eddy.Programs.fig4_conncomp);
      ("tiling", tiling_src);
    ]

(* Rendering is deterministic: same program, same table. *)
let test_remark_table_stable () =
  let render () =
    Driver.Explain_report.to_string ~src:tiling_src
      (explain_ok ~auto_par:true tiling_src)
  in
  Alcotest.(check string) "two runs render identically" (render ()) (render ());
  (* grouped by pass in pipeline order *)
  let text = render () in
  let idx needle =
    let n = String.length needle and m = String.length text in
    let rec go i = if i + n > m then -1 else if String.sub text i n = needle then i else go (i + 1) in
    go 0
  in
  let pf = idx "pass fuse:" and pc = idx "pass copy-elim:" and pa = idx "pass auto-par:" in
  let pr = idx "pass rc:" and pt = idx "pass transform:" in
  Alcotest.(check bool) "all five groups present" true
    (pf >= 0 && pc >= 0 && pa >= 0 && pr >= 0 && pt >= 0);
  Alcotest.(check bool) "groups in pipeline order" true
    (pf < pc && pc < pa && pa < pr && pr < pt)

(* --- structured warn-and-skip (single source of truth) -------------------- *)

let test_skip_shared_between_stderr_and_remarks () =
  let warned = ref [] in
  let report =
    explain_ok ~auto_par:true ~warn:(fun d -> warned := d :: !warned) skip_src
  in
  let skipped =
    R.filter ~pass:"transform" ~kind:R.Skipped report.Driver.Explain_report.remarks
  in
  Alcotest.(check int) "exactly one skip remark" 1 (List.length skipped);
  let r = List.hd skipped in
  (match !warned with
  | [ d ] ->
      Alcotest.(check string) "stderr text is the remark text" r.R.message
        d.Diag.message;
      Alcotest.(check string) "same phase" "transform" d.Diag.phase;
      Alcotest.(check bool) "same span" true (d.Diag.span = r.R.span);
      (match d.Diag.severity with
      | Diag.Warning -> ()
      | _ -> Alcotest.fail "skip must surface as a warning")
  | ds -> Alcotest.failf "expected exactly one warning, got %d" (List.length ds));
  (* the raw script error rides along as a detail for --json consumers *)
  Alcotest.(check bool) "error detail present" true
    (List.mem_assoc "error" r.R.details);
  (* under the sequential config the same script binds and applies *)
  let seq = explain_ok ~auto_par:false skip_src in
  Alcotest.(check int) "no skip when the script binds" 0
    (count ~pass:"transform" ~kind:R.Skipped seq);
  Alcotest.(check bool) "applied instead" true
    (count ~pass:"transform" ~kind:R.Applied seq >= 1)

(* --- JSON round-trip ------------------------------------------------------ *)

let test_json_round_trip () =
  let report = explain_ok ~auto_par:true tiling_src in
  let j = J.parse (Driver.Explain_report.to_json report) in
  let remarks =
    match Option.bind (J.field "remarks" j) J.arr with
    | Some rs -> rs
    | None -> Alcotest.fail "no remarks array"
  in
  Alcotest.(check int) "every remark serialized"
    (List.length report.Driver.Explain_report.remarks)
    (List.length remarks);
  List.iter2
    (fun (r : R.t) jr ->
      Alcotest.(check (option string)) "pass" (Some r.R.pass)
        (Option.bind (J.field "pass" jr) J.str);
      Alcotest.(check (option string)) "kind"
        (Some (R.kind_to_string r.R.kind))
        (Option.bind (J.field "kind" jr) J.str);
      Alcotest.(check (option string)) "message" (Some r.R.message)
        (Option.bind (J.field "message" jr) J.str);
      let span = Option.get (J.field "span" jr) in
      Alcotest.(check (option (float 0.))) "span line"
        (Some (float_of_int r.R.span.Pos.left.Pos.line))
        (J.num_field span "line"))
    report.Driver.Explain_report.remarks remarks;
  (* counts object agrees with the remark list *)
  let counts = Option.get (J.field "counts" j) in
  List.iter
    (fun pass ->
      let expect kind k =
        let got =
          Option.bind (J.field pass counts) (fun o -> J.num_field o k)
        in
        Alcotest.(check (option (float 0.)))
          (Printf.sprintf "counts.%s.%s" pass k)
          (Some (float_of_int (count ~pass ~kind report)))
          got
      in
      expect R.Applied "applied";
      expect R.Missed "missed";
      expect R.Skipped "skipped")
    [ "fuse"; "copy-elim"; "auto-par"; "rc"; "transform" ]

(* --- fusion remarks vs. loop counts (property) ---------------------------- *)

let rec loops_of_stmts acc stmts = List.fold_left loops_of_stmt acc stmts

and loops_of_stmt acc s =
  match s with
  | Ir.For l | Ir.ParFor l -> loops_of_stmts (l :: acc) l.Ir.body
  | Ir.If (_, a, b) -> loops_of_stmts (loops_of_stmts acc a) b
  | Ir.While (_, b) | Ir.Block b | Ir.Located (_, b) -> loops_of_stmts acc b
  | _ -> acc

let program_loops (p : Ir.program) =
  List.concat_map (fun f -> loops_of_stmts [] f.Ir.f_body) p.Ir.funcs

(* Each Applied fusion remark is a with-loop that skipped its
   library-style result copy — exactly one flat copy loop that the
   unfused lowering pays.  So #loops(no-fuse) − #loops(fuse) must equal
   the Applied count, on every program in the corpus. *)
let test_fusion_remarks_match_loop_counts () =
  let corpus =
    [
      ("fig1", Eddy.Programs.fig1_temporal_mean);
      ("fig4", Eddy.Programs.fig4_conncomp);
      ("fig1-slice-copy", Eddy.Programs.fig1_with_slice_copy);
      ("tiling", tiling_src);
      ("fig9-split", Eddy.Programs.fig9_with_script "split j by 4, jin, jout");
    ]
  in
  List.iter
    (fun (name, src) ->
      let lower ~fuse =
        match explain ~fuse ~auto_par:false src with
        | Driver.Ok_ prog, report -> (prog, report)
        | Driver.Failed ds, _ ->
            Alcotest.failf "%s: explain failed: %s" name
              (Driver.diags_to_string ds)
      in
      let fused, report = lower ~fuse:true in
      let unfused, _ = lower ~fuse:false in
      let applied = count ~pass:"fuse" ~kind:R.Applied report in
      Alcotest.(check int)
        (Printf.sprintf "%s: applied fusion remarks = loops saved" name)
        applied
        (List.length (program_loops unfused) - List.length (program_loops fused)))
    corpus

let test_fusion_property_random_shapes =
  QCheck.Test.make ~count:20 ~name:"fusion remark count equals loops saved"
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (a, b) ->
      (* a genarray chain of length [a] plus [b] independent with-loops:
         every one is fusible, so applied = a + b and the unfused
         lowering pays exactly that many copy loops *)
      let buf = Buffer.create 256 in
      Buffer.add_string buf "int main() {\n  int n = 8;\n";
      Buffer.add_string buf
        "  Matrix int <1> v = init(Matrix int <1>, n);\n";
      for _ = 1 to a do
        Buffer.add_string buf
          "  v = with ([0] <= [i] < [n]) genarray ([n], i + 1);\n"
      done;
      for k = 1 to b do
        Buffer.add_string buf
          (Printf.sprintf
             "  Matrix int <1> w%d = init(Matrix int <1>, n);\n\
             \  w%d = with ([0] <= [i] < [n]) genarray ([n], i * 2);\n"
             k k)
      done;
      Buffer.add_string buf "  return v[0];\n}\n";
      let src = Buffer.contents buf in
      let lower ~fuse =
        match explain ~fuse ~auto_par:false src with
        | Driver.Ok_ prog, report -> (prog, report)
        | Driver.Failed ds, _ ->
            QCheck.Test.fail_reportf "lower failed: %s"
              (Driver.diags_to_string ds)
      in
      let fused, report = lower ~fuse:true in
      let unfused, _ = lower ~fuse:false in
      count ~pass:"fuse" ~kind:R.Applied report
      = List.length (program_loops unfused) - List.length (program_loops fused))
  |> QCheck_alcotest.to_alcotest

(* --- IR snapshots --------------------------------------------------------- *)

let test_dump_ir_stages () =
  let report =
    explain_ok ~auto_par:true
      ~dump_passes:[ "lower"; "fuse"; "copy-elim"; "auto-par"; "transform" ]
      tiling_src
  in
  let dump = report.Driver.Explain_report.dump in
  List.iter
    (fun header ->
      let n = String.length header and m = String.length dump in
      let rec go i = i + n <= m && (String.sub dump i n = header || go (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "dump has %S" header) true (go 0))
    [
      "=== ir after lower (program) ===";
      "=== ir after fuse (program) ===";
      "=== ir after copy-elim (program) ===";
      "=== ir after auto-par (program) ===";
      (* per-clause transform snapshots are labelled by statement span *)
      "=== ir after transform (";
    ]

let test_ir_diff_marks_promotion () =
  let report =
    explain_ok ~auto_par:true ~dump_passes:[ "copy-elim"; "auto-par" ]
      ~ir_diff:true tiling_src
  in
  let dump = report.Driver.Explain_report.dump in
  let contains needle =
    let n = String.length needle and m = String.length dump in
    let rec go i = i + n <= m && (String.sub dump i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "diff header present" true
    (contains "--- copy-elim\n+++ auto-par");
  Alcotest.(check bool) "promotion shows as an added pragma" true
    (contains "+  #pragma omp parallel for")

(* --- CLI surface ---------------------------------------------------------- *)

let mmc_exe = Filename.concat (Filename.concat ".." "bin") "mmc.exe"

let with_prog src k =
  let dir = Filename.temp_file "mmcexplain" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let prog = Filename.concat dir "prog.mc" in
  Out_channel.with_open_text prog (fun oc -> output_string oc src);
  k dir prog

let test_cli_explain_json () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else
    with_prog tiling_src @@ fun dir prog ->
    let out = Filename.concat dir "explain.json" in
    let cmd =
      Printf.sprintf "%s explain --json %s > %s 2> /dev/null"
        (Filename.quote mmc_exe) (Filename.quote prog) (Filename.quote out)
    in
    Alcotest.(check int) "mmc explain exits 0" 0 (Sys.command cmd);
    let j = J.parse_file out in
    (match Option.bind (J.field "remarks" j) J.arr with
    | Some rs ->
        Alcotest.(check bool) "remarks present" true (List.length rs >= 5)
    | None -> Alcotest.fail "explain JSON has no remarks array");
    let counts = Option.get (J.field "counts" j) in
    List.iter
      (fun pass ->
        match J.field pass counts with
        | Some _ -> ()
        | None -> Alcotest.failf "counts lacks pass %s" pass)
      [ "fuse"; "copy-elim"; "auto-par"; "rc"; "transform" ]

let test_cli_explain_only_filter () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else
    with_prog tiling_src @@ fun dir prog ->
    let out = Filename.concat dir "filtered.json" in
    let cmd =
      Printf.sprintf
        "%s explain --json --only pass=rc --only kind=applied %s > %s 2> /dev/null"
        (Filename.quote mmc_exe) (Filename.quote prog) (Filename.quote out)
    in
    Alcotest.(check int) "mmc explain --only exits 0" 0 (Sys.command cmd);
    let j = J.parse_file out in
    (match Option.bind (J.field "remarks" j) J.arr with
    | Some rs ->
        List.iter
          (fun r ->
            Alcotest.(check (option string)) "only rc" (Some "rc")
              (Option.bind (J.field "pass" r) J.str);
            Alcotest.(check (option string)) "only applied" (Some "applied")
              (Option.bind (J.field "kind" r) J.str))
          rs;
        Alcotest.(check bool) "filter kept something" true (rs <> [])
    | None -> Alcotest.fail "filtered JSON has no remarks array")

(* Satellite: no subcommand may drop a lowering warning.  The transform
   warn-and-skip fires under auto-par on every path that lowers. *)
let test_cli_warning_reaches_stderr () =
  if not (Sys.file_exists mmc_exe) then Alcotest.skip ()
  else
    with_prog skip_src @@ fun dir prog ->
    List.iter
      (fun (name, args) ->
        let err = Filename.concat dir (name ^ ".err") in
        let cmd =
          Printf.sprintf "%s %s %s > /dev/null 2> %s" (Filename.quote mmc_exe)
            args (Filename.quote prog) (Filename.quote err)
        in
        ignore (Sys.command cmd);
        let text = In_channel.with_open_text err In_channel.input_all in
        let needle = "transformation script skipped" in
        let n = String.length needle and m = String.length text in
        let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
        Alcotest.(check bool)
          (Printf.sprintf "mmc %s surfaces the skip warning" name)
          true (go 0))
      [
        ("check", "check -O1");
        ("emit", "emit -O1");
        ("run", "run --threads 2 --data-dir .");
        ("profile", "profile --threads 2 --data-dir .");
        ("explain", "explain");
      ]

(* --- parallel context ------------------------------------------------------ *)

(* A function that only ever runs inside a parallel region keeps its loops
   sequential: a nested region would only pay for entering it. *)

let is_infix ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* The emitted C of function [name]: its definition line through the
   closing brace in column 0. *)
let c_function c name =
  let lines = String.split_on_char '\n' c in
  let rec find = function
    | [] -> Alcotest.failf "no definition of %s in the emitted C" name
    | l :: rest ->
        if is_infix ~affix:(" " ^ name ^ "(") l
           || is_infix ~affix:("*" ^ name ^ "(") l
        then
          if String.ends_with ~suffix:"{" l then take [ l ] rest else find rest
        else find rest
  and take acc = function
    | [] -> String.concat "\n" (List.rev acc)
    | "}" :: _ -> String.concat "\n" (List.rev ("}" :: acc))
    | l :: rest -> take (l :: acc) rest
  in
  find lines

let parallel_c ?(auto_par = true) src =
  match explain ~auto_par src with
  | Driver.Ok_ prog, report -> (Cir.Emit.program prog, report)
  | Driver.Failed ds, _ ->
      Alcotest.failf "explain failed: %s" (Driver.diags_to_string ds)

(* The span the applied remark of the region whose message mentions
   [what] starts at, as "line:col". *)
let region_at (report : Driver.Explain_report.t) what =
  match
    List.find_opt
      (fun r -> is_infix ~affix:what r.R.message)
      (R.filter ~pass:"auto-par" ~kind:R.Applied report.Driver.Explain_report.remarks)
  with
  | Some r -> Pos.to_string r.R.span.Pos.left
  | None -> Alcotest.failf "no applied %s remark" what

(* The auto-par remarks whose span starts on source line [line]. *)
let remarks_on_line (report : Driver.Explain_report.t) line =
  List.filter
    (fun r -> r.R.span.Pos.left.Pos.line = line)
    (R.filter ~pass:"auto-par" report.Driver.Explain_report.remarks)

(* Each remark on [line] is Missed, names [region] in its message and
   carries it as the [region] detail. *)
let check_missed_in report ~line region =
  let rs = remarks_on_line report line in
  Alcotest.(check bool) (Printf.sprintf "remarks on line %d" line) true (rs <> []);
  List.iter
    (fun r ->
      Alcotest.(check string) "missed" "missed" (R.kind_to_string r.R.kind);
      Alcotest.(check (option string)) "region detail" (Some region)
        (List.assoc_opt "region" r.R.details);
      Alcotest.(check bool)
        (Printf.sprintf "message names the region: %s" r.R.message)
        true
        (is_infix ~affix:("runs inside the " ^ region) r.R.message))
    rs

let pc_prelude =
  {|
int main() {
  Matrix float <3> cube = init(Matrix float <3>, 3, 4, 6);
  cube = with ([0,0,0] <= [i,j,k] < [3,4,6])
         genarray ([3,4,6], (float)(i * 7 + j * 3 + k));
|}

let pc_map_src =
  {|Matrix float <1> smooth(Matrix float <1> ts) {
  int p = dimSize(ts, 0);
  return with ([0] <= [k] < [p]) genarray ([p], ts[k] * 2f);
}
|}
  ^ pc_prelude
  ^ {|  Matrix float <3> out = matrixMap(smooth, cube, [2]);
  return (int) out[1, 2, 3];
}
|}

let test_pc_matrixmap_body () =
  let c, report = parallel_c pc_map_src in
  let region = "matrixMap region at " ^ region_at report "matrixMap" in
  Alcotest.(check bool) "smooth has no parallel region" false
    (is_infix ~affix:"omp parallel" (c_function c "smooth"));
  Alcotest.(check bool) "main keeps its regions" true
    (is_infix ~affix:"omp parallel" (c_function c "main"));
  check_missed_in report ~line:3 region

(* fig8's computeArea runs only through scoreTS, which runs only through
   the lifted matrixMap body. *)
let pc_transitive_src =
  {|Matrix float <1> scale(Matrix float <1> v) {
  return v * 2f;
}
Matrix float <1> twice(Matrix float <1> ts) {
  return scale(ts);
}
|}
  ^ pc_prelude
  ^ {|  Matrix float <3> out = matrixMap(twice, cube, [2]);
  return (int) out[1, 2, 3];
}
|}

let test_pc_transitive () =
  let c, report = parallel_c pc_transitive_src in
  let region = "matrixMap region at " ^ region_at report "matrixMap" in
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " has no parallel region") false
        (is_infix ~affix:"omp parallel" (c_function c f)))
    [ "scale"; "twice" ];
  check_missed_in report ~line:2 region;
  (* fig8 itself: computeArea's two loops, reached through scoreTS (the
     range and '* m' fold into the '+ b' loop, so only it and the
     genarray's loop are left) *)
  let c, report = parallel_c Eddy.Programs.fig8_scoring in
  Alcotest.(check bool) "computeArea has no parallel region" false
    (is_infix ~affix:"omp parallel" (c_function c "computeArea"));
  let region = "matrixMap region at " ^ region_at report "matrixMap" in
  Alcotest.(check int) "computeArea's two loops missed inside the region" 2
    (List.length
       (List.filter
          (fun r -> List.assoc_opt "region" r.R.details = Some region)
          report.Driver.Explain_report.remarks))

(* transform_tiling's rowMean shape: called from a genarray body. *)
let pc_genarray_src =
  {|float rowSum(Matrix float <2> g, int i) {
  Matrix float <1> r = g[i, :] * 2f;
  return with ([0] <= [k] < [dimSize(r, 0)]) fold (+, 0f, r[k]);
}

int main() {
  Matrix float <2> grid = with ([0,0] <= [i,j] < [5,6]) genarray ([5,6], (float)(i + j));
  Matrix float <1> sums = with ([0] <= [i] < [5]) genarray ([5], rowSum(grid, i));
  return (int) sums[2];
}
|}

let test_pc_genarray_body () =
  let c, report = parallel_c pc_genarray_src in
  Alcotest.(check bool) "rowSum has no parallel region" false
    (is_infix ~affix:"omp parallel" (c_function c "rowSum"));
  let region =
    match
      List.find_opt
        (fun r -> r.R.span.Pos.left.Pos.line = 8)
        (R.filter ~pass:"auto-par" ~kind:R.Applied
           report.Driver.Explain_report.remarks)
    with
    | Some r -> "with-loop region at " ^ Pos.to_string r.R.span.Pos.left
    | None -> Alcotest.fail "the genarray in main is not promoted"
  in
  check_missed_in report ~line:2 region;
  (* the fold keeps its own remark, whatever region it runs in (guard) *)
  match remarks_on_line report 3 with
  | [ r ] ->
      Alcotest.(check bool) "fold demoted as before" true
        (is_infix ~affix:"fold with-loop demoted to sequential" r.R.message
        && List.mem_assoc "demoted" r.R.details
        && not (List.mem_assoc "region" r.R.details))
  | rs -> Alcotest.failf "%d remarks for the fold" (List.length rs)

(* Recursion reached only from a region: the greatest fixpoint. *)
let pc_recursive_src =
  {|Matrix float <1> halve(Matrix float <1> v, int n) {
  if (n <= 0) { return v + 0f; }
  return halve(v * 0.5f, n - 1);
}
Matrix float <1> start(Matrix float <1> ts) {
  return halve(ts, 2);
}
|}
  ^ pc_prelude
  ^ {|  Matrix float <3> out = matrixMap(start, cube, [2]);
  return (int) out[1, 2, 3];
}
|}

let test_pc_recursive () =
  let c, report = parallel_c pc_recursive_src in
  let region = "matrixMap region at " ^ region_at report "matrixMap" in
  Alcotest.(check bool) "halve has no parallel region" false
    (is_infix ~affix:"omp parallel" (c_function c "halve"));
  check_missed_in report ~line:2 region;
  check_missed_in report ~line:3 region

(* Guard: a function also called from sequential code keeps its region
   and its applied remark. *)
let pc_mixed_src =
  {|Matrix float <1> scale(Matrix float <1> v) {
  return v * 2f;
}
|}
  ^ pc_prelude
  ^ {|  Matrix float <1> row = scale(cube[0, 0, :]);
  Matrix float <3> out = matrixMap(scale, cube, [2]);
  return (int) (out[1, 2, 3] + row[1]);
}
|}

let test_pc_mixed_callers () =
  let c, report = parallel_c pc_mixed_src in
  Alcotest.(check bool) "scale keeps its parallel region" true
    (is_infix ~affix:"#pragma omp parallel for" (c_function c "scale"));
  match remarks_on_line report 2 with
  | [ r ] ->
      Alcotest.(check string) "applied" "applied" (R.kind_to_string r.R.kind)
  | rs -> Alcotest.failf "%d remarks for scale's loop" (List.length rs)

(* Guard: with auto-par disabled every site reads Skipped as before, in
   every function. *)
let test_pc_disabled () =
  List.iter
    (fun src ->
      let c, report = parallel_c ~auto_par:false src in
      Alcotest.(check bool) "no parallel region" false
        (is_infix ~affix:"omp parallel" c);
      let rs = R.filter ~pass:"auto-par" report.Driver.Explain_report.remarks in
      Alcotest.(check bool) "auto-par remarks" true (rs <> []);
      List.iter
        (fun r ->
          Alcotest.(check string)
            ("skipped: " ^ r.R.message)
            "skipped" (R.kind_to_string r.R.kind))
        rs)
    [ pc_map_src; pc_transitive_src; pc_genarray_src; pc_recursive_src ]

let suite =
  [
    Alcotest.test_case "fig1: parallel and sequential remark tables" `Quick
      test_fig1_parallel_remarks;
    Alcotest.test_case "fig4: matrixMap promotion and rc remarks" `Quick
      test_fig4_remarks;
    Alcotest.test_case "transform: one applied remark per clause" `Quick
      test_transform_remarks_applied;
    Alcotest.test_case "every remark renders a caret excerpt" `Quick
      test_remarks_carry_caret_spans;
    Alcotest.test_case "remark table is stable and pipeline-ordered" `Quick
      test_remark_table_stable;
    Alcotest.test_case "warn-and-skip: stderr, remark and JSON share one text"
      `Quick test_skip_shared_between_stderr_and_remarks;
    Alcotest.test_case "explain JSON round-trips through Support.Json" `Quick
      test_json_round_trip;
    Alcotest.test_case "applied fusion remarks = loop nests saved (corpus)"
      `Quick test_fusion_remarks_match_loop_counts;
    test_fusion_property_random_shapes;
    Alcotest.test_case "--dump-ir captures every staged pass" `Quick
      test_dump_ir_stages;
    Alcotest.test_case "--ir-diff shows the auto-par promotion" `Quick
      test_ir_diff_marks_promotion;
    Alcotest.test_case "cli: mmc explain --json schema" `Quick
      test_cli_explain_json;
    Alcotest.test_case "cli: mmc explain --only filters" `Quick
      test_cli_explain_only_filter;
    Alcotest.test_case "cli: lowering warnings reach stderr on every subcommand"
      `Quick test_cli_warning_reaches_stderr;
    Alcotest.test_case "parallel context: a matrixMap body stays sequential"
      `Quick test_pc_matrixmap_body;
    Alcotest.test_case "parallel context: reached through another function"
      `Quick test_pc_transitive;
    Alcotest.test_case "parallel context: a genarray body stays sequential"
      `Quick test_pc_genarray_body;
    Alcotest.test_case "parallel context: recursion reached from a region"
      `Quick test_pc_recursive;
    Alcotest.test_case "parallel context: mixed callers keep the region"
      `Quick test_pc_mixed_callers;
    Alcotest.test_case "parallel context: auto-par disabled reads Skipped"
      `Quick test_pc_disabled;
  ]
