(* Fig 4/5: map a connected-component labelling function over every time
   frame of an SSH cube with matrixMap, after logical-index filtering by
   date — and cross-check each frame against the native union-find
   labelling.

     dune exec examples/conncomp_map.exe
*)

module Nd = Runtime.Ndarray
module S = Runtime.Scalar

let () =
  Fmt.pr "=== connected components over time with matrixMap (Fig 4/5) ===@.@.";
  let lat = 14 and lon = 18 and time = 6 in
  let cube, _ =
    Eddy.Ssh_gen.generate ~lat ~lon ~time ~n_eddies:3 ~seed:17 ()
  in
  let dates = Nd.init_int [| time |] (fun ix -> 1012000 + ix.(0)) in
  let c = Driver.compose [ Driver.matrix; Driver.refptr ] in
  let dir = Filename.temp_file "mmc_cc" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Interp.Eval.provide_input ~dir "ssh.data" cube;
  Interp.Eval.provide_input ~dir "dates.data" dates;
  Runtime.Rc.reset ();
  Fmt.pr "Input program:%s@." Eddy.Programs.fig4_conncomp;
  (match Driver.run ~dir c Eddy.Programs.fig4_conncomp [] with
  | Driver.Ok_ _ -> ()
  | Driver.Failed ds ->
      Fmt.epr "failed:@.%s@." (Driver.diags_to_string ds);
      exit 1);
  let labels = Interp.Eval.fetch_output ~dir "eddyLabels.data" in
  Fmt.pr "Label cube: %s, leaks: %d@.@."
    (Runtime.Shape.to_string (Nd.shape labels))
    (Runtime.Rc.live_count ());
  for t = 0 to time - 1 do
    let fr = Eddy.Ssh_gen.frame cube t in
    let oracle = Eddy.Conncomp.label (Eddy.Conncomp.below ~threshold:(-0.25) fr) in
    let n_oracle = Eddy.Conncomp.count_components oracle in
    (* count distinct labels produced by the translated program *)
    let seen = Hashtbl.create 8 in
    for i = 0 to lat - 1 do
      for j = 0 to lon - 1 do
        let l = S.to_int (Nd.get labels [| i; j; t |]) in
        if l > 0 then Hashtbl.replace seen l ()
      done
    done;
    Fmt.pr "frame t=%d: translated program found %d component(s), union-find oracle %d@."
      t (Hashtbl.length seen) n_oracle
  done;
  (* eddy-like filtering on the middle frame *)
  let fr = Eddy.Ssh_gen.frame cube (time / 2) in
  let dets = Eddy.Conncomp.detect_frame ~threshold:(-0.25) fr in
  Fmt.pr "@.Eddy-like components at t=%d:@." (time / 2);
  List.iter
    (fun (cmp : Eddy.Conncomp.component) ->
      let ci, cj = cmp.Eddy.Conncomp.centroid in
      Fmt.pr "  label %d: %d cells, centroid (%.1f, %.1f)@."
        cmp.Eddy.Conncomp.c_label cmp.Eddy.Conncomp.cells ci cj)
    dets
