(** The matrix extension's CIR passes: with-loop fusion (§III-A5),
    slice-copy elimination (§III-A5) and auto-parallelization (§III-C).

    Each pass consumes the {!Sites} annotations the baseline {!Lower}
    left behind.  A pass runs even when disabled: splicing its sites away
    and reporting the Skipped/Missed decision is also its job, so a
    completed pipeline leaves no matrix sites in the program. *)

open Cir.Ir
module R = Support.Remark

(* [rewrite_sites] cannot rewrite uses outside the site it is visiting,
   so fusion collects its renames (copy→result) and applies them to the
   whole program afterwards — gensym names are program-unique, so global
   substitution is safe. *)
let apply_substs substs p =
  List.fold_left
    (fun p (from_, to_) -> Cir.Pass.subst_in_program from_ (Var to_) p)
    p substs

(** With-loop fusion: the result of a with-loop feeds its consumer
    directly instead of being evaluated into a temporary that is then
    copied (the library-style baseline the payload holds). *)
let fuse : Cir.Pass.t =
  {
    Cir.Pass.name = "fuse";
    default_on = true;
    managed_snapshot = true;
    run =
      (fun _ctx ~enabled p ->
        let substs = ref [] in
        let p =
          Cir.Pass.rewrite_sites
            (fun site payload ->
              match site with
              | Sites.FuseCopy { result; copy; span } ->
                  if enabled then begin
                    R.emit ~pass:"fuse" ~kind:R.Applied ~span
                      "with-loop result feeds its consumer directly: no \
                       temporary copy";
                    substs := (copy, result) :: !substs;
                    Some []
                  end
                  else begin
                    R.emit ~pass:"fuse" ~kind:R.Missed ~span
                      ~details:
                        [
                          ( "blocking",
                            "library-style evaluation (fuse disabled)" );
                        ]
                      "with-loop paid a library-style result copy (fusion \
                       disabled)";
                    Some payload
                  end
              | _ -> None)
            p
        in
        apply_substs !substs p);
  }

(* An eliminated one-dimensional slice: each read [var[k]] reads [base]
   in place, [dimSize(var, 0)] reads [base]'s extent, and the
   declaration of [var], its releases and any provenance block left
   empty go.  [var] is bound once in the function, so no other variable
   shares its name. *)
let read_in_place base (f : Sites.fiber) body =
  map_stmts
    (function
      | MGetFlat (Var v, k) when v = f.var ->
          MGetFlat (Var base, subst_var_expr f.index k f.offset)
      | MDim (Var v, Int 0) when v = f.var -> f.extent
      | e -> e)
    Fun.id body
  |> concat_map_stmts (function
       | (Decl (_, v, _) | RcInc (Var v) | RcDec (Var v)) when v = f.var -> []
       | Located (_, []) -> []
       | s -> [ s ])

(** Slice-copy elimination (§III-A5): an identity slice [m[:, …, :]]
    aliases its base (retaining it) instead of allocating and copying
    every element, and a one-dimensional slice [s = m[e1, …, :, …, en]]
    is not built at all — each [s[k]] reads [m] in place, the Fig 1 →
    Fig 3 rewrite.  Each only when the lowering-time verdict proved it
    observation-free. *)
let copy_elim : Cir.Pass.t =
  {
    Cir.Pass.name = "copy-elim";
    default_on = true;
    managed_snapshot = true;
    run =
      (fun ctx ~enabled p ->
        let in_function fn =
          let aliases = ref [] and fibers = ref [] in
          let body =
            Cir.Pass.rewrite_sites_in
              (fun site payload ->
                match site with
                | Sites.SliceAlias { base; slice; shape; safe; why; span } -> (
                    match shape with
                    | Sites.Identity when enabled && safe ->
                        R.emit ~pass:"copy-elim" ~kind:R.Applied ~span
                          ~details:[ ("alias", why) ]
                          "identity slice aliased to its base: copy elided";
                        aliases := (slice, base) :: !aliases;
                        Some (if ctx.Cir.Pass.rc then [ RcInc (Var base) ] else [])
                    | Sites.Fiber f when enabled && safe ->
                        R.emit ~pass:"copy-elim" ~kind:R.Applied ~span:f.decl
                          ~details:[ ("slice", f.var) ]
                          "slice copy '%s' eliminated: the fold reads the base \
                           matrix in place and the dead slice declaration was \
                           dropped"
                          f.var;
                        fibers := (base, f) :: !fibers;
                        Some []
                    | _ ->
                        (match shape with
                        | Sites.Identity when not enabled ->
                            R.emit ~pass:"copy-elim" ~kind:R.Skipped ~span
                              "copy elimination disabled: identity slice \
                               allocates a copy"
                        | Sites.Identity ->
                            R.emit ~pass:"copy-elim" ~kind:R.Missed ~span
                              ~details:[ ("alias", why) ]
                              "identity slice kept its copy: %s" why
                        | Sites.Fiber f when not enabled ->
                            R.emit ~pass:"copy-elim" ~kind:R.Skipped
                              ~span:f.decl ~details:[ ("slice", f.var) ]
                              "copy elimination disabled: slice '%s' allocates \
                               a copy"
                              f.var
                        | Sites.Fiber f ->
                            R.emit ~pass:"copy-elim" ~kind:R.Missed
                              ~span:f.decl ~details:[ ("slice", f.var) ]
                              "slice copy '%s' kept: %s" f.var why
                        | Sites.Other ->
                            R.emit ~pass:"copy-elim" ~kind:R.Missed ~span
                              "slice allocates a copy (%s)" why);
                        Some payload)
                | _ -> None)
              fn.f_body
          in
          let body =
            List.fold_left
              (fun b (slice, base) -> subst_var slice (Var base) b)
              body !aliases
          in
          {
            fn with
            f_body =
              List.fold_left (fun b (base, f) -> read_in_place base f b) body !fibers;
          }
        in
        { p with funcs = List.map in_function p.funcs });
  }

(* --- auto-parallelization and parallel context (§III-C) ------------------ *)

(* A parallel region: the construct that opened it, and where. *)
type region = { what : string; at : Support.Pos.span option }

let describe r =
  match r.at with
  | Some span ->
      Printf.sprintf "%s region at %s" r.what (Support.Pos.to_string span.left)
  | None -> r.what ^ " region"

(* The region an [AutoPar] site opens when promoted; [None] for a fold
   (never promoted) or a payload that is not one loop. *)
let site_region kind span payload =
  let opens what = Some { what; at = Some span } in
  match (kind, payload) with
  | Sites.Elemwise, [ For _ ] -> opens "elementwise"
  | Sites.MatmulRow, [ For _ ] -> opens "matrix-multiplication"
  | Sites.WithGen, [ For _ ] -> opens "with-loop"
  | Sites.MatrixMap _, [ For _ ] -> opens "matrixMap"
  | _ -> None

(* The region a [ParFor] an earlier pass made is. *)
let par_for_region (l : loop) = { what = "parallel loop"; at = l.prov }

(* [inside outer r]: the outermost region is the one that pays for entry. *)
let inside outer r = match outer with Some _ -> outer | None -> r

(* Every call in [body] — [Call] expressions and Cilk [Spawn]s — paired
   with the outermost region around it.  A spawn is a call, not a
   region. *)
let calls_in body =
  let acc = ref [] in
  let exprs region =
    List.iter (fun e ->
        ignore
          (map_expr
             (function
               | Call (f, _) as c ->
                   acc := (f, region) :: !acc;
                   c
               | c -> c)
             e))
  in
  let rec stmts region = List.iter (stmt region)
  and stmt region = function
    | Decl (_, _, e) | Return e -> exprs region (Option.to_list e)
    | Assign (_, e) | ExprS e | RcInc e | RcDec e -> exprs region [ e ]
    | MSetFlat (a, b, c) -> exprs region [ a; b; c ]
    | VecScatter (a, b, c, d) -> exprs region [ a; b; c; d ]
    | MWrite (a, b) -> exprs region [ a; b ]
    | If (c, a, b) ->
        exprs region [ c ];
        stmts region a;
        stmts region b
    | While (c, b) ->
        exprs region [ c ];
        stmts region b
    | For l ->
        exprs region [ l.bound ];
        stmts region l.body
    | ParFor l ->
        exprs region [ l.bound ];
        stmts (inside region (Some (par_for_region l))) l.body
    | Spawn (_, f, args) ->
        acc := (f, region) :: !acc;
        exprs region args
    | Block b | Located (_, b) -> stmts region b
    | Site (Sites.AutoPar { kind; span }, b) ->
        stmts (inside region (site_region kind span b)) b
    | Site (_, b) -> stmts region b
    | Break | Continue | Comment _ | Sync | Check _ -> ()
  in
  stmts None body;
  List.rev !acc

(** [parallel_context p] — the functions that only ever run inside a
    parallel region, each with the region that reaches it.  A function
    other than [p.main] is in parallel context when it has a call site
    and every call site lies inside a region or inside a function in
    parallel context.  This is the greatest fixpoint, so recursion reached
    only from a region counts; of it, only the functions some region
    reaches are returned (the rest are dead cycles). *)
let parallel_context (p : program) : (string * region) list =
  let sites =
    List.concat_map
      (fun fn ->
        List.map (fun (callee, region) -> (callee, (fn.f_name, region)))
          (calls_in fn.f_body))
      p.funcs
  in
  let callers f =
    List.filter_map (fun (c, s) -> if c = f then Some s else None) sites
  in
  let rec gfp set =
    let set' =
      List.filter
        (fun f ->
          List.for_all
            (fun (caller, region) -> region <> None || List.mem caller set)
            (callers f))
        set
    in
    if List.length set' = List.length set then set else gfp set'
  in
  let set =
    gfp
      (List.filter_map
         (fun fn ->
           if fn.f_name <> p.main && callers fn.f_name <> [] then Some fn.f_name
           else None)
         p.funcs)
  in
  (* Name each function's region: its first call site's own region, else
     that of a caller already named. *)
  let rec name named =
    let step =
      List.filter_map
        (fun f ->
          if List.mem_assoc f named then None
          else
            List.find_map
              (fun (caller, region) ->
                Option.map (fun r -> (f, r))
                  (inside region (List.assoc_opt caller named)))
              (callers f))
        set
    in
    if step = [] then named else name (named @ step)
  in
  name []

(* The remark for one [AutoPar] site.  [promotable]: a fold-free site
   around one loop; [region]: the region it already runs inside. *)
let report ~enabled ~region ~promotable kind span =
  let emit ~kind ?details fmt = R.emit ~pass:"auto-par" ~kind ~span ?details fmt in
  let subject =
    match kind with
    | Sites.Elemwise -> "elementwise loop"
    | Sites.MatmulRow -> "matrix-multiplication row loop"
    | Sites.WithGen -> "with-loop nest"
    | Sites.FoldAcc -> "fold nest"
    | Sites.MatrixMap _ -> "matrixMap iteration space"
  in
  match (kind, region) with
  | Sites.MatrixMap _, _ when not enabled ->
      emit ~kind:R.Skipped
        "auto-parallelization disabled: matrixMap slices run sequentially"
  | _ when not enabled ->
      emit ~kind:R.Skipped "auto-parallelization disabled: %s stays sequential"
        subject
  | Sites.FoldAcc, _ ->
      emit ~kind:R.Missed
        ~details:
          [ ("demoted", "every iteration updates the single accumulator") ]
        "fold with-loop demoted to sequential: iterations race on the fold \
         accumulator"
  | _ when not promotable ->
      emit ~kind:R.Missed "%s has no single outer loop to parallelize" subject
  | _, Some r ->
      if R.on () then
        let r = describe r in
        emit ~kind:R.Missed ~details:[ ("region", r) ]
          "%s stays sequential: runs inside the %s" subject r
  | Sites.Elemwise, None ->
      emit ~kind:R.Applied
        "promoted elementwise loop to a parallel region (each index writes \
         one output element)"
  | Sites.MatmulRow, None ->
      emit ~kind:R.Applied
        "promoted matrix-multiplication row loop to a parallel region"
  | Sites.WithGen, None ->
      emit ~kind:R.Applied
        "promoted with-loop's outermost generator loop to a parallel region"
  | Sites.MatrixMap fname, None ->
      emit ~kind:R.Applied
        "promoted matrixMap iteration space to a parallel region (lifted '%s' \
         runs per slice on the pool)"
        fname

(** Auto-parallelization: promote recognised sequential loop shapes to
    [ParFor] regions (§III-C).  Folds never promote — every iteration
    updates the single accumulator.  Nor does a loop that already runs
    inside a region: one nested in another promoted site, or any loop of
    a function in {!parallel_context}.  A nested region would only pay
    for entering it. *)
let auto_par : Cir.Pass.t =
  {
    Cir.Pass.name = "auto-par";
    default_on = false;
    managed_snapshot = true;
    run =
      (fun ctx ~enabled p ->
        if enabled then ctx.Cir.Pass.auto_par_ran <- true;
        let context = if enabled then parallel_context p else [] in
        let rec rewrite region stmts = List.concat_map (stmt region) stmts
        and stmt region = function
          | Site (Sites.AutoPar { kind; span }, payload) -> (
              (* inner sites report first, as in [Cir.Pass.rewrite_sites] *)
              let own = site_region kind span payload in
              let payload = rewrite (inside region own) payload in
              report ~enabled ~region ~promotable:(own <> None) kind span;
              match payload with
              | [ For l ] when enabled && region = None && own <> None ->
                  [ ParFor l ]
              | payload -> payload)
          | If (c, a, b) -> [ If (c, rewrite region a, rewrite region b) ]
          | While (c, b) -> [ While (c, rewrite region b) ]
          | For l -> [ For { l with body = rewrite region l.body } ]
          | ParFor l ->
              let region = inside region (Some (par_for_region l)) in
              [ ParFor { l with body = rewrite region l.body } ]
          | Block b -> [ Block (rewrite region b) ]
          | Located (sp, b) -> [ Located (sp, rewrite region b) ]
          | Site (site, b) -> [ Site (site, rewrite region b) ]
          | s -> [ s ]
        in
        let in_function fn =
          { fn with f_body = rewrite (List.assoc_opt fn.f_name context) fn.f_body }
        in
        { p with funcs = List.map in_function p.funcs });
  }

(** In registration order — the default pipeline order. *)
let all = [ fuse; copy_elim; auto_par ]
