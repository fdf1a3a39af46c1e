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
                    Support.Telemetry.bump Lower.c_fused;
                    substs := (copy, result) :: !substs;
                    Some []
                  end
                  else begin
                    R.emit ~pass:"fuse" ~kind:R.Missed ~span
                      ~details:
                        [
                          ( "blocking",
                            "library-style evaluation requested (--no-fuse)" );
                        ]
                      "with-loop paid a library-style result copy (fusion \
                       disabled)";
                    Support.Telemetry.bump Lower.c_library_copies;
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
                        Support.Telemetry.bump Lower.c_identity_slices;
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
                        Support.Telemetry.bump Lower.c_slice_copies;
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

(** Auto-parallelization: promote recognised sequential loop shapes to
    [ParFor] regions (§III-C).  Folds never promote — every iteration
    updates the single accumulator. *)
let auto_par : Cir.Pass.t =
  {
    Cir.Pass.name = "auto-par";
    default_on = false;
    managed_snapshot = true;
    run =
      (fun ctx ~enabled p ->
        if enabled then ctx.Cir.Pass.auto_par_ran <- true;
        Cir.Pass.rewrite_sites
          (fun site payload ->
            match site with
            | Sites.AutoPar { kind; span } -> (
                let promote () =
                  match payload with
                  | [ For l ] -> [ ParFor l ]
                  | _ -> payload
                in
                match kind with
                | Sites.Elemwise ->
                    if enabled then begin
                      R.emit ~pass:"auto-par" ~kind:R.Applied ~span
                        "promoted elementwise loop to a parallel region \
                         (each index writes one output element)";
                      Some (promote ())
                    end
                    else begin
                      R.emit ~pass:"auto-par" ~kind:R.Skipped ~span
                        "auto-parallelization disabled: elementwise loop \
                         stays sequential";
                      Some payload
                    end
                | Sites.MatmulRow ->
                    if enabled then begin
                      R.emit ~pass:"auto-par" ~kind:R.Applied ~span
                        "promoted matrix-multiplication row loop to a \
                         parallel region";
                      Some (promote ())
                    end
                    else begin
                      R.emit ~pass:"auto-par" ~kind:R.Skipped ~span
                        "auto-parallelization disabled: \
                         matrix-multiplication row loop stays sequential";
                      Some payload
                    end
                | Sites.WithGen ->
                    if not enabled then begin
                      R.emit ~pass:"auto-par" ~kind:R.Skipped ~span
                        "auto-parallelization disabled: with-loop nest \
                         stays sequential";
                      Some payload
                    end
                    else (
                      match payload with
                      | [ For l ] ->
                          R.emit ~pass:"auto-par" ~kind:R.Applied ~span
                            "promoted with-loop's outermost generator loop \
                             to a parallel region";
                          Some [ ParFor l ]
                      | _ ->
                          R.emit ~pass:"auto-par" ~kind:R.Missed ~span
                            "with-loop has no generator loop nest to \
                             parallelize";
                          Some payload)
                | Sites.FoldAcc ->
                    if enabled then
                      R.emit ~pass:"auto-par" ~kind:R.Missed ~span
                        ~details:
                          [
                            ( "demoted",
                              "every iteration updates the single \
                               accumulator" );
                          ]
                        "fold with-loop demoted to sequential: iterations \
                         race on the fold accumulator"
                    else
                      R.emit ~pass:"auto-par" ~kind:R.Skipped ~span
                        "auto-parallelization disabled: fold nest stays \
                         sequential";
                    Some payload
                | Sites.MatrixMap fname ->
                    if enabled then begin
                      R.emit ~pass:"auto-par" ~kind:R.Applied ~span
                        "promoted matrixMap iteration space to a parallel \
                         region (lifted '%s' runs per slice on the pool)"
                        fname;
                      Some (promote ())
                    end
                    else begin
                      R.emit ~pass:"auto-par" ~kind:R.Skipped ~span
                        "auto-parallelization disabled: matrixMap slices \
                         run sequentially";
                      Some payload
                    end)
            | _ -> None)
          p);
  }

(** In registration order — the default pipeline order. *)
let all = [ fuse; copy_elim; auto_par ]
