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

(* --- with-loop folding (SAC, Scholz IFL 1998) -------------------------------

   A [Producer] site's temporary — a range [lo::hi], or an elementwise
   result — is folded into the one loop that reads it: that loop
   evaluates the element expression at its own index, and the
   temporary's allocation, fill loop and release go.  Its extents replace
   every [dimSize]/[mm_size] of it, so each check that named its size
   names the extent instead. *)

(* The payload's parts: the temporary's extents, and its fill loop's
   index and element expression; [None] once an earlier pass reshaped
   the loop. *)
let producer_parts tmp payload =
  let rec fill = function
    | [ (For l | ParFor l) ] -> Some l
    | [ Site (_, b) ] -> fill b
    | _ -> None
  in
  match payload with
  | Decl (CMat _, v, Some (MAlloc { dims = extents; _ })) :: rest
    when v = tmp -> (
      match fill rest with
      | Some { index; body = [ MSetFlat (Var v, Var i, elem) ]; _ }
        when v = tmp && i = index ->
          Some (extents, index, elem)
      | _ -> None)
  | _ -> None

(* Statements in execution order, through the wrappers that are not
   scopes. *)
let rec flatten stmts =
  List.concat_map
    (function Located (_, b) | Site (_, b) -> flatten b | s -> [ s ])
    stmts

(* What statement [s] does with the temporary [tmp], of rank [rank]:
   the index of each element read, its releases, the statements that
   retain or rebind it, the occurrences that are none of a read, an
   extent ([dimSize]/[mm_size]) or a release, and all its occurrences. *)
type census = {
  reads : expr list;
  releases : int;
  unfresh : int;
  others : int;
  total : int;
}

let census ~rank tmp s =
  let reads = ref [] and releases = ref 0 and unfresh = ref 0 in
  let known = ref 0 and total = ref 0 in
  iter_stmts
    (function
      | Var v when v = tmp -> incr total
      | MGetFlat (Var v, i) when v = tmp ->
          reads := i :: !reads;
          incr known
      | MDim (Var v, Int d) when v = tmp && d >= 0 && d < rank -> incr known
      | MSize (Var v) when v = tmp -> incr known
      | _ -> ())
    (function
      | RcDec (Var v) when v = tmp -> incr releases
      | (RcInc (Var v) | Assign (LVar v, _) | Decl (_, v, _)) when v = tmp ->
          incr unfresh
      | _ -> ())
    [ s ];
  {
    reads = List.rev !reads;
    releases = !releases;
    unfresh = !unfresh;
    others = !total - !known - !releases;
    total = !total;
  }

(* The variables the expressions [es] read, and the matrices whose
   elements they read. *)
let reads_of es =
  let vars = ref [] and mats = ref [] in
  List.iter
    (iter_expr (function
      | Var v -> vars := v :: !vars
      | MGetFlat (Var m, _) | VecGather (Var m, _, _) -> mats := m :: !mats
      | _ -> ()))
    es;
  (!vars, !mats)

(* Why [region] may change what the element expression and the extents
   read ([vars], and the matrices [mats] whose elements it reads) before
   the reader evaluates them; [None] when it cannot.  [where] places the
   region: before the loop that reads the temporary, or that loop and
   the statements after it that still read its extent.  A write to a
   matrix allocated in the region ([fresh]) cannot reach what the
   expression reads; any other write, release or call may, through a
   shared buffer. *)
let interference ~vars ~mats ~fresh ~where region =
  let why = ref None in
  let note fmt =
    Printf.ksprintf (fun s -> if !why = None then why := Some s) fmt
  in
  let binds x =
    if List.mem x vars then
      note "'%s', which it reads, is assigned %s" x where
  in
  let shared = function Var w -> not (List.mem w fresh) | _ -> true in
  iter_stmts
    (function
      | Call (f, _) when mats <> [] ->
          note "the call to '%s' %s may write a matrix it reads" f where
      | _ -> ())
    (function
      | Decl (_, x, _) | Assign (LVar x, _) | Spawn (Some (LVar x), _, _) ->
          binds x
      | For l | ParFor l -> binds l.index
      | (MSetFlat (m, _, _) | VecScatter (m, _, _, _))
        when mats <> [] && shared m ->
          note "a matrix written %s may share a buffer with one it reads" where
      | RcDec m when mats <> [] && shared m ->
          note "a matrix released %s may share a buffer with one it reads" where
      | Spawn (_, f, _) when mats <> [] ->
          note "the spawn of '%s' %s may write a matrix it reads" f where
      | Sync when vars <> [] -> note "a sync %s may assign what it reads" where
      | _ -> ())
    region;
  !why

(* The verdict on folding producer [tmp], whose [payload] is followed by
   [rest] in its block: [Ok (reader's span, rewrite of rest)] or [Error
   why]. *)
let fold_verdict ~tmp ~traps payload rest =
  match producer_parts tmp payload with
  | None -> Error "an earlier pass reshaped the loop that fills it"
  | Some _ when traps ->
      Error
        "an element may fail (integer '/' or '%'), so each is computed where \
         the source evaluates it"
  | Some (extents, index, elem) -> (
      let rank = List.length extents in
      let flat = Array.of_list (flatten rest) in
      let cs = Array.map (census ~rank tmp) flat in
      let sum f = Array.fold_left (fun n c -> n + f c) 0 cs in
      let slice lo hi = Array.to_list (Array.sub flat lo (hi - lo)) in
      let readers =
        List.filter
          (fun j -> cs.(j).reads <> [])
          (List.init (Array.length cs) Fun.id)
      in
      let bound_to =
        List.find_map
          (function
            | (Decl (_, x, Some (Var v)) | Assign (LVar x, Var v)) when v = tmp
              ->
                Some x
            | _ -> None)
          (Array.to_list flat)
      in
      match (readers, bound_to) with
      | _ when sum (fun c -> c.unfresh) > 0 ->
          Error "it is retained or reassigned, so it is not a fresh temporary"
      | _, Some x ->
          Error (Printf.sprintf "it is bound to '%s', not read by one loop" x)
      | [], None -> Error "no loop reads it element by element"
      | _ :: _ :: _, None ->
          Error
            (Printf.sprintf "%d statements read it, not one loop"
               (List.length readers))
      | [ j ], None -> (
          match flat.(j) with
          | For l | ParFor l -> (
              let before = slice 0 j in
              let is_size e =
                e = MSize (Var tmp)
                || e = size_of extents
                || (rank = 1 && e = MDim (Var tmp, Int 0))
              in
              (* or, for a vector, a check before the loop made its bound
                 the vector's extent *)
              let bounded =
                is_size l.bound
                || rank = 1
                   && List.exists
                        (function
                          | Check (Same { a; b; _ }) ->
                              (is_size a && b = l.bound)
                              || (is_size b && a = l.bound)
                          | _ -> false)
                        before
              in
              let last_use = ref j in
              Array.iteri
                (fun k c -> if c.total > c.releases then last_use := k)
                cs;
              let after = slice j (max j !last_use + 1) in
              let vars, mats = reads_of (elem :: extents) in
              let vars = List.filter (fun v -> v <> index) vars in
              let fresh =
                tmp
                :: List.filter_map
                     (function
                       | Decl (CMat _, v, Some (MAlloc _)) -> Some v
                       | _ -> None)
                     (flatten (before @ after))
              in
              let at_index = function Var k -> k = l.index | _ -> false in
              if sum (fun c -> c.others) > 0 then
                Error
                  "it is used other than by one loop's element reads, its \
                   extent or its release"
              else if not (List.for_all at_index cs.(j).reads) then
                Error
                  "the loop that reads it does so at an index other than its \
                   own"
              else if not bounded then
                Error "the loop that reads it is not bounded by its extent"
              else if Array.exists (fun c -> c.releases > 0) (Array.sub cs 0 j)
              then Error "it is released before the loop that reads it"
              else
                match
                  ( interference ~vars ~mats ~fresh
                      ~where:"before the loop that reads it" before,
                    interference ~vars ~mats ~fresh
                      ~where:"in the loop that reads it" after )
                with
                | Some why, _ | None, Some why -> Error why
                | None, None ->
                    let fe = function
                      | MGetFlat (Var v, (Var _ as k)) when v = tmp ->
                          subst_var_expr index k elem
                      | MDim (Var v, Int d) when v = tmp -> List.nth extents d
                      | MSize (Var v) when v = tmp -> size_of extents
                      | e -> e
                    in
                    let rest =
                      map_stmts fe Fun.id rest
                      |> concat_map_stmts (function
                           | RcDec (Var v) when v = tmp -> []
                           | Located (_, []) -> []
                           | s -> [ s ])
                    in
                    Ok (l.prov, rest))
          | _ -> Error "it is read element by element outside a loop"))

(* Fold every [Producer] site of one function body that qualifies, in
   program order, so a chain folds link by link; splice back the rest. *)
let fold_producers remarks ~enabled body =
  let decide ~outer tmp what traps span payload rest =
    let subject =
      match what with
      | Sites.Range -> "range"
      | Sites.Elementwise -> "elementwise result"
    in
    if not enabled then begin
      R.emit remarks ~pass:"fuse" ~kind:R.Skipped ~span
        "with-loop folding disabled: the %s keeps its temporary" subject;
      (payload, rest)
    end
    else
      match
        if List.exists (stmts_use_var tmp) outer then
          Error "it is used outside the statement that computes it"
        else fold_verdict ~tmp ~traps payload rest
      with
      | Ok (reader, rest) ->
          let details =
            match reader with
            | Some sp ->
                [ ("read by", "loop at " ^ Support.Pos.span_to_string sp) ]
            | None -> []
          in
          R.emit remarks ~pass:"fuse" ~kind:R.Applied ~span ~details
            "%s folded into the one loop that reads it: no temporary" subject;
          ([], rest)
      | Error why ->
          R.emit remarks ~pass:"fuse" ~kind:R.Missed ~span
            "%s keeps its temporary: %s" subject why;
          (payload, rest)
  in
  (* [outer]: the statements after each site wrapping the current block.
     Nothing after a C scope ([If], a loop, [Block]) can name a temporary
     declared in it, and lowering releases a statement's temporaries
     inside its [Located], so only these may name the producer's. *)
  let rec block outer = function
    | [] -> []
    | Site (Sites.Producer { tmp; what; traps; span }, payload) :: rest ->
        let kept, rest = decide ~outer tmp what traps span payload rest in
        kept @ block outer rest
    | s :: rest ->
        let scope = block [] in
        let s =
          match s with
          | If (c, a, b) ->
              let a = scope a in
              If (c, a, scope b)
          | While (c, b) -> While (c, scope b)
          | For l -> For { l with body = scope l.body }
          | ParFor l -> ParFor { l with body = scope l.body }
          | Block b -> Block (scope b)
          | Located (sp, b) -> Located (sp, scope b)
          | Site (site, b) -> Site (site, block (rest :: outer) b)
          | s -> s
        in
        s :: block outer rest
  in
  block [] body

(** With-loop fusion: the result of a with-loop feeds its consumer
    directly instead of being evaluated into a temporary that is then
    copied (the library-style baseline the payload holds); and with-loop
    folding: a range or elementwise temporary that exactly one later loop
    reads is computed inside that loop instead. *)
let fuse : Cir.Pass.t =
  {
    Cir.Pass.name = "fuse";
    default_on = true;
    managed_snapshot = true;
    run =
      (fun ctx ~enabled p ->
        let remarks = ctx.Cir.Pass.remarks in
        let substs = ref [] in
        let p =
          Cir.Pass.rewrite_sites
            (fun site payload ->
              match site with
              | Sites.FuseCopy { result; copy; span } ->
                  if enabled then begin
                    R.emit remarks ~pass:"fuse" ~kind:R.Applied ~span
                      "with-loop result feeds its consumer directly: no \
                       temporary copy";
                    substs := (copy, result) :: !substs;
                    Some []
                  end
                  else begin
                    R.emit remarks ~pass:"fuse" ~kind:R.Missed ~span
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
        let p = apply_substs !substs p in
        let fold fn =
          { fn with f_body = fold_producers remarks ~enabled fn.f_body }
        in
        { p with funcs = List.map fold p.funcs });
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

(* --- matrixMap fibers in place ----------------------------------------------

   A lifted matrixMap body copies each fiber into a fresh matrix and the
   mapped function's result back into the output ({!Sites.MapFiber},
   {!Sites.MapResult}).  Where the fiber lies in one piece, the copy in
   becomes a borrowed view of it when the function only reads its
   parameter, and the copy out goes when the function returns, on every
   path, one matrix it allocates itself with its parameter's extents: the
   function is rewritten to take a view of the output fiber and write
   that matrix there instead (SAC's destination passing of with-loop
   results).  Every verdict is taken on the program as it stands before
   any of these rewrites. *)

(* Does a statement of [body] bind [x] anew? *)
let rebinds x body =
  let found = ref false in
  iter_stmts ignore
    (function
      | Decl (_, v, _) | Assign (LVar v, _) | Spawn (Some (LVar v), _, _)
        when v = x ->
          found := true
      | (For l | ParFor l) when l.index = x -> found := true
      | _ -> ())
    body;
  !found

(* Why function [fname] does more than read the matrix [what] names:
   statement [s] uses it, and [why] is a callee's reason when that use
   is an argument. *)
let misuse fname what s why =
  let say fmt = Printf.sprintf fmt fname what in
  match (why, s) with
  | Some (g, why), _ -> say "'%s' passes %s to '%s': %s" g why
  | None, Return _ -> say "'%s' returns %s"
  | None, (RcInc _ | RcDec _) -> say "'%s' retains or releases %s"
  | None, (Decl (_, v, _) | Assign (LVar v, _)) ->
      say "'%s' stores %s in '%s'" v
  | None, (MSetFlat _ | VecScatter _) -> say "'%s' writes %s"
  | None, _ -> say "'%s' uses %s other than to read it"

(* Whether each use of the names [xs] in [body] only reads their matrix
   — an element, an extent, a check, a writeMatrix, or an argument its
   callee only reads — or is one of the [extra s] uses statement [s] is
   allowed besides.  Else the first statement with another use, with the
   callee's reason when that use is an argument. *)
let rec read_uses p ~seen ~extra xs body =
  let is_x = function Var v -> List.mem v xs | _ -> false in
  let checks_x = function
    | Bound { m; _ } | Null { m; _ } | Dim { m; _ } -> is_x m
    | Same _ -> false
  in
  let bad = ref None in
  iter_stmts ignore
    (fun s ->
      if !bad = None then begin
        let total = ref 0 and ok = ref (extra s) and why = ref None in
        let use = function
          | Var v when List.mem v xs -> incr total
          | (MGetFlat (a, _) | MDim (a, _) | MSize a | VecGather (a, _, _))
            when is_x a ->
              incr ok
          | Checked (cs, _) ->
              ok := !ok + List.length (List.filter checks_x cs)
          | Call (g, args) ->
              List.iteri
                (fun j a ->
                  if is_x a then
                    match param_reads p ~seen g j with
                    | Ok () -> incr ok
                    | Error w -> why := Some (g, w))
                args
          | _ -> ()
        in
        List.iter (iter_expr use) (own_exprs s);
        (match s with
        | Check c when checks_x c -> incr ok
        | MWrite (_, a) when is_x a -> incr ok
        | _ -> ());
        if !ok < !total then bad := Some (s, !why)
      end)
    body;
  match !bad with None -> Ok () | Some b -> Error b

(* Does function [g] only read its [j]-th parameter?  A recursive call
   proves nothing. *)
and param_reads p ~seen g j =
  match List.find_opt (fun f -> f.f_name = g) p.funcs with
  | None -> Error (Printf.sprintf "'%s' is not a function of the program" g)
  | Some _ when List.mem g seen -> Error (Printf.sprintf "'%s' is recursive" g)
  | Some f -> (
      match List.nth_opt f.f_params j with
      | Some (CMat _, x) -> (
          let what = Printf.sprintf "its parameter '%s'" x in
          if rebinds x f.f_body then
            Error (Printf.sprintf "'%s' rebinds %s" g what)
          else
            match
              read_uses p ~seen:(g :: seen) ~extra:(fun _ -> 0) [ x ] f.f_body
            with
            | Ok () -> Ok ()
            | Error (s, why) -> Error (misuse g what s why))
      | _ -> Error (Printf.sprintf "'%s' takes no matrix there" g))

(* The one matrix [f] returns on every path, when [f] allocates it
   itself, once, with its parameter's extents, and otherwise only writes
   and reads it: [Ok (a, alloc, r)], [a] being the declaration that
   allocates it with [alloc] and [r] the name [f] returns ([a] itself,
   or a name bound once to [a]); else the condition that fails. *)
let own_result p (f : func) =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* x =
    match f.f_params with
    | [ (CMat _, x) ] -> Ok x
    | _ -> fail "'%s' does not take one matrix" f.f_name
  in
  let returns = ref [] in
  iter_stmts ignore
    (function Return e -> returns := e :: !returns | _ -> ())
    f.f_body;
  let* r =
    match List.sort_uniq compare !returns with
    | [ Some (Var r) ] when ends_with_return f.f_body -> Ok r
    | _ -> fail "'%s' does not return one named matrix on every path" f.f_name
  in
  (* [v]'s initialiser, when [v] is declared once, and whether that is at
     the top level (inside no loop, branch or block), so once per call *)
  let ds = ref [] in
  iter_stmts ignore
    (function Decl (_, v, e) -> ds := (v, e) :: !ds | _ -> ())
    f.f_body;
  let top = flatten f.f_body in
  let decl v =
    match List.filter (fun (n, _) -> n = v) !ds with
    | [ (_, init) ] ->
        let here = function Decl (_, n, _) -> n = v | _ -> false in
        Some (init, List.exists here top)
    | _ -> None
  in
  let* a, (alloc, dims) =
    match decl r with
    | Some (Some (MAlloc { dims; _ } as al), true) -> Ok (r, (al, dims))
    | Some (Some (Var a), true) -> (
        match decl a with
        | Some (Some (MAlloc { dims; _ } as al), true) -> Ok (a, (al, dims))
        | _ -> fail "'%s' returns '%s', which it does not allocate" f.f_name r)
    | _ -> fail "'%s' returns '%s', which it does not allocate once" f.f_name r
  in
  let assigned v =
    let found = ref false in
    iter_stmts ignore
      (function
        | Assign (LVar w, _) | Spawn (Some (LVar w), _, _) when w = v ->
            found := true
        | _ -> ())
      f.f_body;
    !found
  in
  (* the extent of [x] in dimension [d]: dimSize(x, d), or an int bound
     once to it *)
  let extent d = function
    | MDim (Var v, Int d') -> v = x && d' = d
    | Var n -> (
        (not (assigned n))
        &&
        match decl n with
        | Some (Some (MDim (Var v, Int d')), _) -> v = x && d' = d
        | _ -> false)
    | _ -> false
  in
  let rec extents d = function
    | [] -> Ok ()
    | e :: es when extent d e -> extents (d + 1) es
    | _ -> fail "extent %d of '%s' is not provably dimSize(%s, %d)" d r x d
  in
  let* () =
    if rebinds x f.f_body then
      fail "'%s' rebinds its parameter '%s'" f.f_name x
    else if assigned r || assigned a then fail "'%s' assigns '%s'" f.f_name r
    else extents 0 dims
  in
  let names = List.sort_uniq compare [ r; a ] in
  let extra = function
    | MSetFlat (Var v, _, _) | VecScatter (Var v, _, _, _)
      when List.mem v names ->
        1
    | Decl (_, v, Some (Var w)) when v = r && w = a && a <> r -> 1
    | Return (Some (Var v)) when v = r -> 1
    | _ -> 0
  in
  match read_uses p ~seen:[ f.f_name ] ~extra names f.f_body with
  | Ok () -> Ok (a, alloc, r)
  | Error (s, why) ->
      let what = Printf.sprintf "'%s', the matrix it returns" r in
      Error (misuse f.f_name what s why)

(* The parameter the view of the output fiber arrives in. *)
let dst = "__mm_dst"

(* [f] rewritten to write the matrix it returns into the view [dst]: the
   allocation [alloc] of [a] becomes [dst], zero-filled when the
   allocation was, and each [return r] a plain return. *)
let write_into (f : func) (a, alloc, r) =
  let elem, zeroed, k =
    match alloc with
    | MAlloc { elem; zeroed; dims } -> (elem, zeroed, List.length dims)
    | _ -> invalid_arg "Passes.write_into"
  in
  let zero =
    match elem with
    | Runtime.Ndarray.EFloat -> Float 0.
    | Runtime.Ndarray.EInt -> Int 0
    | Runtime.Ndarray.EBool -> Bool false
  in
  let i = "__mm_fill" in
  let fill =
    if zeroed then
      [
        For
          (mk_loop ~index:i ~bound:(MSize (Var a))
             [ MSetFlat (Var a, Var i, zero) ]);
      ]
    else []
  in
  {
    f with
    f_params = f.f_params @ [ (CMat (elem, k), dst) ];
    f_ret = CVoid;
    f_body =
      concat_map_stmts
        (function
          | Decl (t, v, Some (MAlloc _)) when v = a ->
              Decl (t, v, Some (Var dst)) :: fill
          | Return (Some (Var v)) when v = r -> [ Return None ]
          | s -> [ s ])
        f.f_body;
  }

(* How many calls of function [g] there are in [p], and how many of them
   a [MapResult] site with an output fiber in one piece makes. *)
let calls p =
  let all = ref [] and mapped = ref [] in
  List.iter
    (fun f ->
      iter_stmts
        (function Call (g, _) -> all := g :: !all | _ -> ())
        (function
          | Site (Sites.MapResult { fname; at = Some _; _ }, _) ->
              mapped := fname :: !mapped
          | Spawn (_, g, _) -> all := g :: !all
          | _ -> ())
        f.f_body)
    p.funcs;
  let count g l = List.length (List.filter (String.equal g) l) in
  fun g -> (count g !all, count g !mapped)

let strided =
  "its fibers are strided: the mapped dimensions are not the last ones, in \
   order"

(* The verdict on writing [fname]'s results in place: every call of it
   must be one that can pass it a view of its output fiber. *)
let result_verdict p calls fname =
  match List.find_opt (fun f -> f.f_name = fname) p.funcs with
  | None ->
      Error (Printf.sprintf "'%s' is not a function of the program" fname)
  | Some _ when fname = p.main ->
      Error (Printf.sprintf "'%s' is the entry function" fname)
  | Some f ->
      let all, mapped = calls fname in
      if all > mapped then
        Error
          (Printf.sprintf
             "'%s' is also called where its result cannot be written in place"
             fname)
      else own_result p f

(* Copy elimination's matrixMap sites, over the whole program. *)
let fibers_in_place remarks ~enabled (p : program) : program =
  let calls = calls p in
  let verdicts = Hashtbl.create 4 in
  let result_verdict fname =
    match Hashtbl.find_opt verdicts fname with
    | Some v -> v
    | None ->
        let v = result_verdict p calls fname in
        Hashtbl.add verdicts fname v;
        v
  in
  let views = ref [] and into = ref [] in
  let view ty v (at : Sites.place) dims =
    let elem =
      match ty with CMat (e, _) -> e | _ -> invalid_arg "Passes.view"
    in
    let at = Var at.buf and offset = at.offset in
    Decl (ty, v, Some (MView { elem; m = at; offset; dims }))
  in
  (* [at], once [verdict] holds for the fiber placed there *)
  let placed at verdict =
    match at with
    | None -> Error strided
    | Some at -> Result.map (fun v -> (at, v)) (verdict ())
  in
  let site site payload =
    match (site, payload) with
    | Sites.MapFiber { fname; span; _ }, _ when not enabled ->
        R.emit remarks ~pass:"copy-elim" ~kind:R.Skipped ~span
          "copy elimination disabled: each fiber is copied for '%s'" fname;
        Some payload
    | Sites.MapResult { fname; span; _ }, _ when not enabled ->
        R.emit remarks ~pass:"copy-elim" ~kind:R.Skipped ~span
          "copy elimination disabled: each result of '%s' is copied into the \
           output"
          fname;
        Some payload
    | Sites.MapFiber { fname; slice; at; extents; span }, Decl (ty, _, _) :: _
      -> (
        match placed at (fun () -> param_reads p ~seen:[] fname 0) with
        | Ok (at, ()) ->
            R.emit remarks ~pass:"copy-elim" ~kind:R.Applied ~span
              "matrixMap fiber passed in place: '%s' only reads it" fname;
            views := slice :: !views;
            Some [ view ty slice at extents ]
        | Error why ->
            R.emit remarks ~pass:"copy-elim" ~kind:R.Missed ~span
              "matrixMap fiber copied for '%s': %s" fname why;
            Some payload)
    | ( Sites.MapResult { fname; slice; out; at; extents; span },
        Decl (ty, _, _) :: _ ) -> (
        match placed at (fun () -> result_verdict fname) with
        | Ok (at, v) ->
            R.emit remarks ~pass:"copy-elim" ~kind:R.Applied ~span
              "matrixMap result written in place: '%s' fills the output fiber \
               itself"
              fname;
            if not (List.mem_assoc fname !into) then
              into := (fname, v) :: !into;
            Some
              [
                view ty out at extents;
                ExprS (Call (fname, [ Var slice; Var out ]));
              ]
        | Error why ->
            R.emit remarks ~pass:"copy-elim" ~kind:R.Missed ~span
              "matrixMap result of '%s' copied into the output: %s" fname why;
            Some payload)
    | _ -> None
  in
  let in_function fn =
    let body = Cir.Pass.rewrite_sites_in site fn.f_body in
    (* a view is never released *)
    let body =
      concat_map_stmts
        (function RcDec (Var v) when List.mem v !views -> [] | s -> [ s ])
        body
    in
    { fn with f_body = body }
  in
  let funcs = List.map in_function p.funcs in
  let rewrite f =
    match List.assoc_opt f.f_name !into with
    | Some v -> write_into f v
    | None -> f
  in
  { p with funcs = List.map rewrite funcs }

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
        let remarks = ctx.Cir.Pass.remarks in
        let in_function fn =
          let aliases = ref [] and fibers = ref [] in
          let body =
            Cir.Pass.rewrite_sites_in
              (fun site payload ->
                match site with
                | Sites.SliceAlias { base; slice; shape; safe; why; span } -> (
                    match shape with
                    | Sites.Identity when enabled && safe ->
                        R.emit remarks ~pass:"copy-elim" ~kind:R.Applied ~span
                          ~details:[ ("alias", why) ]
                          "identity slice aliased to its base: copy elided";
                        aliases := (slice, base) :: !aliases;
                        Some (if ctx.Cir.Pass.rc then [ RcInc (Var base) ] else [])
                    | Sites.Fiber f when enabled && safe ->
                        R.emit remarks ~pass:"copy-elim" ~kind:R.Applied
                          ~span:f.decl
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
                            R.emit remarks ~pass:"copy-elim" ~kind:R.Skipped
                              ~span
                              "copy elimination disabled: identity slice \
                               allocates a copy"
                        | Sites.Identity ->
                            R.emit remarks ~pass:"copy-elim" ~kind:R.Missed ~span
                              ~details:[ ("alias", why) ]
                              "identity slice kept its copy: %s" why
                        | Sites.Fiber f when not enabled ->
                            R.emit remarks ~pass:"copy-elim" ~kind:R.Skipped
                              ~span:f.decl ~details:[ ("slice", f.var) ]
                              "copy elimination disabled: slice '%s' allocates \
                               a copy"
                              f.var
                        | Sites.Fiber f ->
                            R.emit remarks ~pass:"copy-elim" ~kind:R.Missed
                              ~span:f.decl ~details:[ ("slice", f.var) ]
                              "slice copy '%s' kept: %s" f.var why
                        | Sites.Other ->
                            R.emit remarks ~pass:"copy-elim" ~kind:R.Missed ~span
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
        fibers_in_place remarks ~enabled
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

(* The remark for one [AutoPar] site, into [remarks].  [promotable]: a
   fold-free site around one loop; [region]: the region it already runs
   inside. *)
let report remarks ~enabled ~region ~promotable kind span =
  let emit ~kind ?details fmt =
    R.emit remarks ~pass:"auto-par" ~kind ~span ?details fmt
  in
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
      if remarks <> None then
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
              report ctx.Cir.Pass.remarks ~enabled ~region
                ~promotable:(own <> None) kind span;
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
