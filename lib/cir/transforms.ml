(** Programmer-directed loop transformations (§V).

    The matrix constructs lower to canonical for-nests; these rewrites give
    "the programmer a great deal of control over the type of C code that is
    generated" without writing the (often convoluted and intricate) code by
    hand.  Implemented transformations:

    - [split j by 4, jin, jout] — strip-mine a loop (Fig 10); a remainder
      loop is emitted unless the bound is statically divisible,
    - [vectorize jin] — lane-expansion vectorization onto simulated SSE
      (Fig 11): the target loop's trip count must equal the vector width,
      its iterations become the four lanes, strided accesses become packs,
    - [parallelize i] — dispatch a loop to the worker pool / OpenMP,
    - [reorder i j k] / [interchange i j] — permute a perfect nest,
    - [unroll k by 4] — replicate the body,
    - [tile i j by 16] — "two splits and a reorder", exactly the paper's
      definition of tiling as a derived transformation.

    Each transformation validates its loop-index arguments ("the loop
    indices in the transformations [must] correspond to loops in the code
    being transformed") and returns [Error] with a programmer-facing
    message otherwise. *)

open Ir
module S = Runtime.Scalar

type t =
  | Split of { target : string; factor : int; inner : string; outer : string }
  | Vectorize of string
  | Parallelize of string
  | Reorder of string list
  | Interchange of string * string
  | Unroll of { target : string; factor : int }
  | Tile of { outer_ix : string; inner_ix : string; size : int }

let pp ppf = function
  | Split { target; factor; inner; outer } ->
      Fmt.pf ppf "split %s by %d, %s, %s" target factor inner outer
  | Vectorize v -> Fmt.pf ppf "vectorize %s" v
  | Parallelize v -> Fmt.pf ppf "parallelize %s" v
  | Reorder vs -> Fmt.pf ppf "reorder %s" (String.concat " " vs)
  | Interchange (a, b) -> Fmt.pf ppf "interchange %s %s" a b
  | Unroll { target; factor } -> Fmt.pf ppf "unroll %s by %d" target factor
  | Tile { outer_ix; inner_ix; size } ->
      Fmt.pf ppf "tile %s %s by %d" outer_ix inner_ix size

let to_string t = Fmt.str "%a" pp t

(* --- locating loops ------------------------------------------------------ *)

(* Rewrite the unique loop with index [name]; count occurrences found. *)
let rewrite_loop (name : string) (f : loop -> par:bool -> stmt list)
    (body : stmt list) : stmt list * int =
  let found = ref 0 in
  let rec go_stmt s =
    match s with
    | For l when l.index = name ->
        incr found;
        f { l with body = go_block l.body } ~par:false
    | ParFor l when l.index = name ->
        incr found;
        f { l with body = go_block l.body } ~par:true
    | For l -> [ For { l with body = go_block l.body } ]
    | ParFor l -> [ ParFor { l with body = go_block l.body } ]
    | If (c, a, b) -> [ If (c, go_block a, go_block b) ]
    | While (c, b) -> [ While (c, go_block b) ]
    | Block b -> [ Block (go_block b) ]
    | Located (sp, b) -> [ Located (sp, go_block b) ]
    | Site (site, b) -> [ Site (site, go_block b) ]
    | s -> [ s ]
  and go_block b = List.concat_map go_stmt b in
  (* Bind before reading [found]: tuple components evaluate right-to-left. *)
  let rewritten = go_block body in
  (rewritten, !found)

let loop_indices (body : stmt list) : string list =
  let acc = ref [] in
  let rec go s =
    match s with
    | For l | ParFor l ->
        acc := l.index :: !acc;
        List.iter go l.body
    | If (_, a, b) ->
        List.iter go a;
        List.iter go b
    | While (_, b) | Block b | Located (_, b) | Site (_, b) -> List.iter go b
    | _ -> ()
  in
  List.iter go body;
  List.rev !acc

let no_such_loop what name body =
  Error
    (Printf.sprintf "%s: no loop indexed by '%s' (loops in scope: %s)" what
       name
       (match loop_indices body with
       | [] -> "none"
       | ls -> String.concat ", " ls))

(* --- split ---------------------------------------------------------------- *)

let apply_split ?(ceil_mode = false) ~target ~factor ~inner ~outer body =
  if factor < 2 then Error "split: factor must be at least 2"
  else
    let rewritten, found =
      rewrite_loop target
        (fun l ~par ->
          let reconstructed =
            (Var outer *: Int factor) +: Var inner |> fold_expr
          in
          let statically_divisible =
            match l.bound with Int n -> n mod factor = 0 | _ -> false
          in
          let mk_main ~inner_bound ~outer_bound =
            let main_body =
              [
                For
                  {
                    index = inner;
                    bound = inner_bound;
                    body = subst_var l.index reconstructed l.body;
                    prov = l.prov;
                    dynamic = false;
                  };
              ]
            in
            if par then
              ParFor
                { index = outer; bound = outer_bound; body = main_body;
                  prov = l.prov; dynamic = false }
            else
              For
                { index = outer; bound = outer_bound; body = main_body;
                  prov = l.prov; dynamic = false }
          in
          let quotient = fold_expr (l.bound /: Int factor) in
          if statically_divisible then
            [ mk_main ~inner_bound:(Int factor) ~outer_bound:quotient ]
          else if ceil_mode then
            (* Boundary tiles shrink via a min() bound: keeps the nest
               perfect so a subsequent reorder (tiling) stays legal. *)
            let outer_bound =
              fold_expr ((l.bound +: Int (factor - 1)) /: Int factor)
            in
            let inner_bound =
              fold_expr
                (Min (Int factor, l.bound -: (Var outer *: Int factor)))
            in
            [ mk_main ~inner_bound ~outer_bound ]
          else
            (* Remainder loop covering [ (bound/factor)*factor, bound ). *)
            let base = fold_expr (quotient *: Int factor) in
            let rem_index = "__mm_rem_" ^ l.index in
            [
              mk_main ~inner_bound:(Int factor) ~outer_bound:quotient;
              For
                {
                  index = rem_index;
                  bound = fold_expr (l.bound -: base);
                  body = subst_var l.index (fold_expr (base +: Var rem_index)) l.body;
                  prov = l.prov;
                  dynamic = false;
                };
            ])
        body
    in
    match found with
    | 0 -> no_such_loop "split" target body
    | 1 -> Ok rewritten
    | n -> Error (Printf.sprintf "split: %d loops named '%s'" n target)

(* --- parallelize ----------------------------------------------------------- *)

let apply_parallelize target body =
  let rewritten, found =
    rewrite_loop target (fun l ~par:_ -> [ ParFor l ]) body
  in
  match found with
  | 0 -> no_such_loop "parallelize" target body
  | _ -> Ok rewritten

(* --- reorder / interchange -------------------------------------------------- *)

(* Peel a perfect nest of the named loops starting at the outermost one;
   returns (loops outermost-first, innermost body). Each peeled loop keeps
   its provenance so the rebuilt (reordered) nest stays source-attributed. *)
let rec peel_nest names s =
  match s with
  | For l when List.mem l.index names -> (
      match l.body with
      | [ (For l' as inner) ] when List.mem l'.index names ->
          let loops, innermost = peel_nest names inner in
          ((l.index, (l.bound, l.prov)) :: loops, innermost)
      | b -> ([ (l.index, (l.bound, l.prov)) ], b))
  | _ -> ([], [])

let apply_reorder names body =
  if List.sort_uniq String.compare names <> List.sort String.compare names
  then Error "reorder: duplicate loop index"
  else
    let applied = ref None in
    let rec go s =
      match s with
      | For l when List.mem l.index names && !applied = None -> (
          let loops, innermost = peel_nest names (For l) in
          let found = List.map fst loops in
          if List.sort String.compare found <> List.sort String.compare names
          then
            s (* not the full nest here; keep looking deeper *)
          else begin
            (* Legality: a loop's bound may only reference indices that
               remain outside it after reordering (min-bounds from ceil
               splits depend on their outer index). *)
            List.iteri
              (fun p n ->
                let bound = fst (List.assoc n loops) in
                List.iteri
                  (fun q n' ->
                    if q > p && expr_uses_var n' bound then
                      raise
                        (Invalid_argument
                           (Printf.sprintf
                              "reorder: bound of '%s' depends on '%s', which \
                               would move inside it"
                              n n')))
                  names)
              names;
            applied := Some ();
            let bound_of n = fst (List.assoc n loops) in
            let prov_of n = snd (List.assoc n loops) in
            let last = List.nth names (List.length names - 1) in
            List.fold_left
              (fun acc n ->
                For
                  { index = n; bound = bound_of n; body = [ acc ];
                    prov = prov_of n; dynamic = false })
              (For
                 {
                   index = last;
                   bound = bound_of last;
                   body = innermost;
                   prov = prov_of last;
                   dynamic = false;
                 })
              (List.rev (List.filteri (fun i _ -> i < List.length names - 1) names))
          end)
      | For l -> For { l with body = List.map go l.body }
      | ParFor l -> ParFor { l with body = List.map go l.body }
      | If (c, a, b) -> If (c, List.map go a, List.map go b)
      | While (c, b) -> While (c, List.map go b)
      | Located (sp, b) -> Located (sp, List.map go b)
      | Site (site, b) -> Site (site, List.map go b)
      | s -> s
    in
    match List.map go body with
    | rewritten -> (
        match !applied with
        | Some () -> Ok rewritten
        | None ->
            Error
              (Printf.sprintf
                 "reorder: loops {%s} do not form a perfect nest in the code"
                 (String.concat ", " names)))
    | exception Invalid_argument msg -> Error msg

let apply_interchange a b body = apply_reorder [ b; a ] body
(* [interchange a b] makes [b] the outer loop — note reorder lists the
   desired outermost-to-innermost order. *)

(* --- unroll ------------------------------------------------------------------ *)

let apply_unroll ~target ~factor body =
  if factor < 2 then Error "unroll: factor must be at least 2"
  else
    let error = ref None in
    let rewritten, found =
      rewrite_loop target
        (fun l ~par ->
          match l.bound with
          | Int n when n mod factor = 0 ->
              let blk = ref [] in
              for r = factor - 1 downto 0 do
                blk :=
                  subst_var l.index
                    (fold_expr ((Var l.index *: Int factor) +: Int r))
                    l.body
                  @ !blk
              done;
              let l' = { l with bound = Int (n / factor); body = !blk } in
              [ (if par then ParFor l' else For l') ]
          | Int n ->
              error :=
                Some
                  (Printf.sprintf
                     "unroll: trip count %d not divisible by factor %d" n factor);
              [ (if par then ParFor l else For l) ]
          | _ ->
              error := Some "unroll: requires a statically known trip count";
              [ (if par then ParFor l else For l) ])
        body
    in
    match (!error, found) with
    | Some e, _ -> Error e
    | None, 0 -> no_such_loop "unroll" target body
    | None, _ -> Ok rewritten

(* --- vectorize ---------------------------------------------------------------- *)

(* Affine decomposition of [e] in the lane variable: e = base + lane*stride.
   Returns None when e is not affine in the lane variable. *)
let rec affine lane (e : expr) : (expr * expr) option =
  if not (expr_uses_var lane e) then Some (e, Int 0)
  else
    match e with
    | Var v when v = lane -> Some (Int 0, Int 1)
    | Binop (Arith S.Add, a, b) -> (
        match (affine lane a, affine lane b) with
        | Some (ba, sa), Some (bb, sb) ->
            Some (fold_expr (ba +: bb), fold_expr (sa +: sb))
        | _ -> None)
    | Binop (Arith S.Sub, a, b) -> (
        match (affine lane a, affine lane b) with
        | Some (ba, sa), Some (bb, sb) ->
            Some (fold_expr (ba -: bb), fold_expr (sa -: sb))
        | _ -> None)
    | Binop (Arith S.Mul, a, b) when not (expr_uses_var lane b) -> (
        match affine lane a with
        | Some (ba, sa) ->
            Some (fold_expr (ba *: b), fold_expr (sa *: b))
        | None -> None)
    | Binop (Arith S.Mul, a, b) when not (expr_uses_var lane a) -> (
        match affine lane b with
        | Some (bb, sb) ->
            Some (fold_expr (a *: bb), fold_expr (a *: sb))
        | None -> None)
    | _ -> None

exception Not_vectorizable of string

(* Does [stmts] hold a runtime check?  Four lanes run as one operation,
   so a check inside would not run per lane: such a loop stays scalar. *)
let holds_check stmts =
  let found = ref false in
  ignore
    (map_stmts
       (function
         | Checked _ as e ->
             found := true;
             e
         | e -> e)
       (function
         | Check _ as s ->
             found := true;
             s
         | s -> s)
       stmts);
  !found

(** [vectorize_keeps_checks target body] — is [target] a loop of [body]
    that {!apply_vectorize} leaves scalar because it holds a check? *)
let vectorize_keeps_checks target body =
  let checked = ref false in
  ignore
    (rewrite_loop target
       (fun l ~par ->
         if not par then checked := !checked || holds_check l.body;
         [ For l ])
       body);
  !checked

let nope fmt = Format.kasprintf (fun m -> raise (Not_vectorizable m)) fmt

(* Expression → vector expression.  [vec_vars] are float scalars promoted to
   vector registers by the enclosing rewrite. *)
let rec vec_expr lane vec_vars (e : expr) : expr =
  let uses_vec =
    let found = ref false in
    ignore
      (map_expr
         (function
           | Var v when List.mem v vec_vars ->
               found := true;
               Var v
           | x -> x)
         e);
    !found
  in
  if (not (expr_uses_var lane e)) && not uses_vec then VecSplat e
  else
    match e with
    | Var v when List.mem v vec_vars -> Var v
    | Var v when v = lane -> nope "lane index '%s' used as a value" lane
    | MGetFlat (m, off) -> (
        if expr_uses_var lane m then nope "matrix handle depends on lane index";
        match affine lane off with
        | Some (base, stride) -> VecGather (m, base, stride)
        | None -> nope "offset not affine in lane index '%s'" lane)
    | Binop (Arith op, a, b) ->
        VecBin (op, vec_expr lane vec_vars a, vec_expr lane vec_vars b)
    | Unop (Neg, a) ->
        VecBin (S.Sub, VecSplat (Float 0.), vec_expr lane vec_vars a)
    | Unop (FloatOfInt, a) when not (expr_uses_var lane a) -> VecSplat (Unop (FloatOfInt, a))
    | Binop (Cmp _, _, _) | Binop (Logic _, _, _) ->
        nope "comparisons cannot be vectorized"
    | Call (f, _) -> nope "call to '%s' cannot be vectorized" f
    | e -> nope "expression %s cannot be vectorized" (Emit.expr e)

let rec vec_stmt lane vec_vars (s : stmt) : stmt list * string list =
  match s with
  | Decl (CFloat, x, init) ->
      let init' = Option.map (vec_expr lane (x :: vec_vars)) init in
      ([ Decl (CVec, x, init') ], x :: vec_vars)
  | Decl (CInt, x, init) ->
      if Option.fold ~none:false ~some:(expr_uses_var lane) init then
        nope "integer variable '%s' depends on lane index" x
      else ([ s ], vec_vars)
  | Decl (t, x, _) ->
      if
        (match t with CMat _ -> false | _ -> true)
        && stmts_use_var lane [ s ]
      then nope "declaration of '%s' depends on lane index" x
      else ([ s ], vec_vars)
  | Assign (LVar x, e) when List.mem x vec_vars ->
      ([ Assign (LVar x, vec_expr lane vec_vars e) ], vec_vars)
  | Assign (LVar x, e) ->
      if expr_uses_var lane e then
        nope "assignment to scalar '%s' from lane-dependent value" x
      else ([ s ], vec_vars)
  | Assign (LField _, _) -> nope "tuple assignment cannot be vectorized"
  | MSetFlat (m, off, v) -> (
      if expr_uses_var lane m then nope "matrix handle depends on lane index";
      match affine lane off with
      | Some (base, stride) ->
          ( [ VecScatter (m, base, stride, vec_expr lane vec_vars v) ],
            vec_vars )
      | None ->
          if expr_uses_var lane off || expr_uses_var lane v
             || List.exists (fun x -> stmts_use_var x [ s ]) vec_vars
          then nope "store offset not affine in lane index"
          else ([ s ], vec_vars))
  | For l ->
      if expr_uses_var lane l.bound then nope "inner loop bound depends on lane";
      let body', _ =
        List.fold_left
          (fun (acc, vv) st ->
            let ss, vv' = vec_stmt lane vv st in
            (acc @ ss, vv'))
          ([], vec_vars) l.body
      in
      ([ For { l with body = body' } ], vec_vars)
  | If (c, a, b) ->
      if expr_uses_var lane c then nope "branch condition depends on lane index"
      else
        let rewrite blk =
          List.concat_map (fun st -> fst (vec_stmt lane vec_vars st)) blk
        in
        ([ If (c, rewrite a, rewrite b) ], vec_vars)
  | While (c, b) ->
      if expr_uses_var lane c then nope "while condition depends on lane index"
      else
        ( [
            While
              (c, List.concat_map (fun st -> fst (vec_stmt lane vec_vars st)) b);
          ],
          vec_vars )
  | Block b ->
      ( [
          Block
            (List.concat_map (fun st -> fst (vec_stmt lane vec_vars st)) b);
        ],
        vec_vars )
  | Comment _ | RcInc _ | RcDec _ -> ([ s ], vec_vars)
  | Break | Continue -> ([ s ], vec_vars)
  | Return _ -> nope "return inside a vectorized loop"
  | ExprS e ->
      if expr_uses_var lane e then nope "effectful lane-dependent expression"
      else ([ s ], vec_vars)
  | MWrite _ -> nope "matrix I/O inside a vectorized loop"
  | Check _ -> nope "a runtime check cannot run per lane"
  | VecScatter _ -> nope "loop is already vectorized"
  | ParFor _ -> nope "parallel loop inside a vectorized loop"
  | Spawn _ | Sync -> nope "cilk constructs cannot be vectorized"
  | Located (sp, b) ->
      ( [
          Located
            (sp, List.concat_map (fun st -> fst (vec_stmt lane vec_vars st)) b);
        ],
        vec_vars )
  | Site (site, b) ->
      ( [
          Site
            (site, List.concat_map (fun st -> fst (vec_stmt lane vec_vars st)) b);
        ],
        vec_vars )

let apply_vectorize target body =
  let width = Runtime.Simd.default_width in
  let error = ref None in
  let rewritten, found =
    rewrite_loop target
      (fun l ~par ->
        if par then begin
          error := Some "vectorize: loop is parallelized; vectorize first";
          [ ParFor l ]
        end
        else
          match l.bound with
          | _ when holds_check l.body -> [ For l ]
          | Int n when n = width -> (
              try
                let stmts =
                  List.fold_left
                    (fun (acc, vv) st ->
                      let ss, vv' = vec_stmt l.index vv st in
                      (acc @ ss, vv'))
                    ([], []) l.body
                  |> fst
                in
                Comment
                  (Printf.sprintf "vectorized %s: 4 x f32 SSE lanes" l.index)
                :: stmts
              with Not_vectorizable msg ->
                error := Some ("vectorize: " ^ msg);
                [ For l ])
          | Int n ->
              error :=
                Some
                  (Printf.sprintf
                     "vectorize: loop '%s' has trip count %d, not the vector \
                      width %d (split it first)"
                     l.index n width);
              [ For l ]
          | _ ->
              error :=
                Some
                  (Printf.sprintf
                     "vectorize: loop '%s' must have a static trip count equal \
                      to the vector width %d (split it first)"
                     l.index width);
              [ For l ])
      body
  in
  match (!error, found) with
  | Some e, _ -> Error e
  | None, 0 -> no_such_loop "vectorize" target body
  | None, _ -> Ok rewritten

(* Hoist lane-invariant splats above the outermost loop (Fig 11: "these
   have been floated above the outermost for loop because they are
   unchanged by the loops"). *)
let hoist_splats (body : stmt list) : stmt list =
  (* Names defined inside the body (decls and loop indices): splats whose
     argument touches any of them cannot be hoisted to the top. *)
  let defined = ref [] in
  let rec scan s =
    match s with
    | Decl (_, n, _) -> defined := n :: !defined
    | For l | ParFor l ->
        defined := l.index :: !defined;
        List.iter scan l.body
    | If (_, a, b) ->
        List.iter scan a;
        List.iter scan b
    | While (_, b) | Block b | Located (_, b) | Site (_, b) ->
        List.iter scan b
    | _ -> ()
  in
  List.iter scan body;
  let hoisted = ref [] in
  let counter = ref 0 in
  let name_for e =
    match List.assoc_opt e !hoisted with
    | Some n -> n
    | None ->
        let n = Printf.sprintf "__mm_vc%d" !counter in
        incr counter;
        hoisted := (e, n) :: !hoisted;
        n
  in
  let in_loop = ref 0 in
  let rec go_stmt s =
    match s with
    | For l ->
        incr in_loop;
        let b = List.map go_stmt l.body in
        decr in_loop;
        For { l with bound = go_expr l.bound; body = b }
    | ParFor l ->
        incr in_loop;
        let b = List.map go_stmt l.body in
        decr in_loop;
        ParFor { l with bound = go_expr l.bound; body = b }
    | Located (sp, b) -> Located (sp, List.map go_stmt b)
    | Site (site, b) -> Site (site, List.map go_stmt b)
    | s -> map_stmt go_expr_leafless Fun.id s
  and go_expr_leafless e = if !in_loop > 0 then go_expr_node e else e
  and go_expr_node = function
    | VecSplat a when not (List.exists (fun v -> expr_uses_var v a) !defined)
      ->
        Var (name_for a)
    | e -> e
  and go_expr e = map_expr go_expr_leafless e
  in
  let body' = List.map go_stmt body in
  let decls =
    List.rev_map (fun (e, n) -> Decl (CVec, n, Some (VecSplat e))) !hoisted
  in
  decls @ body'

(* --- tile = two splits and a reorder (§V) ------------------------------------- *)

let apply_tile ~outer_ix ~inner_ix ~size body =
  let xin = outer_ix ^ "in" and xout = outer_ix ^ "out" in
  let yin = inner_ix ^ "in" and yout = inner_ix ^ "out" in
  let ( let* ) = Result.bind in
  (* Ceil-mode splits keep the nest perfect on non-divisible extents
     (boundary tiles get min() bounds instead of a peeled remainder). *)
  let* b =
    apply_split ~ceil_mode:true ~target:outer_ix ~factor:size ~inner:xin
      ~outer:xout body
  in
  let* b =
    apply_split ~ceil_mode:true ~target:inner_ix ~factor:size ~inner:yin
      ~outer:yout b
  in
  apply_reorder [ xout; yout; xin; yin ] b

(* --- driver ---------------------------------------------------------------------- *)

(** [apply t body] — run one transformation over a function body. *)
let apply (t : t) (body : stmt list) : (stmt list, string) result =
  match t with
  | Split { target; factor; inner; outer } ->
      apply_split ~target ~factor ~inner ~outer body
  | Vectorize v -> apply_vectorize v body
  | Parallelize v -> apply_parallelize v body
  | Reorder vs -> apply_reorder vs body
  | Interchange (a, b) -> apply_interchange a b body
  | Unroll { target; factor } -> apply_unroll ~target ~factor body
  | Tile { outer_ix; inner_ix; size } -> apply_tile ~outer_ix ~inner_ix ~size body

(** [apply_all ts body] — apply "in the order in which they appear" (§V),
    then hoist loop-invariant vector constants. *)
let apply_all (ts : t list) (body : stmt list) : (stmt list, string) result =
  let result =
    List.fold_left
      (fun acc t -> Result.bind acc (fun b -> apply t b))
      (Ok body) ts
  in
  Result.map
    (fun b ->
      if List.exists (function Vectorize _ -> true | _ -> false) ts then
        hoist_splats b
      else b)
    result
