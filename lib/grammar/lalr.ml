(** LALR(1) parse-table construction.

    The construction is the textbook one used by Copper:
    build the LR(0) canonical collection, then compute LALR(1) lookaheads
    for kernel items by spontaneous generation and propagation
    (Dragon-book algorithm 4.63), and finally derive reduce lookaheads for
    every completed item — including items of epsilon productions — by an
    in-state LR(1) closure over the kernel lookaheads.

    Tables are pure data: the parser driver, the context-aware scanner
    (which needs the {i valid terminal set} of each state) and the modular
    determinism analysis all consume them. *)

module IntSet = Set.Make (Int)
module A = Analysis

(* An LR(0) item is (production index, dot position), packed into one int.
   No production in a real language spec has a RHS longer than 63 symbols. *)
let max_rhs = 64
let item prod dot = (prod * max_rhs) + dot
let item_prod it = it / max_rhs
let item_dot it = it mod max_rhs

type action =
  | Shift of int  (** target state *)
  | Reduce of int  (** production index *)
  | Accept
  | Error

type conflict = {
  c_state : int;
  c_term : int;
  c_actions : action list;  (** the clashing actions (2 or more) *)
}

type t = {
  g : A.t;
  n_states : int;
  kernels : int array array;  (** sorted kernel items per state *)
  action : action array array;  (** [action.(state).(terminal)] *)
  goto : int array array;  (** [goto.(state).(nonterminal)], -1 = none *)
  conflicts : conflict list;
  valid_terms : IntSet.t array;
      (** per state: terminals with a non-[Error] action — the set the
          context-aware scanner is allowed to match in that state *)
}

let pp_action g ppf = function
  | Shift s -> Fmt.pf ppf "shift %d" s
  | Reduce p -> (
      match g.A.prods.(p).A.src with
      | Some sp -> Fmt.pf ppf "reduce %s" sp.Cfg.p_name
      | None -> Fmt.pf ppf "reduce $START")
  | Accept -> Fmt.string ppf "accept"
  | Error -> Fmt.string ppf "error"

let pp_conflict g ppf c =
  Fmt.pf ppf "state %d on %s: %a" c.c_state
    g.A.term_names.(c.c_term)
    (Fmt.list ~sep:(Fmt.any " / ") (pp_action g))
    c.c_actions

(* LR(0) closure of an item set (sorted int list in, sorted out). *)
let lr0_closure (g : A.t) (items : int list) : int list =
  let seen = Hashtbl.create 32 in
  let rec add it =
    if not (Hashtbl.mem seen it) then begin
      Hashtbl.add seen it ();
      let p = g.A.prods.(item_prod it) and dot = item_dot it in
      if dot < Array.length p.A.irhs then
        let code = p.A.irhs.(dot) in
        if not (A.is_term g code) then
          List.iter
            (fun pi -> add (item pi 0))
            g.A.prods_of.(A.nt_of_code g code)
    end
  in
  List.iter add items;
  Hashtbl.fold (fun it () acc -> it :: acc) seen [] |> List.sort Int.compare

(* Kernel goto: from a state's closure, the kernels reachable on each
   symbol. Returns (symbol_code, kernel items sorted) assoc, sorted. *)
let kernel_gotos (g : A.t) (closure : int list) : (int * int list) list =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun it ->
      let p = g.A.prods.(item_prod it) and dot = item_dot it in
      if dot < Array.length p.A.irhs then begin
        let code = p.A.irhs.(dot) in
        let prev = Hashtbl.find_opt tbl code |> Option.value ~default:[] in
        Hashtbl.replace tbl code (item (item_prod it) (dot + 1) :: prev)
      end)
    closure;
  Hashtbl.fold
    (fun code items acc -> (code, List.sort Int.compare items) :: acc)
    tbl []
  |> List.sort compare

exception Table_error of string

(** [build cfg] constructs the LALR(1) tables for (interned) [cfg].
    Conflicts do not raise — they are recorded in [conflicts] (resolving
    nothing), so the determinism analysis can report them precisely; use
    {!require_deterministic} when a conflict should be fatal. *)
let build (cfg : Cfg.t) : t =
  let g = A.intern cfg in
  (* --- LR(0) canonical collection ------------------------------------ *)
  let state_ids : (int list, int) Hashtbl.t = Hashtbl.create 128 in
  let kernels_rev = ref [] in
  let n_states = ref 0 in
  let transitions = ref [] (* (state, symbol code, target) *) in
  let queue = Queue.create () in
  let intern_state kernel =
    match Hashtbl.find_opt state_ids kernel with
    | Some id -> id
    | None ->
        let id = !n_states in
        incr n_states;
        Hashtbl.add state_ids kernel id;
        kernels_rev := kernel :: !kernels_rev;
        Queue.add (id, kernel) queue;
        id
  in
  let start_kernel = [ item 0 0 ] in
  ignore (intern_state start_kernel);
  while not (Queue.is_empty queue) do
    let id, kernel = Queue.pop queue in
    let closure = lr0_closure g kernel in
    List.iter
      (fun (code, tgt_kernel) ->
        let tgt = intern_state tgt_kernel in
        transitions := (id, code, tgt) :: !transitions)
      (kernel_gotos g closure)
  done;
  let n_states = !n_states in
  let kernels = Array.of_list (List.rev !kernels_rev) |> Array.map Array.of_list in
  let goto_sym = Array.make n_states [] in
  List.iter
    (fun (s, code, t) -> goto_sym.(s) <- (code, t) :: goto_sym.(s))
    !transitions;
  let goto_of state code = List.assoc_opt code goto_sym.(state) in
  (* --- LALR(1) lookaheads for kernel items ---------------------------- *)
  (* Lookahead storage: per state, per kernel item index. *)
  let kernel_index state it =
    let k = kernels.(state) in
    let rec go i = if k.(i) = it then i else go (i + 1) in
    go 0
  in
  let lookaheads = Array.map (fun k -> Array.make (Array.length k) IntSet.empty) kernels in
  let propagate : (int * int, (int * int) list) Hashtbl.t = Hashtbl.create 256 in
  let add_prop src dst =
    let prev = Hashtbl.find_opt propagate src |> Option.value ~default:[] in
    Hashtbl.replace propagate src (dst :: prev)
  in
  (* Dummy lookahead terminal "#": id = n_terms (one past $EOF). *)
  let dummy = g.A.n_terms in
  (* LR(1) closure of a single (item, {la}) seed, small-step. *)
  let lr1_closure_single seed_item seed_la =
    let acc : (int, IntSet.t ref) Hashtbl.t = Hashtbl.create 32 in
    let work = Queue.create () in
    let add it la =
      match Hashtbl.find_opt acc it with
      | Some r ->
          let extra = IntSet.diff la !r in
          if not (IntSet.is_empty extra) then begin
            r := IntSet.union !r extra;
            Queue.add (it, extra) work
          end
      | None ->
          Hashtbl.add acc it (ref la);
          Queue.add (it, la) work
    in
    add seed_item (IntSet.singleton seed_la);
    while not (Queue.is_empty work) do
      let it, la = Queue.pop work in
      let p = g.A.prods.(item_prod it) and dot = item_dot it in
      if dot < Array.length p.A.irhs then begin
        let code = p.A.irhs.(dot) in
        if not (A.is_term g code) then begin
          (* FIRST(β · la); β may be empty ⇒ la flows through (including #). *)
          let beta_first = A.first_of_seq g ~from:(dot + 1) p.A.irhs IntSet.empty in
          let flows = A.seq_nullable g ~from:(dot + 1) p.A.irhs in
          let la' = if flows then IntSet.union beta_first la else beta_first in
          List.iter
            (fun pi -> add (item pi 0) la')
            g.A.prods_of.(A.nt_of_code g code)
        end
      end
    done;
    Hashtbl.fold (fun it la acc -> (it, !la) :: acc) acc []
  in
  (* Spontaneous lookaheads and propagation links. *)
  for state = 0 to n_states - 1 do
    Array.iteri
      (fun ki kit ->
        List.iter
          (fun (it, la) ->
            let p = g.A.prods.(item_prod it) and dot = item_dot it in
            if dot < Array.length p.A.irhs then begin
              let code = p.A.irhs.(dot) in
              match goto_of state code with
              | None -> ()
              | Some tgt ->
                  let tgt_item = item (item_prod it) (dot + 1) in
                  let tki = kernel_index tgt tgt_item in
                  let spont = IntSet.remove dummy la in
                  if not (IntSet.is_empty spont) then
                    lookaheads.(tgt).(tki) <-
                      IntSet.union lookaheads.(tgt).(tki) spont;
                  if IntSet.mem dummy la then add_prop (state, ki) (tgt, tki)
            end)
          (lr1_closure_single kit dummy))
      kernels.(state)
  done;
  (* $EOF is the lookahead of the augmented start item. *)
  lookaheads.(0).(0) <- IntSet.add g.A.eof lookaheads.(0).(0);
  (* Propagation fixpoint. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Hashtbl.iter
      (fun (s, ki) dsts ->
        let la = lookaheads.(s).(ki) in
        List.iter
          (fun (ts, tki) ->
            let before = lookaheads.(ts).(tki) in
            let after = IntSet.union before la in
            if not (IntSet.equal before after) then begin
              lookaheads.(ts).(tki) <- after;
              changed := true
            end)
          dsts)
      propagate
  done;
  (* --- Action/goto tables --------------------------------------------- *)
  let action = Array.init n_states (fun _ -> Array.make g.A.n_terms Error) in
  let goto = Array.init n_states (fun _ -> Array.make g.A.n_nts (-1)) in
  let conflicts = ref [] in
  let set_action state term act =
    match action.(state).(term) with
    | Error -> action.(state).(term) <- act
    | prev when prev = act -> ()
    | prev ->
        (* Record (and keep first action so the parser stays usable). *)
        let existing =
          List.find_opt
            (fun c -> c.c_state = state && c.c_term = term)
            !conflicts
        in
        (match existing with
        | Some c when List.mem act c.c_actions -> ()
        | Some c ->
            conflicts :=
              { c with c_actions = c.c_actions @ [ act ] }
              :: List.filter (fun c' -> c' != c) !conflicts
        | None ->
            conflicts :=
              { c_state = state; c_term = term; c_actions = [ prev; act ] }
              :: !conflicts)
  in
  for state = 0 to n_states - 1 do
    (* Shifts and gotos from LR(0) transitions. *)
    List.iter
      (fun (code, tgt) ->
        if A.is_term g code then set_action state code (Shift tgt)
        else goto.(state).(A.nt_of_code g code) <- tgt)
      goto_sym.(state);
    (* Reduces: LR(1) closure of the kernel with its computed lookaheads,
       so epsilon-production reductions get correct lookaheads too. *)
    let seeds =
      Array.to_list
        (Array.mapi (fun ki kit -> (kit, lookaheads.(state).(ki))) kernels.(state))
    in
    let closure : (int, IntSet.t ref) Hashtbl.t = Hashtbl.create 32 in
    let work = Queue.create () in
    let add it la =
      match Hashtbl.find_opt closure it with
      | Some r ->
          let extra = IntSet.diff la !r in
          if not (IntSet.is_empty extra) then begin
            r := IntSet.union !r extra;
            Queue.add (it, extra) work
          end
      | None ->
          Hashtbl.add closure it (ref la);
          Queue.add (it, la) work
    in
    List.iter (fun (it, la) -> add it la) seeds;
    while not (Queue.is_empty work) do
      let it, la = Queue.pop work in
      let p = g.A.prods.(item_prod it) and dot = item_dot it in
      if dot < Array.length p.A.irhs then begin
        let code = p.A.irhs.(dot) in
        if not (A.is_term g code) then begin
          let beta_first = A.first_of_seq g ~from:(dot + 1) p.A.irhs IntSet.empty in
          let flows = A.seq_nullable g ~from:(dot + 1) p.A.irhs in
          let la' = if flows then IntSet.union beta_first la else beta_first in
          List.iter (fun pi -> add (item pi 0) la') g.A.prods_of.(A.nt_of_code g code)
        end
      end
    done;
    Hashtbl.iter
      (fun it la ->
        let pi = item_prod it and dot = item_dot it in
        let p = g.A.prods.(pi) in
        if dot = Array.length p.A.irhs then
          IntSet.iter
            (fun t ->
              if pi = 0 then (if t = g.A.eof then set_action state t Accept)
              else set_action state t (Reduce pi))
            !la)
      closure
  done;
  let valid_terms =
    Array.init n_states (fun s ->
        let acc = ref IntSet.empty in
        Array.iteri
          (fun t a -> if a <> Error then acc := IntSet.add t !acc)
          action.(s);
        !acc)
  in
  {
    g;
    n_states;
    kernels;
    action;
    goto;
    conflicts = List.rev !conflicts;
    valid_terms;
  }

(** [is_lalr1 tbl] — true when the construction found no conflicts. *)
let is_lalr1 tbl = tbl.conflicts = []

(** [require_deterministic tbl] raises {!Table_error} with a rendered
    conflict report unless the table is conflict-free. *)
let require_deterministic tbl =
  if not (is_lalr1 tbl) then
    raise
      (Table_error
         (Fmt.str "grammar %s is not LALR(1):@.%a" tbl.g.A.cfg.Cfg.name
            (Fmt.list ~sep:Fmt.cut (pp_conflict tbl.g))
            tbl.conflicts))
