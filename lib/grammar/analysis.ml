(** Interned grammar representation and the classic grammar analyses
    (nullable, FIRST, FOLLOW) shared by the LALR construction and the
    modular determinism analysis. *)

module IntSet = Set.Make (Int)

type iprod = {
  idx : int;
  ilhs : int;  (** nonterminal id *)
  irhs : int array;  (** symbol codes, see {!is_term} *)
  src : Cfg.production option;  (** [None] only for the augmented start *)
}

type t = {
  cfg : Cfg.t;
  term_names : string array;
  nt_names : string array;
  n_terms : int;
  n_nts : int;
  eof : int;  (** terminal id of the synthetic end-of-input terminal *)
  start_nt : int;  (** augmented start nonterminal id *)
  prods : iprod array;  (** [prods.(0)] is the augmented [S' ::= S] *)
  prods_of : int list array;  (** production indices per nonterminal *)
  term_id : (string, int) Hashtbl.t;
  nt_id : (string, int) Hashtbl.t;
  nullable : bool array;
  first : IntSet.t array;  (** FIRST per nonterminal, terminal ids *)
}

(* Symbol coding: terminal t is code t; nonterminal n is code n_terms + n. *)
let is_term g code = code < g.n_terms
let nt_of_code g code = code - g.n_terms

let eof_name = "$EOF"
let aug_start_name = "$START"

exception Ill_formed of string

(** [intern cfg] builds the interned grammar, augmented with
    [$START ::= start $EOF]-style bookkeeping ([$EOF] is handled as the
    lookahead of the augmented item rather than a RHS symbol). *)
let intern (cfg : Cfg.t) : t =
  let start =
    match cfg.start with
    | Some s -> s
    | None -> raise (Ill_formed "grammar has no start symbol")
  in
  (match Cfg.undefined_nonterminals cfg with
  | [] -> ()
  | ns ->
      raise
        (Ill_formed
           ("nonterminals without productions: " ^ String.concat ", " ns)));
  let term_names =
    Array.of_list (List.map (fun t -> t.Cfg.t_name) cfg.terminals @ [ eof_name ])
  in
  let n_terms = Array.length term_names in
  let eof = n_terms - 1 in
  let nts = Cfg.nonterminals cfg @ [ aug_start_name ] in
  let nt_names = Array.of_list nts in
  let n_nts = Array.length nt_names in
  let start_nt = n_nts - 1 in
  let term_id = Hashtbl.create 64 and nt_id = Hashtbl.create 64 in
  Array.iteri (fun i s -> Hashtbl.replace term_id s i) term_names;
  Array.iteri (fun i s -> Hashtbl.replace nt_id s i) nt_names;
  let code_of_symbol = function
    | Cfg.T s -> (
        match Hashtbl.find_opt term_id s with
        | Some i -> i
        | None -> raise (Ill_formed ("undeclared terminal: " ^ s)))
    | Cfg.N s -> n_terms + Hashtbl.find nt_id s
  in
  let user_prods =
    List.mapi
      (fun i p ->
        {
          idx = i + 1;
          ilhs = Hashtbl.find nt_id p.Cfg.lhs;
          irhs = Array.of_list (List.map code_of_symbol p.Cfg.rhs);
          src = Some p;
        })
      cfg.productions
  in
  let aug =
    {
      idx = 0;
      ilhs = start_nt;
      irhs = [| n_terms + Hashtbl.find nt_id start |];
      src = None;
    }
  in
  let prods = Array.of_list (aug :: user_prods) in
  let prods_of = Array.make n_nts [] in
  Array.iter (fun p -> prods_of.(p.ilhs) <- p.idx :: prods_of.(p.ilhs)) prods;
  Array.iteri (fun i l -> prods_of.(i) <- List.rev l) prods_of;
  (* nullable fixpoint *)
  let nullable = Array.make n_nts false in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun p ->
        if not nullable.(p.ilhs) then
          let all_nullable =
            Array.for_all
              (fun code -> code >= n_terms && nullable.(code - n_terms))
              p.irhs
          in
          if all_nullable then begin
            nullable.(p.ilhs) <- true;
            changed := true
          end)
      prods
  done;
  (* FIRST fixpoint *)
  let first = Array.make n_nts IntSet.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun p ->
        let lhs = p.ilhs in
        let before = first.(lhs) in
        let acc = ref before in
        (try
           Array.iter
             (fun code ->
               if code < n_terms then begin
                 acc := IntSet.add code !acc;
                 raise Exit
               end
               else begin
                 acc := IntSet.union !acc first.(code - n_terms);
                 if not nullable.(code - n_terms) then raise Exit
               end)
             p.irhs
         with Exit -> ());
        if not (IntSet.equal before !acc) then begin
          first.(lhs) <- !acc;
          changed := true
        end)
      prods
  done;
  {
    cfg;
    term_names;
    nt_names;
    n_terms;
    n_nts;
    eof;
    start_nt;
    prods;
    prods_of;
    term_id;
    nt_id;
    nullable;
    first;
  }

(** [first_of_seq g syms la] — FIRST of the symbol string [syms] followed by
    the lookahead set [la]: the terminals that can begin a sentence derived
    from [syms · la].  [from] allows starting mid-array. *)
let first_of_seq g ?(from = 0) (syms : int array) (la : IntSet.t) : IntSet.t =
  let acc = ref IntSet.empty in
  let all_nullable = ref true in
  (try
     for i = from to Array.length syms - 1 do
       let code = syms.(i) in
       if is_term g code then begin
         acc := IntSet.add code !acc;
         all_nullable := false;
         raise Exit
       end
       else begin
         let n = nt_of_code g code in
         acc := IntSet.union !acc g.first.(n);
         if not g.nullable.(n) then begin
           all_nullable := false;
           raise Exit
         end
       end
     done
   with Exit -> ());
  if !all_nullable then IntSet.union !acc la else !acc

(** [seq_nullable g syms from] — can [syms.(from..)] derive the empty
    string? *)
let seq_nullable g ?(from = 0) syms =
  let n = Array.length syms in
  let rec go i =
    i >= n
    || ((not (is_term g syms.(i)))
       && g.nullable.(nt_of_code g syms.(i))
       && go (i + 1))
  in
  go from

(** FOLLOW sets per nonterminal (terminal ids); the augmented start's FOLLOW
    is [{$EOF}]. *)
let follow (g : t) : IntSet.t array =
  let follow = Array.make g.n_nts IntSet.empty in
  follow.(g.start_nt) <- IntSet.singleton g.eof;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun p ->
        let n = Array.length p.irhs in
        for i = 0 to n - 1 do
          let code = p.irhs.(i) in
          if not (is_term g code) then begin
            let b = nt_of_code g code in
            let before = follow.(b) in
            let tail_first = first_of_seq g ~from:(i + 1) p.irhs IntSet.empty in
            let acc = IntSet.union before tail_first in
            let acc =
              if seq_nullable g ~from:(i + 1) p.irhs then
                IntSet.union acc follow.(p.ilhs)
              else acc
            in
            if not (IntSet.equal before acc) then begin
              follow.(b) <- acc;
              changed := true
            end
          end
        done)
      g.prods
  done;
  follow
