(** Context-free grammars as data, in the style of Copper grammar
    specifications: terminals carry regexes and lexical precedence,
    productions carry a name (used to key semantic actions and attribute
    equations) and an owner (host or extension), and grammars compose by
    set union.

    Grammars stay pure data so the composability analyses
    ({!Determinism}) can inspect them, exactly as Copper's modular
    determinism analysis inspects extension grammars. *)

type terminal = {
  t_name : string;  (** unique terminal name, e.g. ["ID"], ["KW_with"] *)
  t_regex : Regexe.Syntax.t;
  t_prio : int;
      (** lexical precedence: when two valid terminals match the same
          longest lexeme, the higher priority wins (keywords beat [ID]) *)
  t_owner : string;  (** grammar fragment that declared it *)
}

(** [terminal ?prio ~owner name regex_src] declares a terminal from regex
    concrete syntax. *)
let terminal ?(prio = 0) ~owner name regex_src =
  { t_name = name; t_regex = Regexe.Syntax.parse regex_src; t_prio = prio; t_owner = owner }

(** [keyword ~owner name text] — a literal keyword terminal with priority 10
    so it beats identifier terminals of priority 0. *)
let keyword ?(prio = 10) ~owner name text =
  { t_name = name; t_regex = Regexe.Syntax.literal text; t_prio = prio; t_owner = owner }

type symbol = T of string | N of string

type production = {
  p_name : string;  (** unique production name, keys actions/equations *)
  lhs : string;  (** nonterminal name *)
  rhs : symbol list;
  p_owner : string;
}

let production ~owner ~name lhs rhs =
  { p_name = name; lhs; rhs; p_owner = owner }

type t = {
  name : string;  (** fragment name, e.g. ["host"], ["matrix"] *)
  terminals : terminal list;
  layout : terminal list;
      (** terminals skipped between tokens (whitespace, comments) *)
  productions : production list;
  start : string option;  (** start nonterminal; set only by the host *)
}

let empty name =
  { name; terminals = []; layout = []; productions = []; start = None }

let nonterminals g =
  List.concat_map
    (fun p -> p.lhs :: List.filter_map (function N n -> Some n | T _ -> None) p.rhs)
    g.productions
  |> List.sort_uniq String.compare

let terminal_names g = List.map (fun t -> t.t_name) g.terminals

exception Compose_error of string

(** [compose host exts] unions the host fragment with extension fragments.
    Raises {!Compose_error} on clashes that even the scanner cannot fix:
    two fragments declaring the same terminal name with different regexes,
    or the same production name twice.  (Overlapping regexes under
    different names are fine — the context-aware scanner resolves them.) *)
let compose (host : t) (exts : t list) : t =
  let name =
    String.concat "+" (host.name :: List.map (fun e -> e.name) exts)
  in
  let all = host :: exts in
  let terminals = List.concat_map (fun g -> g.terminals) all in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun t ->
      match Hashtbl.find_opt tbl t.t_name with
      | Some prev when prev.t_regex <> t.t_regex ->
          raise
            (Compose_error
               (Printf.sprintf
                  "terminal %s declared with different regexes by %s and %s"
                  t.t_name prev.t_owner t.t_owner))
      | Some _ -> ()
      | None -> Hashtbl.add tbl t.t_name t)
    terminals;
  let terminals =
    (* Dedup, preserving first-declaration order. *)
    let seen = Hashtbl.create 64 in
    List.filter
      (fun t ->
        if Hashtbl.mem seen t.t_name then false
        else (
          Hashtbl.add seen t.t_name ();
          true))
      terminals
  in
  let productions = List.concat_map (fun g -> g.productions) all in
  let pseen = Hashtbl.create 64 in
  List.iter
    (fun p ->
      if Hashtbl.mem pseen p.p_name then
        raise
          (Compose_error
             (Printf.sprintf "production name %s declared twice" p.p_name));
      Hashtbl.add pseen p.p_name ())
    productions;
  let layout =
    let seen = Hashtbl.create 8 in
    List.concat_map (fun g -> g.layout) all
    |> List.filter (fun t ->
           if Hashtbl.mem seen t.t_name then false
           else (
             Hashtbl.add seen t.t_name ();
             true))
  in
  let start =
    match List.filter_map (fun g -> g.start) all with
    | [ s ] -> Some s
    | [] -> raise (Compose_error "no start symbol")
    | _ :: _ :: _ -> raise (Compose_error "multiple start symbols")
  in
  { name; terminals; layout; productions; start }

(** Sanity check: every nonterminal used on a RHS has at least one
    production; returns the list of undefined nonterminals. *)
let undefined_nonterminals g =
  let defined = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace defined p.lhs ()) g.productions;
  nonterminals g |> List.filter (fun n -> not (Hashtbl.mem defined n))
