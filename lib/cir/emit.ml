(** C text emission: prints the lowered IR as the plain parallel C program
    a traditional compiler would consume (§II: "translate it down to plain
    C code, which can then be compiled for execution by a traditional
    compiler").

    The output includes the real runtime header ([mm_runtime.h], shipped
    in runtime/c/) exposing flat-buffer matrices with reference counts —
    the same API the paper's generated code calls — plus, in programs
    with vectorized loops (Fig 11), the Intel SSE intrinsics of
    [mm_simd.h], and OpenMP pragmas for parallelized ones.  [mm_float]
    is C [double]: the reference interpreter evaluates float expressions
    in double precision, and native output must agree bit-for-bit.

    Every program is checked code: the subscript and shape checks
    lowering wrote ({!Ir.check}) print as the runtime's [MM_BOUND],
    [MM_SAME], [MM_DIM] and [MM_NOT_NULL] macros, and every runtime call
    that can fail — an allocation, [readMatrix], [writeMatrix], an
    integer [/] or [%] — takes the span id of the code making it.  All
    of them name spans by one generated span table, so each fault
    reports at the span the interpreter names.

    With [exec_harness] the entry function is renamed and a generated
    [int main] prints the entry's result (and the live-allocation count)
    through the runtime's result protocol, which [mmc exec] parses back
    into the interpreter's value shape. *)

open Ir
module S = Runtime.Scalar

let arith_sym = S.arith_name
let cmp_sym = S.cmp_name
let logic_sym = function S.And -> "&&" | S.Or -> "||"

(* A [/] or [%] goes through the runtime's checked helper unless its
   divisor is a nonzero literal. *)
let checked_divisor = function Int n -> n = 0 | Float f -> f = 0. | _ -> true

(* C operator precedence levels (higher binds tighter). *)
let prec_of = function
  | Binop (Arith (S.Div | S.Mod), _, b) when checked_divisor b -> 100
  | Binop (Arith (S.Mul | S.Div | S.Mod), _, _) -> 50
  | Binop (Arith (S.Add | S.Sub), _, _) -> 40
  | Binop (Cmp (S.Lt | S.Le | S.Gt | S.Ge), _, _) -> 30
  | Binop (Cmp (S.Eq | S.Ne), _, _) -> 25
  | Binop (Logic S.And, _, _) -> 20
  | Binop (Logic S.Or, _, _) -> 15
  | Unop _ -> 60
  | _ -> 100

(* Float literals are mm_float (= double), so no [f] suffix — and they
   must round-trip: the interpreter computes with the OCaml double the
   literal denotes, and the C compiler must reconstruct that exact value. *)
let float_lit f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let short = Printf.sprintf "%g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

(* OCaml's %S uses decimal escapes ("\001"), which are invalid C; escape
   by hand with octal for the rare non-printable byte. *)
let c_string_lit s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 32 || Char.code c > 126 ->
          Buffer.add_string buf (Printf.sprintf "\\%03o" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* --- per-call emission state ---------------------------------------------- *)

(* One emission's state.  {!program}, {!stmts} and {!expr} each make their
   own, so emitting is a function of the arguments alone. *)
type st = {
  instrument : bool;
      (** provenance sites are also wrapped in mm_prof enter/exit calls,
          so a native run attributes wall time to the same source spans
          the interpreter profiler reports *)
  line_file : string option;
      (** when [Some file], [Located] nodes emit [#line] directives
          pointing the C toolchain (debuggers, profilers) back at the
          original source *)
  span_ids : (string, int) Hashtbl.t;
      (** span string -> id, in first-emission order (the table index is
          the id): the program's one span table, which checks, fallible
          runtime calls and the profiler all name spans by *)
  mutable span_order : string list;  (** reversed *)
  mutable at : string option;
      (** the span a fault at the emission point names, the one the
          interpreter's [locate] attaches: the innermost enclosing
          [Located] statement or provenance loop, else the function's
          [f_span] (a lifted matrixMap body's is the matrixMap's, which
          the interpreter attaches through the loop calling it) *)
  mutable open_spans : string list;
      (** instrumented emission only: the profiler sites open at the
          emission point, innermost first.  Mirrors the interpreter
          profiler's frame stack well enough to make the same skip
          decisions statically: a loop desugared to several nested loops
          over one source span is one site, the outermost, and a
          [return] knows which sites to unwind. *)
  mutable ret : ctype;
      (** return type of the function being emitted: a returned tuple
          literal needs its struct name for a C compound literal *)
}

let state ?line_file ?(instrument = false) () =
  {
    instrument;
    line_file;
    span_ids = Hashtbl.create 16;
    span_order = [];
    at = None;
    open_spans = [];
    ret = CVoid;
  }

let span_id st s =
  match Hashtbl.find_opt st.span_ids s with
  | Some id -> id
  | None ->
      let id = Hashtbl.length st.span_ids in
      Hashtbl.add st.span_ids s id;
      st.span_order <- s :: st.span_order;
      id

(* The span id a fault at the emission point names (-1: none). *)
let fault_id st = match st.at with Some s -> span_id st s | None -> -1

(* Emits [f] inside a source construct: a fault there names [prov]'s
   span when it has one, and an instrumented [site] is an open profiler
   frame. *)
let within st ?site prov f =
  let at = st.at and outer = st.open_spans in
  Option.iter (fun sp -> st.at <- Some (Support.Pos.span_to_string sp)) prov;
  Option.iter (fun s -> st.open_spans <- s :: outer) site;
  f ();
  st.at <- at;
  st.open_spans <- outer

let rec expr st ?(prec = 0) (e : expr) : string =
  let p = prec_of e in
  let s =
    match e with
    | Int i -> string_of_int i
    | Float f -> float_lit f
    | Bool b -> if b then "true" else "false"
    | Str s -> c_string_lit s
    | Var v -> v
    | Binop (Arith ((S.Div | S.Mod) as op), a, b) when checked_divisor b ->
        Printf.sprintf "mm_%s(%s, %s, %d)"
          (if op = S.Div then "div" else "mod")
          (expr st ~prec:0 a) (expr st ~prec:0 b) (fault_id st)
    | Binop (Arith op, a, b) ->
        Printf.sprintf "%s %s %s" (expr st ~prec:p a) (arith_sym op)
          (expr st ~prec:(p + 1) b)
    | Binop (Cmp op, a, b) ->
        Printf.sprintf "%s %s %s" (expr st ~prec:p a) (cmp_sym op)
          (expr st ~prec:(p + 1) b)
    | Binop (Logic op, a, b) ->
        Printf.sprintf "%s %s %s" (expr st ~prec:p a) (logic_sym op)
          (expr st ~prec:(p + 1) b)
    | Unop (Neg, a) -> Printf.sprintf "-%s" (expr st ~prec:60 a)
    | Unop (Not, a) -> Printf.sprintf "!%s" (expr st ~prec:60 a)
    | Unop (IntOfFloat, a) -> Printf.sprintf "(int) %s" (expr st ~prec:60 a)
    | Unop (FloatOfInt, a) -> Printf.sprintf "(mm_float) %s" (expr st ~prec:60 a)
    | Min (a, b) ->
        Printf.sprintf "mm_min(%s, %s)" (expr st ~prec:0 a) (expr st ~prec:0 b)
    | Call (f, args) ->
        Printf.sprintf "%s(%s)" f
          (String.concat ", " (List.map (expr st ~prec:0) args))
    | TupleE es ->
        Printf.sprintf "{ %s }"
          (String.concat ", " (List.map (expr st ~prec:0) es))
    | Field (a, i) -> Printf.sprintf "%s.f%d" (expr st ~prec:60 a) i
    | MAlloc { elem; dims; zeroed } ->
        Printf.sprintf "mm_%salloc_%s(%d, %d%s)"
          (if zeroed then "c" else "")
          (Runtime.Ndarray.elem_name elem)
          (fault_id st) (List.length dims)
          (String.concat ""
             (List.map (fun d -> ", " ^ expr st ~prec:0 d) dims))
    | MView { elem; m; offset; dims } ->
        (* the header is a compound literal: it lives on the stack until
           the enclosing block ends *)
        let e = Runtime.Ndarray.elem_name elem in
        Printf.sprintf "mm_view_%s(&(mm_mat_%s){0}, %s->data + %s, %d, %s)" e e
          (expr st ~prec:60 m) (expr st ~prec:41 offset) (List.length dims)
          (match dims with
          | [] -> "NULL"
          | ds ->
              Printf.sprintf "(const int[]){%s}"
                (String.concat ", " (List.map (expr st ~prec:0) ds)))
    | MGetFlat (m, off) ->
        Printf.sprintf "%s->data[%s]" (expr st ~prec:60 m) (expr st ~prec:0 off)
    | Checked (cs, e) ->
        (* a comma expression: the checks run, in order, before [e] *)
        Printf.sprintf "(%s, %s)"
          (String.concat ", " (List.map (check st) cs))
          (expr st ~prec:0 e)
    | MDim (m, d) ->
        Printf.sprintf "%s->dims[%s]" (expr st ~prec:60 m) (expr st ~prec:0 d)
    | MSize m -> Printf.sprintf "mm_size(%s)" (expr st ~prec:0 m)
    | MRead p ->
        Printf.sprintf "mm_read_matrix(%s, %d)" (expr st ~prec:0 p)
          (fault_id st)
    | VecSplat a -> Printf.sprintf "_mm_set1_ps(%s)" (expr st ~prec:0 a)
    | VecGather (m, base, stride) ->
        (* Pack 4 lanes (highest lane first, as _mm_set_ps expects).  The
           per-lane double -> float conversion is exactly the interpreter's
           rounding of each gathered element through single precision;
           stride 1 gets no loadu shortcut because the buffer is double. *)
        let d = expr st ~prec:60 m in
        let lane k =
          let off =
            fold_expr (Binop (Arith S.Add, base, Binop (Arith S.Mul, Int k, stride)))
          in
          Printf.sprintf "%s->data[%s]" d (expr st ~prec:0 off)
        in
        Printf.sprintf "_mm_set_ps(%s, %s, %s, %s)" (lane 3) (lane 2) (lane 1)
          (lane 0)
    | VecBin (op, a, b) ->
        let name =
          match op with
          | S.Add -> "_mm_add_ps"
          | S.Sub -> "_mm_sub_ps"
          | S.Mul -> "_mm_mul_ps"
          | S.Div -> "_mm_div_ps"
          | S.Mod -> "mm_mod_ps"
        in
        Printf.sprintf "%s(%s, %s)" name (expr st ~prec:0 a) (expr st ~prec:0 b)
    | VecHsum a -> Printf.sprintf "mm_hsum_ps(%s)" (expr st ~prec:0 a)
  in
  if p < prec then "(" ^ s ^ ")" else s

(* A check is a void expression naming its span by table id. *)
and check st = function
  | Bound { m; dim; index; span } ->
      Printf.sprintf "MM_BOUND(%s, %d, %s, %d)" (expr st ~prec:0 m) dim
        (expr st ~prec:0 index)
        (span_id st (Support.Pos.span_to_string span))
  | Same { what; a; b; span } ->
      Printf.sprintf "MM_SAME(%s, %s, %s, %d)" (expr st ~prec:0 a)
        (expr st ~prec:0 b)
        (c_string_lit what)
        (span_id st (Support.Pos.span_to_string span))
  | Null { m; span } ->
      Printf.sprintf "MM_NOT_NULL(%s, %d)" (expr st ~prec:0 m)
        (span_id st (Support.Pos.span_to_string span))
  | Dim { m; rank; index; span } ->
      Printf.sprintf "MM_DIM(%s, %d, %s, %d)" (expr st ~prec:0 m) rank
        (expr st ~prec:0 index)
        (span_id st (Support.Pos.span_to_string span))

let rec lvalue = function
  | LVar v -> v
  | LField (lv, i) -> Printf.sprintf "%s.f%d" (lvalue lv) i

(* --- profiler sites ------------------------------------------------------ *)

(* Instrumented emission only.  A sequential loop is a site unless its
   span is exactly the innermost open frame's (tile/vector desugarings
   stack several loops on one span; one frame per span entry is what the
   interpreter records, and skipping the inner copies keeps the hot-path
   overhead down). *)
let seq_loop_span st prov =
  match prov with
  | Some sp when st.instrument -> (
      let s = Support.Pos.span_to_string sp in
      match st.open_spans with
      | top :: _ when String.equal top s -> None
      | _ -> Some (span_id st s, s))
  | _ -> None

(* A parallel loop is always a site: its dispatch decision is exactly
   what the differential profile wants to see. *)
let par_loop_span st prov =
  match prov with
  | Some sp when st.instrument ->
      let s = Support.Pos.span_to_string sp in
      Some (span_id st s, s)
  | _ -> None

(* Located statements are sites only at the top level, like the
   interpreter's profile frames (statement frames nested inside loop
   frames would double every hot span). *)
let located_span st sp =
  if st.instrument && st.open_spans = [] then
    let s = Support.Pos.span_to_string sp in
    Some (span_id st s, s)
  else None

let ctype_decl t name =
  match t with
  | CMat (_, _) -> Printf.sprintf "%s *%s" (ctype_name t) name
  | CVec -> Printf.sprintf "__m128 %s" name
  | t -> Printf.sprintf "%s %s" (ctype_name t) name

(* A [return] inside open sites jumps past their exits; close them
   explicitly (innermost first, with zero counts), so the profiler's
   frames do not leak across the call. *)
let unwind_frames st buf ind =
  List.iter
    (fun s ->
      let id = Hashtbl.find st.span_ids s in
      Buffer.add_string buf
        (Printf.sprintf
           "%sif (mm_prof_live) { if (!mm_prof_skip[%d]) mm_prof_exit(%d, \
            0, 0); else mm_prof_sentries[%d]++; }\n"
           ind id id id))
    st.open_spans

let rec stmt st (buf : Buffer.t) (ind : string) (s : stmt) : unit =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (ind ^ s ^ "\n")) fmt in
  let expr ?prec e = expr st ?prec e and check = check st in
  let block = block st in
  match s with
  | Decl (t, n, None) ->
      (* Initialiser-less declarations get the interpreter's type defaults
         (Eval.default_of_type): a scope-exit mm_rc_dec on a never-assigned
         matrix must see NULL, not stack garbage. *)
      let init =
        match t with
        | CInt -> " = 0"
        | CFloat -> " = 0.0"
        | CBool -> " = false"
        | CMat _ -> " = NULL"
        | CVec -> " = _mm_set1_ps(0.0)"
        | CTuple _ -> " = {0}"
        | CVoid -> ""
      in
      line "%s%s;" (ctype_decl t n) init
  | Decl (t, n, Some e) -> line "%s = %s;" (ctype_decl t n) (expr e)
  | Assign (lv, TupleE es) ->
      (* A bare brace list is only valid in initialisers; an assigned
         tuple literal needs a typed compound literal. *)
      line "%s = (__typeof__(%s)){ %s };" (lvalue lv) (lvalue lv)
        (String.concat ", " (List.map (expr ~prec:0) es))
  | Assign (lv, e) -> line "%s = %s;" (lvalue lv) (expr e)
  | MSetFlat (m, Checked (cs, off), v) ->
      (* The store's checks run as statements before it: C leaves the
         order of an assignment's two sides open, and the interpreter
         checks the offset before it evaluates the value. *)
      List.iter (fun c -> line "%s;" (check c)) cs;
      line "%s->data[%s] = %s;" (expr ~prec:60 m) (expr off) (expr v)
  | MSetFlat (m, off, v) ->
      line "%s->data[%s] = %s;" (expr ~prec:60 m) (expr off) (expr v)
  | Check c -> line "%s;" (check c)
  | VecScatter (m, base, stride, v) ->
      (* No storeu shortcut for stride 1: the buffer is double, so lanes
         widen one by one (exact, matching the interpreter's store). *)
      line "mm_scatter_ps(%s->data, %s, %s, %s);" (expr ~prec:60 m) (expr base)
        (expr stride) (expr v)
  | If (c, a, []) ->
      line "if (%s) {" (expr c);
      block buf (ind ^ "  ") a;
      line "}"
  | If (c, a, b) ->
      line "if (%s) {" (expr c);
      block buf (ind ^ "  ") a;
      line "} else {";
      block buf (ind ^ "  ") b;
      line "}"
  | While (c, b) ->
      line "while (%s) {" (expr c);
      block buf (ind ^ "  ") b;
      line "}"
  | For l ->
      (* Guarded probes: once the runtime freezes span [id]'s timing
         (mm_prof_skip flips), executions are counted inline with no call
         and no clock — a tiny loop entered per element of an enclosing
         loop costs a few loads.  mm_prof_live is 0 inside a dispatched
         parallel region, where probes must not fire. *)
      let site = seq_loop_span st l.prov in
      Option.iter
        (fun (id, _) ->
          line "if (mm_prof_live && !mm_prof_skip[%d]) mm_prof_enter(%d);" id
            id)
        site;
      line "for (int %s = 0; %s < %s; %s++) {" l.index l.index
        (expr ~prec:31 l.bound) l.index;
      within st ?site:(Option.map snd site) l.prov (fun () ->
          block buf (ind ^ "  ") l.body);
      line "}";
      Option.iter
        (fun (id, _) ->
          line "if (mm_prof_live) {";
          line "  if (!mm_prof_skip[%d]) mm_prof_exit(%d, (long long) (%s), 0);"
            id id (expr l.bound);
          line
            "  else { mm_prof_sentries[%d]++; mm_prof_siters[%d] += (long \
             long) (%s); }"
            id id (expr l.bound);
          line "}")
        site
  | ParFor l -> (
      match par_loop_span st l.prov with
      | Some (id, sp) ->
          (* The worker-time probe lives inside the parallel region but
             outside the work-shared loop, so each thread reports its own
             busy window.  Without OpenMP the pragmas vanish and the block
             runs once on the lone thread; mm_prof_worker is then a no-op
             because no region was installed. *)
          line "mm_prof_enter_par(%d);" id;
          line "#pragma omp parallel";
          line "{";
          line "  long long __mm_prof_w = mm_prof_now();";
          line "#pragma omp for%s"
            (if l.dynamic then " schedule(dynamic, 1)" else "");
          line "  for (int %s = 0; %s < %s; %s++) {" l.index l.index
            (expr ~prec:31 l.bound) l.index;
          within st ~site:sp l.prov (fun () -> block buf (ind ^ "    ") l.body);
          line "  }";
          line "  mm_prof_worker(%d, mm_prof_now() - __mm_prof_w);" id;
          line "}";
          line "mm_prof_exit_par(%d, (long long) (%s));" id (expr l.bound)
      | None ->
          line "#pragma omp parallel for%s"
            (if l.dynamic then " schedule(dynamic, 1)" else "");
          line "for (int %s = 0; %s < %s; %s++) {" l.index l.index
            (expr ~prec:31 l.bound) l.index;
          within st l.prov (fun () -> block buf (ind ^ "  ") l.body);
          line "}")
  | ExprS e -> line "%s;" (expr e)
  | Return None ->
      unwind_frames st buf ind;
      line "return;"
  | Return (Some (TupleE es))
    when (match st.ret with CTuple _ -> true | _ -> false) ->
      unwind_frames st buf ind;
      line "return (%s){ %s };" (ctype_name st.ret)
        (String.concat ", " (List.map (expr ~prec:0) es))
  | Return (Some e) ->
      unwind_frames st buf ind;
      line "return %s;" (expr e)
  | Break -> line "break;"
  | Continue -> line "continue;"
  | RcInc e -> line "mm_rc_inc(%s);" (expr e)
  | RcDec e -> line "mm_rc_dec(%s);" (expr e)
  | MWrite (p, m) ->
      line "mm_write_matrix(%s, %s, %d);" (expr p) (expr m) (fault_id st)
  | Comment c -> line "/* %s */" c
  | Block b ->
      line "{";
      block buf (ind ^ "  ") b;
      line "}"
  | Spawn (None, f, args) ->
      line "cilk_spawn %s(%s);" f
        (String.concat ", " (List.map (expr ~prec:0) args))
  | Spawn (Some lv, f, args) ->
      line "%s = cilk_spawn %s(%s);" (lvalue lv) f
        (String.concat ", " (List.map (expr ~prec:0) args))
  | Sync -> line "cilk_sync;"
  | Located (sp, b) ->
      (* Not a C scope: print the inner statements at the current indent so
         declarations stay visible to later siblings. *)
      (match st.line_file with
      | Some file ->
          Buffer.add_string buf
            (Printf.sprintf "#line %d %S\n" sp.Support.Pos.left.Support.Pos.line
               file)
      | None -> ());
      (* Same guarded probes as For loops: statements in a function called
         per element of a hot loop execute far too often for an
         unconditional call per probe. *)
      let site = located_span st sp in
      Option.iter
        (fun (id, _) ->
          line "if (mm_prof_live && !mm_prof_skip[%d]) mm_prof_enter(%d);" id
            id)
        site;
      within st ?site:(Option.map snd site) (Some sp) (fun () ->
          block buf ind b);
      (* a block that returns has unwound the site already *)
      Option.iter
        (fun (id, _) ->
          if not (ends_with_return b) then begin
            line "if (mm_prof_live) {";
            line "  if (!mm_prof_skip[%d]) mm_prof_exit(%d, 0, 0);" id id;
            line "  else mm_prof_sentries[%d]++;" id;
            line "}"
          end)
        site
  | Site (_, b) ->
      (* Decision wrapper, not a scope: a finished pipeline leaves none of
         these behind, but the pretty-printer is also used on intermediate
         IR ([--dump-ir]), where the payload prints transparently. *)
      block buf ind b

and block st buf ind stmts = List.iter (stmt st buf ind) stmts

let signature (f : func) : string =
  let params =
    match f.f_params with
    | [] -> "void"
    | ps -> String.concat ", " (List.map (fun (t, n) -> ctype_decl t n) ps)
  in
  let ret =
    match f.f_ret with
    | CMat (_, _) as t -> ctype_name t ^ " *"
    | t -> ctype_name t ^ " "
  in
  Printf.sprintf "%s%s(%s)" ret f.f_name params

let func st (f : func) : string =
  let buf = Buffer.create 256 in
  st.ret <- f.f_ret;
  st.at <- Option.map Support.Pos.span_to_string f.f_span;
  Buffer.add_string buf (signature f ^ " {\n");
  block st buf "  " f.f_body;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(* --- whole-program sections -------------------------------------------- *)

(* Tuple types lower to C structs, which need typedefs up front — nested
   tuples first, so each struct's field types are already defined. *)
let rec add_tuple_types acc t =
  match t with
  | CTuple ts ->
      let acc = List.fold_left add_tuple_types acc ts in
      if List.mem t acc then acc else acc @ [ t ]
  | CInt | CFloat | CBool | CVoid | CMat _ | CVec -> acc

let rec stmt_tuple_types acc s =
  match s with
  | Decl (t, _, _) -> add_tuple_types acc t
  | If (_, a, b) ->
      List.fold_left stmt_tuple_types (List.fold_left stmt_tuple_types acc a) b
  | While (_, b) | Block b | Located (_, b) | Site (_, b) ->
      List.fold_left stmt_tuple_types acc b
  | For l | ParFor l -> List.fold_left stmt_tuple_types acc l.body
  | _ -> acc

let tuple_types (p : program) =
  List.fold_left
    (fun acc f ->
      let acc = add_tuple_types acc f.f_ret in
      let acc =
        List.fold_left (fun a (t, _) -> add_tuple_types a t) acc f.f_params
      in
      List.fold_left stmt_tuple_types acc f.f_body)
    [] p.funcs

(* Vector code needs mm_simd.h, and only vector code does: a scalar
   program skips parsing <xmmintrin.h>.  Vectorization leaves [Vec*]
   expressions and [CVec] declarations behind. *)
let uses_simd (p : program) =
  let found = ref false in
  let fe e =
    (match e with
    | VecSplat _ | VecGather _ | VecBin _ | VecHsum _ -> found := true
    | _ -> ());
    e
  in
  let fs s =
    (match s with Decl (CVec, _, _) -> found := true | _ -> ());
    s
  in
  List.iter (fun f -> ignore (map_stmts fe fs f.f_body)) p.funcs;
  !found

let tuple_typedef = function
  | CTuple ts as t ->
      let fields =
        List.mapi (fun i ft -> ctype_decl ft (Printf.sprintf "f%d" i) ^ ";") ts
      in
      Printf.sprintf "typedef struct { %s } %s;" (String.concat " " fields)
        (ctype_name t)
  | _ -> invalid_arg "Emit.tuple_typedef"

(* Forward declarations: lowered call graphs are not topologically sorted
   (matrixMap helpers land after their caller), so every function gets a
   prototype.  "main" is skipped — C gives it an implicit one. *)
let prototypes (p : program) =
  List.filter_map
    (fun f -> if f.f_name = "main" then None else Some (signature f ^ ";"))
    p.funcs

let preamble ~simd =
  String.concat "\n"
    ([
       "/* Generated by mmc — extensible CMINUS translator.";
       "   Matrix constructs have been translated to plain parallel C";
       "   over the mm_runtime flat-buffer matrix API. */";
       "#include <stdbool.h>";
       "#include \"mm_runtime.h\"";
     ]
    @ (if simd then [ "#include \"mm_simd.h\"" ] else [])
    @ [ "" ])

(* --- exec harness ------------------------------------------------------ *)

(* C reserves "main" for the harness's generated entry point; a program
   whose entry is literally named main gets it renamed, call sites
   included. *)
let harness_entry_name = "mm_prog_main"

let rename_entry (p : program) : program =
  if p.main <> "main" then p
  else
    let fe = function
      | Call ("main", args) -> Call (harness_entry_name, args)
      | e -> e
    in
    let fs = function
      | Spawn (lv, "main", args) -> Spawn (lv, harness_entry_name, args)
      | s -> s
    in
    let funcs =
      List.map
        (fun f ->
          {
            f with
            f_name = (if f.f_name = "main" then harness_entry_name else f.f_name);
            f_body = map_stmts fe fs f.f_body;
          })
        p.funcs
    in
    { funcs; main = harness_entry_name }

(* The interpreter binds absent entry arguments to type defaults
   (Eval.default_of_type); the harness passes the same defaults. *)
let default_arg = function
  | CInt -> Int 0
  | CFloat -> Float 0.
  | CBool -> Bool false
  | CMat _ -> Var "NULL"
  | CVec -> VecSplat (Float 0.)
  | CVoid | CTuple _ -> Int 0

(* Statements printing value [e] of type [t] through the runtime's result
   protocol (parsed back by Native.Exec). *)
let rec result_stmts (t : ctype) (e : expr) : stmt list =
  match t with
  | CInt -> [ ExprS (Call ("mm_result_int", [ e ])) ]
  | CFloat -> [ ExprS (Call ("mm_result_float", [ e ])) ]
  | CBool -> [ ExprS (Call ("mm_result_bool", [ e ])) ]
  | CVoid -> [ ExprS (Call ("mm_result_void", [])) ]
  | CVec -> [ ExprS (Call ("mm_result_float", [ VecHsum e ])) ]
  | CMat _ ->
      [
        If
          ( e,
            [ ExprS (Call ("mm_result_mat", [ e ])) ],
            [ ExprS (Call ("mm_result_null", [])) ] );
      ]
  | CTuple ts ->
      ExprS (Call ("mm_result_tuple", [ Int (List.length ts) ]))
      :: List.concat (List.mapi (fun i ft -> result_stmts ft (Field (e, i))) ts)

let harness_main ~instrument (p : program) : func =
  let entry =
    match List.find_opt (fun f -> f.f_name = p.main) p.funcs with
    | Some f -> f
    | None -> invalid_arg ("Emit: unknown entry function " ^ p.main)
  in
  let call =
    Call (entry.f_name, List.map (fun (t, _) -> default_arg t) entry.f_params)
  in
  (* Instrumented harness: start the profiler before the entry call, stop
     the clock the moment it returns (result printing is not program
     time), and print the profile as the protocol's last line, after
     [__mm_live].  mm_init runs before anything else: it hands the
     runtime the span table and arms MM_FAILPOINTS (disarmed failpoints
     cost one load). *)
  let supervise_init =
    [ ExprS (Call ("mm_init", [ Var "MM_NSPANS"; Var "mm_spans" ])) ]
  in
  let prof_init =
    if instrument then [ ExprS (Call ("mm_prof_init", [])) ] else []
  and prof_stop =
    if instrument then [ ExprS (Call ("mm_prof_stop", [])) ] else []
  and prof_dump =
    if instrument then
      [ ExprS (Call ("mm_prof_dump", [])) ]
    else []
  in
  let body =
    supervise_init @ prof_init
    @ (match entry.f_ret with
      | CVoid ->
          (ExprS call :: prof_stop) @ [ ExprS (Call ("mm_result_void", [])) ]
      | t ->
          (Decl (t, "__mm_r", Some call) :: prof_stop)
          @ result_stmts t (Var "__mm_r"))
    @ [ ExprS (Call ("mm_result_live", [])) ]
    @ prof_dump
    @ [ Return (Some (Int 0)) ]
  in
  { f_name = "main"; f_params = []; f_ret = CInt; f_body = body;
    f_span = None; f_origin = None }

(* The generated span table: ids index the array, whose entries are the
   interpreter's span strings (the profilers' rows, the faults' carets),
   so the two backends join row-for-row on the rendered span.
   Non-static: external linkage keeps -Wunused quiet for programs whose
   harness is compiled separately. *)
let span_table st =
  let names = List.rev st.span_order in
  String.concat "\n"
    ([
       Printf.sprintf "#define MM_NSPANS %d" (List.length names);
       "const char *const mm_spans[] = {";
     ]
    @ (match names with
      | [] -> [ "  0" ]
      | _ -> List.map (fun s -> "  " ^ c_string_lit s ^ ",") names)
    @ [ "};"; ""; "" ])

(** [program ?line_directives_file ?instrument ?exec_harness p] — the
    full translation unit: the checked program and the span table its
    checks and fallible calls name.  With [exec_harness] the entry
    function is renamed away from [main] if necessary and a generated
    [int main] hands the runtime the span table, calls the entry, prints
    its result (plus the live-allocation count) through the result
    protocol, and returns 0 — making the output a complete, runnable
    program.  With [instrument] provenance-carrying loops and statements
    are also wrapped in mm_prof enter/exit calls, and the harness
    initialises, stops, and dumps the profiler. *)
let program ?line_directives_file ?(instrument = false)
    ?(exec_harness = false) (p : program) : string =
  let st = state ?line_file:line_directives_file ~instrument () in
  let p = if exec_harness then rename_entry p else p in
  let p =
    if exec_harness then
      { p with funcs = p.funcs @ [ harness_main ~instrument p ] }
    else p
  in
  let section = function
    | [] -> ""
    | lines -> String.concat "\n" lines ^ "\n\n"
  in
  (* The function bodies must be rendered first: emitting them is what
     populates the span table the header sections then print. *)
  let funcs_text = String.concat "\n" (List.map (func st) p.funcs) in
  preamble ~simd:(uses_simd p)
  ^ (if instrument then "#include \"mm_prof.h\"\n\n" else "")
  ^ section (List.map tuple_typedef (tuple_types p))
  ^ section (prototypes p)
  ^ span_table st ^ funcs_text

(** Emission of a single statement list (golden tests on loop shapes,
    [--dump-ir] snapshots of a transformed nest). *)
let stmts (ss : stmt list) : string =
  let buf = Buffer.create 256 in
  block (state ()) buf "" ss;
  Buffer.contents buf

(** Emission of a single expression. *)
let expr ?prec e = expr (state ()) ?prec e
