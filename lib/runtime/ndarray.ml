(** Dense row-major matrices of float/int/bool — the runtime representation
    of the matrix extension's values (§III-A).  The extension lowers every
    matrix operation, indexing mode and with-loop to plain loops over
    {!get_flat}/{!set_flat} (§II, §III-A3), so this module holds only
    storage: construction, element access, comparison, printing and the
    [readMatrix]/[writeMatrix] file format.  It keeps no account of
    allocations: the interpreter charges each matrix it allocates to the
    run's {!Rc} ledger and to the profiler. *)

type elem = EFloat | EInt | EBool

let elem_name = function EFloat -> "float" | EInt -> "int" | EBool -> "bool"

(* An element's bytes in a native payload (sizeof mm_float, int and
   bool), which both backends' memory accounts charge. *)
let elem_bytes = function EFloat -> 8 | EInt -> 4 | EBool -> 1

type buf = F of float array | I of int array | B of bool array

type t = {
  shape : Shape.t;
  size : int;  (** the element count, [Shape.size shape] *)
  buf : buf;
  off : int;
      (** where element 0 lies in [buf]: 0 except in a {!view}, which
          shares another matrix's buffer *)
}

exception Type_error of string

exception Io_error of string
(** Structured matrix-file failure ([readMatrix] on a missing, truncated
    or garbage file): the message always names the file, the byte offset
    where reading failed, and what was expected there. *)

let terr fmt = Format.kasprintf (fun m -> raise (Type_error m)) fmt
let io_err fmt = Format.kasprintf (fun m -> raise (Io_error m)) fmt

(* Fault-injection sites: every matrix allocation, and the entry of the
   readMatrix builtin. *)
let fp_alloc = Support.Failpoint.register "ndarray.alloc"
let fp_read = Support.Failpoint.register "io.read_matrix"

let shape m = m.shape
let rank m = Shape.rank m.shape
let size m = m.size

let elem m = match m.buf with F _ -> EFloat | I _ -> EInt | B _ -> EBool

(** [dim_size m d] — the [dimSize(m, d)] builtin. *)
let dim_size m d =
  if d < 0 || d >= rank m then
    Shape.err "dimSize: dimension %d out of range for %s" d
      (Shape.to_string m.shape)
  else m.shape.(d)

(* Plausibility bounds on a parsed header: binary garbage can decode to
   any rank/extent, and without these caps a corrupt file turns into a
   multi-gigabyte allocation attempt instead of a diagnostic.  An
   allocation is held to [max_elems] too. *)
let max_rank = 16
let max_extent = 1 lsl 24
let max_elems = 1 lsl 28

(** [elems shape] — the element count of nonnegative extents,
    saturating above {!max_elems}: five extents of 65536, or eight of
    2^24, would overflow an int and could wrap to 0. *)
let elems sh =
  Array.fold_left
    (fun n e ->
      if n = 0 || e = 0 then 0
      else if n > max_elems || e > max_elems then max_elems + 1
      else n * e)
    1 sh

(** [create e shape] — zero/false-initialised matrix: the [init] builtin,
    and every matrix the interpreter allocates.  The [ndarray.alloc]
    failpoint fires {e before} the buffer exists, modelling an allocation
    failure that leaves no trace behind.  A negative extent, or more than
    {!max_elems} elements, is a {!Shape.Shape_error}, worded as the
    native runtime's [mm_alloc] words it. *)
let create e sh =
  Support.Failpoint.hit fp_alloc;
  Array.iteri
    (fun d x ->
      if x < 0 then Shape.err "negative matrix extent %d in dimension %d" x d)
    sh;
  if elems sh > max_elems then
    Shape.err "shape %s holds more than %d elements" (Shape.to_string sh)
      max_elems;
  let n = Shape.size sh in
  let buf =
    match e with
    | EFloat -> F (Array.make n 0.)
    | EInt -> I (Array.make n 0)
    | EBool -> B (Array.make n false)
  in
  { shape = Array.copy sh; size = n; buf; off = 0 }

(** [view m ~off sh] — the elements of [m] from flat offset [off] on, as
    a matrix of shape [sh] sharing [m]'s buffer: a store through either
    is seen through both.  The view must lie inside [m]. *)
let view m ~off sh =
  let n = Shape.size sh in
  if off < 0 || off + n > m.size then
    Shape.err "view of %d elements at offset %d outside %s" n off
      (Shape.to_string m.shape);
  { shape = Array.copy sh; size = n; buf = m.buf; off = m.off + off }

(* [m]'s own elements: its buffer, or for a view a copy of its part of
   the buffer it shares. *)
let contents m =
  let n = m.size in
  let part a =
    if m.off = 0 && Array.length a = n then a else Array.sub a m.off n
  in
  match m.buf with F a -> F (part a) | I a -> I (part a) | B a -> B (part a)

let init_float sh f =
  let n = Shape.size sh in
  let a = Array.init n (fun off -> f (Shape.unoffset sh off)) in
  { shape = Array.copy sh; size = n; buf = F a; off = 0 }

let init_int sh f =
  let n = Shape.size sh in
  let a = Array.init n (fun off -> f (Shape.unoffset sh off)) in
  { shape = Array.copy sh; size = n; buf = I a; off = 0 }

let of_float_array sh a =
  if Array.length a <> Shape.size sh then
    Shape.err "of_float_array: %d elements for shape %s" (Array.length a)
      (Shape.to_string sh);
  {
    shape = Array.copy sh;
    size = Array.length a;
    buf = F (Array.copy a);
    off = 0;
  }

let of_int_array sh a =
  if Array.length a <> Shape.size sh then
    Shape.err "of_int_array: %d elements for shape %s" (Array.length a)
      (Shape.to_string sh);
  {
    shape = Array.copy sh;
    size = Array.length a;
    buf = I (Array.copy a);
    off = 0;
  }

let of_bool_array sh a =
  if Array.length a <> Shape.size sh then
    Shape.err "of_bool_array: %d elements for shape %s" (Array.length a)
      (Shape.to_string sh);
  {
    shape = Array.copy sh;
    size = Array.length a;
    buf = B (Array.copy a);
    off = 0;
  }

(** 1-D int vector from a list. *)
let vec_i xs = of_int_array [| List.length xs |] (Array.of_list xs)

(* --- flat accessors ------------------------------------------------------ *)

let get_flat m off : Scalar.t =
  let off = m.off + off in
  match m.buf with
  | F a -> Scalar.F a.(off)
  | I a -> Scalar.I a.(off)
  | B a -> Scalar.B a.(off)

(* The element at flat offset [off] at a static type, without an
   intermediate {!Scalar.t}: the interpreter's typed reads.  A buffer of
   another kind converts as {!Scalar.to_int} and {!Scalar.to_float} do,
   and as a C condition tests a number. *)
let get_flat_int m off =
  match m.buf with
  | I a -> a.(m.off + off)
  | F a -> int_of_float a.(m.off + off)
  | B _ -> Scalar.err "boolean used as integer"

let get_flat_float m off =
  match m.buf with
  | F a -> a.(m.off + off)
  | I a -> float_of_int a.(m.off + off)
  | B _ -> Scalar.err "boolean used as number"

let get_flat_bool m off =
  match m.buf with
  | B a -> a.(m.off + off)
  | I a -> a.(m.off + off) <> 0
  | F a -> a.(m.off + off) <> 0.

let cannot_store m v =
  terr "cannot store %s into %s matrix" (Scalar.to_string v)
    (elem_name (elem m))

(* Typed stores: an int stored into a float matrix converts; any other
   mismatch is a {!Type_error}. *)
let set_flat_int m off x =
  match m.buf with
  | I a -> a.(m.off + off) <- x
  | F a -> a.(m.off + off) <- float_of_int x
  | B _ -> cannot_store m (Scalar.I x)

let set_flat_float m off x =
  match m.buf with
  | F a -> a.(m.off + off) <- x
  | I _ | B _ -> cannot_store m (Scalar.F x)

let set_flat_bool m off x =
  match m.buf with
  | B a -> a.(m.off + off) <- x
  | I _ | F _ -> cannot_store m (Scalar.B x)

let set_flat m off (v : Scalar.t) =
  match v with
  | Scalar.I x -> set_flat_int m off x
  | Scalar.F x -> set_flat_float m off x
  | Scalar.B x -> set_flat_bool m off x

let get m idx = get_flat m (Shape.offset m.shape idx)
let set m idx v = set_flat m (Shape.offset m.shape idx) v

(* --- structural ----------------------------------------------------------- *)

let equal a b =
  Shape.equal a.shape b.shape
  &&
  match (contents a, contents b) with
  | F x, F y -> x = y
  | I x, I y -> x = y
  | B x, B y -> x = y
  | _ -> false

(** Approximate float equality with tolerance, for parallel-vs-serial and
    transformed-vs-baseline comparisons (FP reassociation). *)
let approx_equal ?(eps = 1e-6) a b =
  Shape.equal a.shape b.shape
  &&
  match (contents a, contents b) with
  | F x, F y ->
      let ok = ref true in
      Array.iteri
        (fun i v ->
          let d = abs_float (v -. y.(i)) in
          let scale = max 1. (max (abs_float v) (abs_float y.(i))) in
          if d > eps *. scale then ok := false)
        x;
      !ok
  | _ -> equal a b

let pp ppf m =
  let n = size m in
  let elems =
    List.init (min n 16) (fun i -> Scalar.to_string (get_flat m i))
  in
  Fmt.pf ppf "Matrix %s %s {%s%s}" (elem_name (elem m))
    (Shape.to_string m.shape)
    (String.concat ", " elems)
    (if n > 16 then ", …" else "")

let to_string m = Fmt.str "%a" pp m

(* --- matrix files (readMatrix / writeMatrix builtins) --------------------- *)

(* MMAT3: [magic], the kind byte ('f', 'i' or 'b'), the rank and each
   extent as 4-byte big-endian ints, zero bytes up to the next multiple
   of 64 ([payload_offset]), then the elements as raw little-endian
   values: a float as its IEEE-754 binary64 bits (so NaN payloads and
   -0.0 survive), an int as int64, a bool as one byte 0 or 1.
   runtime/c/mm_runtime.c reads and writes the same bytes, and both
   backends reject the same files; the padding lets it map a float
   payload instead of copying it.  Elements move through one
   [io_chunk]-byte buffer in each direction, so a file of any size costs
   one chunk beyond the matrix itself. *)
let magic = "MMAT3\n"
let io_chunk = 65536

(** [payload_offset rank] — where an MMAT3 payload starts: the header's
    [11 + 4 * rank] bytes rounded up to a multiple of 64. *)
let payload_offset rank = (11 + (4 * rank) + 63) land lnot 63

(* [chunks n ~width f] calls [f i k] for consecutive runs [i, i+k) of
   [n] elements of [width] bytes, each run filling at most one chunk. *)
let chunks n ~width f =
  let per = io_chunk / width in
  let rec go i =
    if i < n then begin
      let k = min per (n - i) in
      f i k;
      go (i + k)
    end
  in
  go 0

(* Distinguishes the temporary files of concurrent writers in one
   process; the pid distinguishes processes. *)
let tmp_seq = Atomic.make 0

(** [write_file path m] — the [writeMatrix] builtin: an MMAT3 file.  It
    is written as a uniquely named temporary file beside [path], with the
    permissions a new file gets, and renamed over [path], so a file the
    native runtime has mapped is replaced, never truncated under the
    mapping.  A target that cannot be replaced raises {!Io_error} naming
    it, worded as the native runtime words it, and the temporary file is
    removed. *)
let write_file path m =
  let cannot_open e =
    io_err "writeMatrix %S: cannot open: %s: %s" path path
      (Unix.error_message e)
  in
  let rec create () =
    let tmp =
      Printf.sprintf "%s.%d.%d.tmp" path (Unix.getpid ())
        (Atomic.fetch_and_add tmp_seq 1)
    in
    match Unix.openfile tmp [ O_WRONLY; O_CREAT; O_EXCL; O_CLOEXEC ] 0o666 with
    | fd -> (tmp, fd)
    | exception Unix.Unix_error (EEXIST, _, _) -> create ()
    | exception Unix.Unix_error (e, _, _) -> cannot_open e
  in
  let tmp, fd = create () in
  let oc = Unix.out_channel_of_descr fd in
  set_binary_mode_out oc true;
  (try
     output_string oc magic;
     let kind = match elem m with EFloat -> 'f' | EInt -> 'i' | EBool -> 'b' in
     output_char oc kind;
     output_binary_int oc (rank m);
     Array.iter (output_binary_int oc) m.shape;
     output_string oc
       (String.make (payload_offset (rank m) - 11 - (4 * rank m)) '\000');
     let b = Bytes.create io_chunk in
     let put n ~width fill =
       chunks n ~width (fun i k ->
           fill i k;
           output oc b 0 (k * width))
     in
     (match contents m with
     | F a ->
         put (Array.length a) ~width:8 (fun i k ->
             for j = 0 to k - 1 do
               Bytes.set_int64_le b (8 * j)
                 (Int64.bits_of_float (Array.unsafe_get a (i + j)))
             done)
     | I a ->
         put (Array.length a) ~width:8 (fun i k ->
             for j = 0 to k - 1 do
               Bytes.set_int64_le b (8 * j)
                 (Int64.of_int (Array.unsafe_get a (i + j)))
             done)
     | B a ->
         put (Array.length a) ~width:1 (fun i k ->
             for j = 0 to k - 1 do
               Bytes.unsafe_set b j
                 (if Array.unsafe_get a (i + j) then '\001' else '\000')
             done));
     close_out oc
   with e ->
     close_out_noerr oc;
     Sys.remove tmp;
     raise e);
  try Unix.rename tmp path
  with Unix.Unix_error (e, _, _) ->
    Sys.remove tmp;
    cannot_open e

(* Magics of formats no longer read, and what each was. *)
let old_formats =
  [
    ("MMAT1\n", "the old decimal text format");
    ("MMAT2\n", "the old unpadded binary format");
  ]

(** [read_file path] — the [readMatrix] builtin.  Every failure mode — a
    missing file, wrong magic (an MMAT1 or MMAT2 file is named as an old
    format), an implausible header, nonzero padding, a payload shorter or
    longer than the header implies, or a bool byte other than 0 or 1 —
    raises
    {!Io_error} naming the file, the byte offset where reading failed and
    what was expected there, instead of leaking [End_of_file] /
    [Sys_error]. *)
let read_file path =
  Support.Failpoint.hit fp_read;
  let ic =
    try open_in_bin path
    with Sys_error m -> io_err "readMatrix %S: cannot open: %s" path m
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (* [expected] describes what a well-formed file would contain at
         the failing offset, e.g. "extent of dimension 2". *)
      let guarded ~expected f =
        try f () with
        | End_of_file ->
            io_err "readMatrix %S: file is truncated at offset %d (expected %s)"
              path (pos_in ic) expected
        | Sys_error m ->
            io_err "readMatrix %S: read error at offset %d: %s" path
              (pos_in ic) m
      in
      let m =
        guarded ~expected:(Printf.sprintf "magic %S" magic) (fun () ->
            really_input_string ic (String.length magic))
      in
      Option.iter
        (fun what ->
          io_err
            "readMatrix %S: %s at offset 0 is %s, which is no longer read \
             (expected magic %S; write the matrix again with writeMatrix)"
            path (String.sub m 0 5) what magic)
        (List.assoc_opt m old_formats);
      if m <> magic then
        io_err "readMatrix %S: bad magic %S at offset 0 (expected %S)" path m
          magic;
      let kind =
        guarded ~expected:"element kind 'f', 'i' or 'b'" (fun () ->
            input_char ic)
      in
      if kind <> 'f' && kind <> 'i' && kind <> 'b' then
        io_err "readMatrix %S: unknown element kind %C at offset %d \
                (expected 'f', 'i' or 'b')"
          path kind
          (pos_in ic - 1);
      let r = guarded ~expected:"rank" (fun () -> input_binary_int ic) in
      if r < 0 || r > max_rank then
        io_err "readMatrix %S: implausible rank %d at offset %d (expected 0..%d)"
          path r (pos_in ic - 4) max_rank;
      let sh =
        Array.init r (fun d ->
            let e =
              guarded
                ~expected:(Printf.sprintf "extent of dimension %d" d)
                (fun () -> input_binary_int ic)
            in
            if e < 0 || e > max_extent then
              io_err
                "readMatrix %S: implausible extent %d in dimension %d at \
                 offset %d (expected 0..%d)"
                path e d (pos_in ic - 4) max_extent;
            e)
      in
      let n = elems sh in
      if n > max_elems then
        io_err "readMatrix %S: shape %s holds more than %d elements" path
          (Shape.to_string sh) max_elems;
      let start = payload_offset r in
      let expected = Printf.sprintf "zero padding up to offset %d" start in
      for at = pos_in ic to start - 1 do
        match guarded ~expected (fun () -> input_char ic) with
        | '\000' -> ()
        | c ->
            io_err
              "readMatrix %S: nonzero padding byte %d at offset %d (expected \
               0 up to the payload at offset %d)"
              path (Char.code c) at start
      done;
      (* The payload size is fixed by the header: check it against the
         file before allocating. *)
      let width = if kind = 'b' then 1 else 8 in
      let size = start + (n * width) in
      let len =
        guarded ~expected:"a payload" (fun () -> in_channel_length ic)
      in
      let what = match kind with 'f' -> "float" | 'i' -> "int" | _ -> "bool" in
      if len < size then
        io_err
          "readMatrix %S: file is truncated at offset %d (expected element %d \
           of %d (%s) for shape %s; the header implies %d bytes)"
          path len ((len - start) / width) n what (Shape.to_string sh) size;
      if len > size then
        io_err
          "readMatrix %S: trailing data at offset %d (the file has %d bytes; \
           the header implies %d for shape %s)"
          path size len size (Shape.to_string sh);
      let b = Bytes.create io_chunk in
      let get ~width decode =
        chunks n ~width (fun i k ->
            guarded ~expected:"the rest of the payload" (fun () ->
                really_input ic b 0 (k * width));
            decode i k)
      in
      match kind with
      | 'f' ->
          let a = Array.create_float n in
          get ~width:8 (fun i k ->
              for j = 0 to k - 1 do
                Array.unsafe_set a (i + j)
                  (Int64.float_of_bits (Bytes.get_int64_le b (8 * j)))
              done);
          { shape = sh; size = n; buf = F a; off = 0 }
      | 'i' ->
          let a = Array.make n 0 in
          get ~width:8 (fun i k ->
              for j = 0 to k - 1 do
                Array.unsafe_set a (i + j)
                  (Int64.to_int (Bytes.get_int64_le b (8 * j)))
              done);
          { shape = sh; size = n; buf = I a; off = 0 }
      | _ ->
          let a = Array.make n false in
          get ~width:1 (fun i k ->
              for j = 0 to k - 1 do
                match Bytes.unsafe_get b j with
                | '\000' -> ()
                | '\001' -> Array.unsafe_set a (i + j) true
                | c ->
                    io_err
                      "readMatrix %S: bad bool byte %d for element %d at \
                       offset %d (expected 0 or 1)"
                      path (Char.code c) (i + j) (start + i + j)
              done);
          { shape = sh; size = n; buf = B a; off = 0 })
