(** Executor for lowered programs: {!run} compiles a CIR program once into
    closures chosen by each expression's static type, over frames that
    keep scalar locals unboxed, then calls its entry function on the
    parallel matrix runtime (DESIGN.md §3d). *)

type value =
  | VUnit
  | VNull  (** uninitialised matrix handle (C's NULL pointer) *)
  | VScal of Runtime.Scalar.t
  | VMat of Runtime.Ndarray.t Runtime.Rc.t
  | VVec of Runtime.Simd.v
  | VTuple of value array

exception Interp_error of string
(** A failure of the program itself (unbound name, bad operand, out of
    bounds access …) raised outside any provenance span. *)

exception Runtime_error of string * Support.Pos.span
(** A runtime failure enriched with the provenance span of the innermost
    [Located] block or loop that was executing — the driver renders it
    with the same caret excerpt as a static diagnostic. *)

val message_of_exn : exn -> string option
(** [message_of_exn e] — the diagnostic text of a runtime failure that
    carries no span yet ({!Interp_error}, a shape, type, I/O or
    reference-count error, an injected fault); [None] for any other
    exception. *)

val pp_value : value Fmt.t

val default_of_type : Cir.Ir.ctype -> value
(** The value of a [Decl] without initialiser, as the emitted C's
    initialisers give it: zero, [false], [NULL] or [void]. *)

val data_path : dir:string -> string -> string
(** [data_path ~dir path] — the file a program's [readMatrix path] /
    [writeMatrix path] resolves to under [dir]: path separators flatten
    to ['_'], as in both backends. *)

val run :
  ?pool:Runtime.Pool.t -> ?dir:string -> Cir.Ir.program -> value list -> value
(** [run ?pool ?dir prog args] — compile [prog] and call its entry
    function with [args].  [ParFor] loops run on [pool] (sequentially
    without one).  [dir] hosts the program's matrix files; without it they
    go to a fresh temporary directory, removed with its contents when
    [run] returns or raises.  The run counts its matrices in a ledger of
    its own ({!Runtime.Rc.start}), which the [Rc] accessors read once it
    has started; an aborted run discards it ({!Runtime.Rc.discard})
    before the exception escapes. *)

val provide_input : dir:string -> string -> Runtime.Ndarray.t -> unit
(** [provide_input ~dir path m] — place matrix [m] where a translated
    program's [readMatrix path] will find it. *)

val fetch_output : dir:string -> string -> Runtime.Ndarray.t
(** [fetch_output ~dir path] — read back a matrix the program wrote with
    [writeMatrix path]. *)
