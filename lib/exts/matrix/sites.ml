(** The matrix extension's optimization-decision sites.

    The baseline lowering ({!Lower}) emits the unoptimized statements for
    each decision wrapped in one of these [Site] payloads; the extension's
    CIR passes ({!Passes}) consume them.  Each payload carries exactly the
    facts the decision needs — computed at lowering time, where the AST
    context (e.g. the whole-function alias analysis) is still in reach. *)

(** Which recognised loop shape an {!AutoPar} site wraps — each shape has
    its own promotion rule and remark wording (§III-C). *)
type autopar_kind =
  | Elemwise  (** elementwise loop: each flat index writes one element *)
  | MatmulRow  (** matrix-multiplication row loop *)
  | WithGen  (** with-loop genarray generator nest *)
  | FoldAcc
      (** with-loop fold nest: never promoted — iterations race on the
          single accumulator *)
  | MatrixMap of string
      (** matrixMap dispatch loop; carries the mapped function's name for
          the remark *)

(** A one-dimensional slice [Matrix t <1> var = m[e1, …, :, …, en];]
    — the facts that let its reads go to [m] in place (§III-A5, the Fig 1
    → Fig 3 rewrite). *)
type fiber = {
  var : string;  (** the variable the declaration binds *)
  index : string;  (** the payload's copy-loop index *)
  offset : Cir.Ir.expr;
      (** [m]'s flat offset of the element copied at [index]: a read
          [var[k]] reads [m] at [offset] with [index] replaced by [k] *)
  extent : Cir.Ir.expr;  (** [m]'s extent in the kept dimension *)
  decl : Support.Pos.span;  (** the whole declaration statement *)
}

(** What a {!Producer} site's temporary holds. *)
type producer =
  | Range  (** the index vector [lo::hi] *)
  | Elementwise  (** the result of an elementwise or unary operator *)

(** What a slice selects, which decides what copy elimination may do. *)
type slice_shape =
  | Identity  (** [m[:, …, :]]: the copy may become an alias of [m] *)
  | Fiber of fiber
  | Other  (** any other selection: always copied *)

(** Where a matrixMap fiber lies in one piece: a matrix, and the flat
    offset of the fiber's first element in it. *)
type place = { buf : string; offset : Cir.Ir.expr }

type Cir.Ir.site +=
  | FuseCopy of {
      result : string;  (** the with-loop's result matrix *)
      copy : string;  (** the library-style copy of it (payload decl) *)
      span : Support.Pos.span;
    }
      (** Payload: the library-style result copy (§III-A5) — comment,
          copy allocation + loop, release of [result].  Fusion deletes the
          payload and renames [copy] to [result] everywhere after it. *)
  | SliceAlias of {
      base : string;  (** the sliced matrix *)
      slice : string;  (** the copy the payload allocates *)
      shape : slice_shape;
      safe : bool;
          (** the lowering-time analysis proved the rewrite for [shape]
              observation-free *)
      why : string;  (** the verdict as prose: the proof or the blocker *)
      span : Support.Pos.span;  (** the slice expression *)
    }
      (** Payload: the allocating copy of a slice.  When [safe], copy
          elimination replaces an [Identity] slice's payload with a retain
          of [base] (renaming [slice] to [base]), and deletes a [Fiber]'s
          payload, declaration and releases, reading [base] in place. *)
  | Producer of {
      tmp : string;  (** the temporary the payload allocates and fills *)
      what : producer;
      traps : bool;
          (** computing an element may fail (integer [/] or [%]), so it
              must stay where the source evaluates it *)
      span : Support.Pos.span;  (** the producing expression *)
    }
      (** Payload: [tmp]'s allocation, [tmp = mm_alloc(extents)], then the
          loop that fills it, [tmp[i] = elem] for each [i] below its size
          (itself possibly inside an [AutoPar] site).  With-loop folding
          deletes the payload when exactly one later loop reads [tmp],
          evaluating [elem] there at that loop's index. *)
  | AutoPar of { kind : autopar_kind; span : Support.Pos.span }
      (** Payload: a sequential loop nest the auto-par pass may promote
          to a [ParFor] region. *)
  | MapFiber of {
      fname : string;  (** the mapped function *)
      slice : string;  (** the copy of the fiber it is called on *)
      at : place option;
          (** where the fiber lies in one piece; [None] when it is
              strided *)
      extents : Cir.Ir.expr list;  (** the fiber's *)
      span : Support.Pos.span;  (** the matrixMap *)
    }
      (** Payload: [slice]'s allocation and the loop that copies the
          fiber into it.  When [fname] only reads its parameter, copy
          elimination replaces the payload with a view of the fiber where
          it lies, and drops [slice]'s releases. *)
  | MapResult of {
      fname : string;
      slice : string;  (** the argument of the call *)
      out : string;  (** the call's result *)
      at : place option;  (** where the output fiber lies in one piece *)
      extents : Cir.Ir.expr list;
      span : Support.Pos.span;
    }
      (** Payload: [out = fname(slice)], the checks that [out]'s extents
          are the fiber's, the copy of [out] into the output fiber, and
          [out]'s release.  When [fname] returns, on every path, one
          matrix it allocates itself with its parameter's extents, copy
          elimination replaces the payload with a call of [fname]
          rewritten to write that matrix into a view of the output
          fiber. *)
