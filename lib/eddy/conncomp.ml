(** Connected-component labelling of thresholded SSH frames (§IV, Fig 4):
    "One can identify ocean eddies algorithmically by iteratively
    thresholding the SSH data and searching for connected components that
    satisfy certain criteria that are typical of ocean eddies."

    This is the native reference implementation (union-find, 4-connected);
    the translated-program version in {!Programs.fig4_conncomp} is checked
    against it. *)

module Nd = Runtime.Ndarray

(* Union-find over flat cell indices. *)
type uf = { parent : int array; rank : int array }

let uf_create n = { parent = Array.init n Fun.id; rank = Array.make n 0 }

let rec uf_find u x =
  if u.parent.(x) = x then x
  else begin
    let root = uf_find u u.parent.(x) in
    u.parent.(x) <- root;
    root
  end

let uf_union u a b =
  let ra = uf_find u a and rb = uf_find u b in
  if ra <> rb then
    if u.rank.(ra) < u.rank.(rb) then u.parent.(ra) <- rb
    else if u.rank.(ra) > u.rank.(rb) then u.parent.(rb) <- ra
    else begin
      u.parent.(rb) <- ra;
      u.rank.(ra) <- u.rank.(ra) + 1
    end

(** [label mask] — 4-connected component labelling of a 2-D boolean
    matrix.  Labels are positive and consecutive from 1 in row-major order
    of first appearance; background cells are 0. *)
let label (mask : Nd.t) : Nd.t =
  let sh = Nd.shape mask in
  if Nd.rank mask <> 2 then
    Runtime.Shape.err "Conncomp.label: rank-2 mask expected, got %s"
      (Runtime.Shape.to_string sh);
  let m = sh.(0) and n = sh.(1) in
  let at i j = Runtime.Scalar.to_bool (Nd.get mask [| i; j |]) in
  let u = uf_create (m * n) in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      if at i j then begin
        if i > 0 && at (i - 1) j then uf_union u ((i * n) + j) (((i - 1) * n) + j);
        if j > 0 && at i (j - 1) then uf_union u ((i * n) + j) ((i * n) + (j - 1))
      end
    done
  done;
  (* compact to consecutive labels *)
  let next = ref 0 in
  let renum = Hashtbl.create 16 in
  Nd.init_int [| m; n |] (fun ix ->
      let i = ix.(0) and j = ix.(1) in
      if not (at i j) then 0
      else
        let root = uf_find u ((i * n) + j) in
        match Hashtbl.find_opt renum root with
        | Some l -> l
        | None ->
            incr next;
            Hashtbl.replace renum root !next;
            !next)

(** Number of distinct positive labels. *)
let count_components (labels : Nd.t) : int =
  let seen = Hashtbl.create 16 in
  for off = 0 to Nd.size labels - 1 do
    let l = Runtime.Scalar.to_int (Nd.get_flat labels off) in
    if l > 0 then Hashtbl.replace seen l ()
  done;
  Hashtbl.length seen

type component = {
  c_label : int;
  cells : int;  (** area in grid cells *)
  centroid : float * float;
  min_i : int;
  max_i : int;
  min_j : int;
  max_j : int;
}

(** Per-component statistics (area, centroid, bounding box) — the
    "criteria that are typical of ocean eddies" are expressed over
    these. *)
let components (labels : Nd.t) : component list =
  let sh = Nd.shape labels in
  let m = sh.(0) and n = sh.(1) in
  let tbl : (int, int ref * float ref * float ref * int ref * int ref * int ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let l = Runtime.Scalar.to_int (Nd.get labels [| i; j |]) in
      if l > 0 then begin
        let cells, si, sj, mni, mxi, mnj, mxj =
          match Hashtbl.find_opt tbl l with
          | Some x -> x
          | None ->
              let x =
                (ref 0, ref 0., ref 0., ref max_int, ref (-1), ref max_int, ref (-1))
              in
              Hashtbl.replace tbl l x;
              x
        in
        incr cells;
        si := !si +. float_of_int i;
        sj := !sj +. float_of_int j;
        mni := min !mni i;
        mxi := max !mxi i;
        mnj := min !mnj j;
        mxj := max !mxj j
      end
    done
  done;
  Hashtbl.fold
    (fun l (cells, si, sj, mni, mxi, mnj, mxj) acc ->
      {
        c_label = l;
        cells = !cells;
        centroid = (!si /. float_of_int !cells, !sj /. float_of_int !cells);
        min_i = !mni;
        max_i = !mxi;
        min_j = !mnj;
        max_j = !mxj;
      }
      :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.c_label b.c_label)

(** Eddy criteria from the literature the paper builds on: compact
    (roughly round bounding box), within an area band. *)
let eddy_like ?(min_cells = 4) ?(max_cells = 400) (c : component) : bool =
  let h = c.max_i - c.min_i + 1 and w = c.max_j - c.min_j + 1 in
  let bbox = h * w in
  c.cells >= min_cells && c.cells <= max_cells
  && float_of_int c.cells >= 0.4 *. float_of_int bbox

(** [below ~threshold fr] — the boolean mask of the cells of [fr] strictly
    below [threshold], compared as C compares ({!Runtime.Scalar.cmp}): a
    NaN cell is below no threshold. *)
let below ~threshold (fr : Nd.t) : Nd.t =
  let module S = Runtime.Scalar in
  Nd.of_bool_array (Nd.shape fr)
    (Array.init (Nd.size fr) (fun off ->
         S.to_bool (S.cmp S.Lt (Nd.get_flat fr off) (S.F threshold))))

(** [detect_frame frame ~threshold] — threshold an SSH frame from below
    (eddy centres are LOW) and return eddy-like components. *)
let detect_frame ?(threshold = -0.25) (fr : Nd.t) : component list =
  components (label (below ~threshold fr)) |> List.filter eddy_like

(** Iterative thresholding over a frame (the Fig 4 loop): runs
    [detect_frame] for thresholds from [lo] to [hi] in [steps] steps and
    returns all detections with their threshold. *)
let detect_iterative ?(lo = -0.8) ?(hi = -0.1) ?(steps = 8) (fr : Nd.t) :
    (float * component list) list =
  List.init steps (fun s ->
      let th = lo +. ((hi -. lo) *. float_of_int s /. float_of_int (max 1 (steps - 1))) in
      (th, detect_frame ~threshold:th fr))
