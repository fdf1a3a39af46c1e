(** Synthetic sea-surface-height (SSH) data (§IV).

    The paper's data is AVISO satellite altimetry (721×1440×954: latitude ×
    longitude × weekly time steps) which we do not have; this generator
    builds a cube with the features the eddy algorithms key on —
    substitution documented in DESIGN.md §2:

    - {b eddies}: moving Gaussian depressions in the height field ("the
      rotating nature of ocean eddies … causes the center of the eddy to
      be lower in height compared to its perimeter", Fig 6), each with a
      position, drift velocity, radius, depth and lifetime;
    - {b background restlessness}: smooth low-amplitude swell ("the
      restlessness of the ocean");
    - {b noise}: small per-sample perturbations ("inaccurate noisy
      readings from the satellites") from a deterministic LCG so runs are
      reproducible;
    - {b ground truth}: the generator returns each eddy's trajectory, so
      correctness checks can do what the paper could not — compare
      detections against truth. *)

type eddy = {
  lat0 : float;  (** initial position (fractional grid coordinates) *)
  lon0 : float;
  vlat : float;  (** drift per time step *)
  vlon : float;
  radius : float;  (** Gaussian radius in grid cells *)
  depth : float;  (** centre depression in height units *)
  t_start : int;
  t_end : int;
}

type truth = { eddies : eddy list }

(** Position of an eddy at time [t], when alive. *)
let position e t =
  if t < e.t_start || t > e.t_end then None
  else
    let dt = float_of_int (t - e.t_start) in
    Some (e.lat0 +. (e.vlat *. dt), e.lon0 +. (e.vlon *. dt))

(* Deterministic pseudo-random stream (LCG), so the synthetic data is
   reproducible across runs and platforms. *)
let lcg seed =
  let state = ref (seed land 0x3FFFFFFF) in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. float_of_int 0x3FFFFFFF

(** [generate ~lat ~lon ~time ~n_eddies ~seed ()] — an SSH cube of shape
    [lat × lon × time] with [n_eddies] planted eddies, plus ground truth. *)
let generate ?(noise = 0.02) ?(swell = 0.05) ~lat ~lon ~time ~n_eddies ~seed
    () : Runtime.Ndarray.t * truth =
  let rand = lcg seed in
  let eddies =
    List.init n_eddies (fun _ ->
        let t_start = int_of_float (rand () *. float_of_int (max 1 (time / 2))) in
        let life = 3 + int_of_float (rand () *. float_of_int (max 1 (time / 2))) in
        {
          lat0 = 2. +. (rand () *. (float_of_int lat -. 4.));
          lon0 = 2. +. (rand () *. (float_of_int lon -. 4.));
          vlat = (rand () -. 0.5) *. 0.6;
          vlon = (rand () -. 0.5) *. 0.6;
          radius = 1.2 +. (rand () *. 2.0);
          depth = 0.5 +. rand ();
          t_start;
          t_end = min (time - 1) (t_start + life);
        })
  in
  let data =
    Runtime.Ndarray.init_float [| lat; lon; time |] (fun ix ->
        let i = float_of_int ix.(0)
        and j = float_of_int ix.(1)
        and t = ix.(2) in
        let ft = float_of_int t in
        (* smooth background swell *)
        let base =
          swell
          *. (sin ((i /. 7.) +. (ft /. 9.)) +. cos ((j /. 5.) -. (ft /. 11.)))
        in
        (* planted eddies: Gaussian depressions *)
        let dip =
          List.fold_left
            (fun acc e ->
              match position e t with
              | None -> acc
              | Some (ei, ej) ->
                  let d2 =
                    (((i -. ei) ** 2.) +. ((j -. ej) ** 2.))
                    /. (e.radius *. e.radius)
                  in
                  acc -. (e.depth *. exp (-.d2)))
            0. eddies
        in
        (* deterministic "satellite" noise, varying with all coordinates *)
        let h =
          float_of_int
            (((ix.(0) * 73856093) lxor (ix.(1) * 19349663)
             lxor (ix.(2) * 83492791))
            land 0xFFFF)
          /. 65535.
        in
        base +. dip +. (noise *. ((2. *. h) -. 1.)))
  in
  (data, { eddies })

(** One spatial frame (lat × lon) at time [t]. *)
let frame (cube : Runtime.Ndarray.t) (t : int) : Runtime.Ndarray.t =
  let sh = Runtime.Ndarray.shape cube in
  Runtime.Ndarray.init_float [| sh.(0); sh.(1) |] (fun ix ->
      Runtime.Scalar.to_float (Runtime.Ndarray.get cube [| ix.(0); ix.(1); t |]))

(** One time series (length [time]) at grid point (i, j). *)
let series (cube : Runtime.Ndarray.t) i j : Runtime.Ndarray.t =
  Runtime.Ndarray.init_float [| (Runtime.Ndarray.shape cube).(2) |] (fun ix ->
      Runtime.Scalar.to_float (Runtime.Ndarray.get cube [| i; j; ix.(0) |]))

(** ASCII rendering of a frame (the Fig 6 stand-in): deeper = darker. *)
let render_frame (fr : Runtime.Ndarray.t) : string =
  let sh = Runtime.Ndarray.shape fr in
  let buf = Buffer.create (sh.(0) * (sh.(1) + 1)) in
  let ramp = " .:-=+*#%@" in
  (* scale to the frame's own min/max *)
  let mn = ref infinity and mx = ref neg_infinity in
  for off = 0 to Runtime.Ndarray.size fr - 1 do
    let v = Runtime.Scalar.to_float (Runtime.Ndarray.get_flat fr off) in
    if v < !mn then mn := v;
    if v > !mx then mx := v
  done;
  let range = if !mx -. !mn < 1e-9 then 1. else !mx -. !mn in
  for i = 0 to sh.(0) - 1 do
    for j = 0 to sh.(1) - 1 do
      let v =
        Runtime.Scalar.to_float (Runtime.Ndarray.get fr [| i; j |])
      in
      (* low SSH (eddy centre) renders dark *)
      let x = (v -. !mn) /. range in
      let k =
        min (String.length ramp - 1)
          (int_of_float ((1. -. x) *. float_of_int (String.length ramp - 1)))
      in
      Buffer.add_char buf ramp.[k]
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
