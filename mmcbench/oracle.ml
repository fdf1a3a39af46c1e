(* Workload inputs, and the reference every program's output is checked
   against.  No reference comes from the compiler under test:

   - self-contained programs: the blessed test/golden/*.out result;
   - eddy_energy: its eddy count in closed form, for any cube size;
   - readMatrix programs: OCaml implementations of the same algorithms
     (the temporal mean here, Eddy.Conncomp and Eddy.Score), run on the
     same input. *)

module Nd = Runtime.Ndarray
module S = Runtime.Scalar

(* Frames dated on or after this day are the ones Fig 4's program keeps. *)
let recent_day = 1012000

(** [cube ~seed (m, n, p)] — a seeded synthetic SSH cube.  Fig 8's
    [scoreTS] walks up to the first local maximum without a bound check,
    so a series that rises to its very end makes it read [ts[n]]: every
    series is made to end on a drop. *)
let cube ~seed (m, n, p) =
  let c, _ =
    Eddy.Ssh_gen.generate ~lat:m ~lon:n ~time:p
      ~n_eddies:(max 2 (m * n / 256))
      ~seed ()
  in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let before = S.to_float (Nd.get c [| i; j; p - 2 |]) in
      Nd.set c [| i; j; p - 1 |] (S.F (before -. 0.1))
    done
  done;
  c

(** One date per frame; the first quarter fall before [recent_day]. *)
let dates p = Nd.init_int [| p |] (fun ix -> recent_day - (p / 4) + ix.(0))

let temporal_mean cube =
  let sh = Nd.shape cube in
  Nd.init_float [| sh.(0); sh.(1) |] (fun ix ->
      let s = ref 0. in
      for k = 0 to sh.(2) - 1 do
        s := !s +. S.to_float (Nd.get cube [| ix.(0); ix.(1); k |])
      done;
      !s /. float_of_int sh.(2))

(* A check of one output matrix: [None] when it matches. *)
type check = Nd.t -> string option

let approx ~eps want : check =
 fun got ->
  if Nd.approx_equal ~eps want got then None
  else Some (Printf.sprintf "differs from the reference beyond eps %g" eps)

(** Fig 4: every kept frame must split into the same 4-connected
    components as [Eddy.Conncomp.label] finds; label values may differ. *)
let same_components cube dates : check =
 fun got ->
  let sh = Nd.shape cube in
  let m = sh.(0) and n = sh.(1) in
  let kept =
    List.filter
      (fun k -> S.to_int (Nd.get dates [| k |]) >= recent_day)
      (List.init sh.(2) Fun.id)
  in
  if Nd.shape got <> [| m; n; List.length kept |] then
    Some "labels have the wrong shape"
  else
    List.mapi (fun slot k -> (slot, k)) kept
    |> List.find_map (fun (slot, k) ->
           let mask =
             Nd.of_bool_array [| m; n |]
               (Array.init (m * n) (fun off ->
                    S.to_float (Nd.get cube [| off / n; off mod n; k |])
                    < -0.25))
           in
           let want = Eddy.Conncomp.label mask in
           let fwd = Hashtbl.create 16 and bwd = Hashtbl.create 16 in
           let agrees a b =
             match (Hashtbl.find_opt fwd a, Hashtbl.find_opt bwd b) with
             | None, None ->
                 Hashtbl.add fwd a b;
                 Hashtbl.add bwd b a;
                 true
             | Some b', Some a' -> b' = b && a' = a
             | _ -> false
           in
           let ok = ref true in
           for i = 0 to m - 1 do
             for j = 0 to n - 1 do
               let a = S.to_int (Nd.get want [| i; j |])
               and b = S.to_int (Nd.get got [| i; j; slot |]) in
               if (a = 0) <> (b = 0) || (a <> 0 && not (agrees a b)) then
                 ok := false
             done
           done;
           if !ok then None
           else Some (Printf.sprintf "frame %d: components differ" k))

(** eddy_energy's result, exactly.  Its cube is
    [((7i + 13j + 5k) mod 37) / 37 - 0.5], so a column's anomaly energy
    depends only on [c = (7i + 13j) mod 37]; scaled by [37^2 p] it is the
    integer [p * sum r^2 - (sum r)^2] over [r = (c + 5k) mod 37].  The
    program counts columns whose energy exceeds the mean. *)
let eddy_energy_count (m, n, p) =
  let cols = Array.make 37 0 in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let c = ((7 * i) + (13 * j)) mod 37 in
      cols.(c) <- cols.(c) + 1
    done
  done;
  let energy c =
    let s = ref 0 and s2 = ref 0 in
    for k = 0 to p - 1 do
      let r = (c + (5 * k)) mod 37 in
      s := !s + r;
      s2 := !s2 + (r * r)
    done;
    (p * !s2) - (!s * !s)
  in
  let total = ref 0 in
  Array.iteri (fun c k -> total := !total + (k * energy c)) cols;
  let count = ref 0 in
  Array.iteri
    (fun c k -> if m * n * energy c > !total then count := !count + k)
    cols;
  !count

(** What one invocation must print and write. *)
type expect = { result : string; files : (string * check) list }

(** [expect ~golden ~cube ~dates ~eddy name] — the reference for corpus
    program [name] on this workload's inputs ([eddy] is the size
    eddy_energy runs at).  [Error] for a program with no reference. *)
let expect ~golden ~cube ~dates ~eddy name =
  let out_file = Filename.concat golden (name ^ ".out") in
  match name with
  | "eddy_energy" ->
      Ok { result = string_of_int (eddy_energy_count eddy); files = [] }
  | "fig1_temporal_mean" | "fig1_with_slice_copy" | "fig9_interchange"
  | "fig9_tile" | "fig9_transformed" ->
      Ok
        {
          result = "0";
          files = [ ("means.data", approx ~eps:1e-4 (temporal_mean cube)) ];
        }
  | "fig4_conncomp" ->
      Ok
        {
          result = "0";
          files = [ ("eddyLabels.data", same_components cube dates) ];
        }
  | "fig8_scoring" ->
      Ok
        {
          result = "0";
          files =
            [
              ( "temporalScores.data",
                approx ~eps:1e-3 (Eddy.Score.score_cube cube) );
            ];
        }
  | _ when Sys.file_exists out_file ->
      Ok
        {
          result =
            String.trim (In_channel.with_open_text out_file In_channel.input_all);
          files = [];
        }
  | _ -> Error (Printf.sprintf "no reference output for %s" name)
