(** Scratch directories that do not outlive the call that made them. *)

(* Remove [path] and everything under it.  Symbolic links are unlinked,
   never followed, so nothing outside [path] is touched.  Best effort: a
   file that cannot be removed stays behind rather than masking the
   caller's own result or exception. *)
let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter
        (fun name -> remove_tree (Filename.concat path name))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

(** [with_lazy_dir ?dir ~prefix f] — [f get].  With [dir], [get ()] is
    that directory, left as it is.  Without it, the first [get ()] makes a
    fresh directory named [prefix…] under the system temporary directory
    ([$TMPDIR]) and later calls return the same one; it is removed with
    its contents when [f] returns or raises.  [get] is not thread-safe:
    call it from the domain that called [with_lazy_dir]. *)
let with_lazy_dir ?dir ~prefix f =
  match dir with
  | Some d -> f (fun () -> d)
  | None ->
      let made = ref None in
      let get () =
        match !made with
        | Some d -> d
        | None ->
            let d = Filename.temp_dir prefix "" in
            made := Some d;
            d
      in
      Fun.protect ~finally:(fun () -> Option.iter remove_tree !made) (fun () ->
          f get)

(** [with_dir ?dir ~prefix f] — {!with_lazy_dir} for a caller that needs
    the directory up front: [f d]. *)
let with_dir ?dir ~prefix f = with_lazy_dir ?dir ~prefix (fun get -> f (get ()))
