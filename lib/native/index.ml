(** The source-keyed index in front of the binary cache.

    The binary cache ({!Cache}) is keyed by the emitted C text, so finding
    a binary there takes a whole translation: composition, frontend,
    lowering and emission.  The index maps the inputs of that translation
    to the binary-cache key it produced, so an unchanged program goes from
    its source bytes straight to its binary.

    One entry per key, [mm_<key>.idx] in the cache directory: plain text
    holding the binary-cache key, the file name of the loader that runs
    the program, and the lowering warnings the translation reported, so a
    hit can replay them.  An entry that does not parse is a miss; so is
    one whose program or loader is gone.  Entries land under a temporary
    name and are renamed into place, like every other cache file. *)

(* Netstring framing: no two input lists digest the same bytes. *)
let field s = Printf.sprintf "%d:%s" (String.length s) s
let fields l = field (String.concat "" (List.map field l))

(** [key ~build_id ~source ~extensions ~pipeline ~line_file ~instrument
    ~toolchain] — hex digest of every input the binary-cache key of an
    [mmc exec] translation is a function of: the compiler build, the
    source bytes, the extension names in selection order, the canonical
    pass pipeline, the emit modes ([#line] file name, instrumentation)
    and the requested toolchain (compiler after [MMC_CC], flags after
    sanitizer and user additions).  [build_id] names the compiler build;
    a new one misses every entry. *)
let key ~build_id ~source ~extensions ~pipeline ~line_file ~instrument
    ~(toolchain : Toolchain.t) =
  let flag b = if b then "1" else "0" in
  Digest.to_hex
    (Digest.string
       (String.concat ""
          [
            field build_id;
            field Sys.ocaml_version;
            field source;
            fields extensions;
            field pipeline;
            fields (Option.to_list line_file);
            field (flag instrument);
            field toolchain.Toolchain.cc;
            fields (Toolchain.requested_flags toolchain);
          ]))

let entry_path ~dir k = Filename.concat dir ("mm_" ^ k ^ ".idx")

let magic = "mmc-index 2"

(* An entry: the binary-cache key, the loader's file name and the
   translation's warnings, in order. *)
let to_text ckey loader warnings =
  let pos (p : Support.Pos.t) =
    Printf.sprintf "%d %d %d" p.Support.Pos.line p.col p.offset
  in
  let warning (d : Support.Diag.t) =
    Printf.sprintf "warning %s %s %s %S %S\n"
      (Support.Diag.severity_to_string d.severity)
      (pos d.span.left) (pos d.span.right) d.phase d.message
  in
  String.concat ""
    ((magic ^ "\n") :: ("ckey " ^ ckey ^ "\n") :: ("loader " ^ loader ^ "\n")
    :: List.map warning warnings)
  ^ "end\n"

let is_hex_key s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let is_loader_name s =
  String.length s = 42
  && String.sub s 0 10 = "mm_loader-"
  && is_hex_key (String.sub s 10 32)

let severity_of_string = function
  | "error" -> Support.Diag.Error
  | "warning" -> Support.Diag.Warning
  | "note" -> Support.Diag.Note
  | s -> failwith s

(* The entry [text] holds; [None] for anything but a whole entry. *)
let of_text text =
  let warning line =
    Scanf.sscanf line "warning %s %d %d %d %d %d %d %S %S%!"
      (fun sev l1 c1 o1 l2 c2 o2 phase message ->
        let p line col offset = { Support.Pos.line; col; offset } in
        Support.Diag.make ~severity:(severity_of_string sev) ~phase
          ~span:{ Support.Pos.left = p l1 c1 o1; right = p l2 c2 o2 }
          message)
  in
  match String.split_on_char '\n' text with
  | m :: ck :: ld :: rest when m = magic -> (
      match
        (String.split_on_char ' ' ck, String.split_on_char ' ' ld, List.rev rest)
      with
      | [ "ckey"; ckey ], [ "loader"; loader ], "" :: "end" :: ws
        when is_hex_key ckey && is_loader_name loader -> (
          match List.rev_map warning ws with
          | warnings -> Some (ckey, loader, warnings)
          | exception
              ( Scanf.Scan_failure _ | Failure _ | End_of_file
              | Invalid_argument _ ) ->
              None)
      | _ -> None)
  | _ -> None

(** [find ~dir k] — the binary index key [k] names and the warnings its
    translation reported, when the entry parses and the cache still
    holds that program and its loader; the hit counts as a binary-cache
    hit ({!Cache.lookup}). *)
let find ~dir k : (Exec.binary * Support.Diag.t list) option =
  match In_channel.with_open_bin (entry_path ~dir k) In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      match of_text text with
      (* an evicted program is not counted as a miss here: the
         translation that follows looks it up, and counts it, again *)
      | Some (key, loader, warnings) -> (
          let loader = Filename.concat dir loader in
          if
            Sys.file_exists (Cache.so_path ~dir key) && Sys.file_exists loader
          then
            Option.map
              (fun path -> ({ Exec.path; loader; key; cached = true }, warnings))
              (Cache.lookup ~dir key)
          else None)
      | None -> None)

(** [record ~dir k b warnings] — write the entry mapping index key [k] to
    binary [b], with the warnings its translation reported.  Best
    effort: an entry that cannot be written costs the next run a
    translation. *)
let record ~dir k (b : Exec.binary) warnings =
  try
    Cache.write_file (entry_path ~dir k)
      (to_text b.key (Filename.basename b.loader) warnings)
  with Sys_error _ -> ()
