(* Prints the OCaml module [Build_id]: a digest of the path and contents
   of every file under the directories named on the command line, in
   sorted order.  Run by lib/driver/dune over lib/ and runtime/c/ in a
   sandbox that holds only their source files (as symbolic links, which
   [Sys.is_directory] and [open] follow).  Executables are skipped: the
   sandbox also holds this generator's own binary. *)

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files path
         else if Filename.check_suffix name ".exe" then []
         else [ path ])

let () =
  let roots = List.tl (Array.to_list Sys.argv) in
  let digest =
    List.concat_map files roots
    |> List.map (fun path ->
           Digest.to_hex
             (Digest.string
                (path ^ "\x00" ^ In_channel.with_open_bin path In_channel.input_all)))
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  print_string "(* generated by lib/driver/gen/build_id_gen.exe -- do not edit *)\n";
  Printf.printf "let id = %S\n" digest
