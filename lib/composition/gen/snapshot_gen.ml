(* Writes the driver's composition snapshot to standard output: an OCaml
   module holding, for each of the 2^n subsets of the shipped extensions,
   the marshalled [Composition.verdict] of composing that subset with the
   host.  Array slot [mask] holds the subset whose bit [i] selects the
   [i]th extension of [Composition.shipped].

   Each extension's analyses run once and their reports serve every
   subset that contains it: isComposable and well-definedness are
   modular, per-extension checks (§VI). *)

let () =
  let exts = Composition.shipped in
  let det, ag = Composition.analyses exts in
  let in_subset mask l = List.filteri (fun i _ -> mask land (1 lsl i) <> 0) l in
  print_string
    "(* generated by lib/composition/gen/snapshot_gen.exe -- do not edit *)\n\
     let subsets = [|\n";
  for mask = 0 to (1 lsl List.length exts) - 1 do
    let verdict : Composition.verdict =
      Composition.build ~det:(in_subset mask det) ~ag:(in_subset mask ag)
        (List.map (fun x -> x.Composition.grammar) (in_subset mask exts))
    in
    Printf.printf "  %S;\n" (Marshal.to_string verdict [])
  done;
  print_string "|]\n"
