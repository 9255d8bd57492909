(* Fails unless every named top-level section of a JSON document is
   present and non-empty, so a renamed or broken bench section fails
   `dune runtest` instead of passing unread.

   Usage: check_sections.exe FILE SECTION... *)

let () =
  let path, sections =
    match Array.to_list Sys.argv with
    | _ :: path :: (_ :: _ as sections) -> (path, sections)
    | _ -> prerr_endline "usage: check_sections.exe FILE SECTION..."; exit 2
  in
  let fail msg = Printf.eprintf "%s: %s\n" path msg; exit 1 in
  match Sim.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> fail e
  | Ok doc ->
      List.iter
        (fun name ->
          match Sim.Json.member name doc with
          | None -> fail (name ^ ": section missing")
          | Some (Null | Arr [] | Obj [] | Str "") -> fail (name ^ ": section empty")
          | Some _ -> ())
        sections;
      Printf.printf "%s: %d sections present\n" path (List.length sections)
