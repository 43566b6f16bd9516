(* The docs name modules by their library path: every backticked
   [etx_<lib>.<Module>] or [Etx_<lib>.<Module>] in README.md, DESIGN.md
   and EXPERIMENTS.md must name a source file [lib/<lib>/<module>.ml],
   so a renamed or deleted module cannot linger in the prose. *)

let docs = [ "README.md"; "DESIGN.md"; "EXPERIMENTS.md" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The backticked spans of [text], in order. *)
let code_spans text =
  match String.split_on_char '`' text with
  | [] -> []
  | _ :: rest -> List.filteri (fun i _ -> i mod 2 = 0) rest

(* Every [(lib, Module)] named by an [etx_lib.Module] inside [span]. *)
let module_refs span =
  let re = Str.regexp "[Ee]tx_\\([a-z]+\\)\\.\\([A-Z][A-Za-z0-9_]*\\)" in
  let rec scan from acc =
    match Str.search_forward re span from with
    | exception Not_found -> List.rev acc
    | _ ->
      let found = (Str.matched_group 1 span, Str.matched_group 2 span) in
      scan (Str.match_end ()) (found :: acc)
  in
  scan 0 []

let source_of (lib, module_name) =
  Filename.concat
    (Filename.concat "../lib" lib)
    (String.uncapitalize_ascii module_name ^ ".ml")

let test_named_modules_exist () =
  let refs =
    List.concat_map
      (fun doc ->
        List.concat_map
          (fun span -> List.map (fun r -> (doc, r)) (module_refs span))
          (code_spans (read_file (Filename.concat ".." doc))))
      docs
  in
  Alcotest.(check bool) "the docs name some modules" true (refs <> []);
  List.iter
    (fun (doc, ((lib, module_name) as r)) ->
      if not (Sys.file_exists (source_of r)) then
        Alcotest.failf "%s names Etx_%s.%s, but there is no lib/%s/%s" doc lib module_name
          lib (Filename.basename (source_of r)))
    refs

let test_module_refs_parse () =
  Alcotest.(check (list (pair string string)))
    "both spellings, one span"
    [ ("routing", "Router"); ("util", "Json") ]
    (module_refs "etx_routing.Router and Etx_util.Json.to_string")

let suite =
  [
    ( "docs",
      [
        Alcotest.test_case "reference parsing" `Quick test_module_refs_parse;
        Alcotest.test_case "named modules exist" `Quick test_named_modules_exist;
      ] );
  ]
