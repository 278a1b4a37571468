(* Export ratchet: the number of [val]s declared in a [lib/*/*.mli] that
   nothing else reads must equal [recorded].

   An export counts as read when its name appears as a whole word in any
   [.ml] or [.mli] under lib/, bin/, bench/, examples/, perfbench/ or
   test/ other than its own module's two files and this one.  The match
   is by name only, so a common name always reads as used: the scan can
   miss a dead export but never flags a live one.

   Adding an unread export fails this test with the offending names.
   Deleting one fails it too, until [recorded] is lowered to the new
   count in the same change, so the number only ever goes down. *)

let recorded = 13

let roots = [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "test" ]
let self = "test/test_exports.ml"

(* The tests run in the build copy of test/; the tree root is its
   parent. *)
let root = Filename.parent_dir_name

let read_file path =
  In_channel.with_open_bin (Filename.concat root path) In_channel.input_all

(* Every .ml/.mli below [dir], as a root-relative path.  Dot- and
   underscore-prefixed entries are build artefacts. *)
let rec sources dir =
  Sys.readdir (Filename.concat root dir)
  |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = dir ^ "/" ^ name in
         if name.[0] = '.' || name.[0] = '_' then []
         else if Sys.is_directory (Filename.concat root path) then sources path
         else if
           Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

let is_word_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* The maximal runs of identifier characters in [text]. *)
let words text =
  let acc = ref [] and start = ref (-1) in
  let close i =
    if !start >= 0 then acc := String.sub text !start (i - !start) :: !acc;
    start := -1
  in
  String.iteri
    (fun i c ->
      if not (is_word_char c) then close i
      else if !start < 0 then start := i)
    text;
  close (String.length text);
  !acc

(* Names of the [val]s an interface declares: lines of the form
   [val name ...] with a lowercase name (operators are not counted). *)
let vals text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         match List.filter (( <> ) "") (String.split_on_char ' ' line) with
         | "val" :: token :: _ -> (
             match List.rev (words token) with
             | name :: _
               when String.starts_with ~prefix:name token
                    && (name.[0] = '_' || ('a' <= name.[0] && name.[0] <= 'z'))
               ->
                 Some name
             | _ -> None)
         | _ -> None)

let lib_interface path =
  match String.split_on_char '/' path with
  | [ "lib"; _; file ] -> Filename.check_suffix file ".mli"
  | _ -> false

(* [(interface, name)] for every unread export, in path order. *)
let unread () =
  let files = List.concat_map sources roots |> List.filter (( <> ) self) in
  (* word -> the files it appears in *)
  let seen = Hashtbl.create 65536 in
  List.iter
    (fun file ->
      List.iter
        (fun w ->
          match Hashtbl.find_opt seen w with
          | Some (f :: _) when f = file -> ()
          | Some fs -> Hashtbl.replace seen w (file :: fs)
          | None -> Hashtbl.replace seen w [ file ])
        (words (read_file file)))
    files;
  List.filter lib_interface files
  |> List.concat_map (fun mli ->
         let own = [ mli; Filename.chop_suffix mli "i" ] in
         vals (read_file mli)
         |> List.filter (fun name ->
                Hashtbl.find_opt seen name
                |> Option.value ~default:[]
                |> List.for_all (fun f -> List.mem f own))
         |> List.map (fun name -> (mli, name)))

let ratchet () =
  let hits = unread () in
  let found = List.length hits in
  if found <> recorded then
    Alcotest.failf
      "%d exports have no reader, %d recorded in test/test_exports.ml.%s\n%s"
      found recorded
      (if found < recorded then
         Printf.sprintf " Lower [recorded] to %d." found
       else " Delete the new ones, or give them a reader.")
      (String.concat "\n"
         (List.map (fun (mli, name) -> Printf.sprintf "  %s: %s" mli name)
            hits))

let () =
  Alcotest.run "exports"
    [
      ( "ratchet",
        [ Alcotest.test_case "unread exports match the record" `Quick ratchet ]
      );
    ]
