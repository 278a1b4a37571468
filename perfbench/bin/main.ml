(* perfbench: one command, one workload per run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints a human-readable report and, as its last line, the result
   object {correct, attempted, failed, metrics}.  Exits 1 when an
   output check failed or a pass diverged from the seed's fingerprint,
   2 on bad arguments. *)

let usage () =
  Printf.eprintf
    "usage: main.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" (List.map (fun e -> e.Perfbench.Bench.name) Perfbench.Bench.workloads));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v <> "0"; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  match Perfbench.Bench.find !workload with
  | None -> usage ()
  | Some e ->
      if not (Perfbench.Bench.main e ~seed:!seed ~seconds:!seconds ~trace:!trace) then exit 1
