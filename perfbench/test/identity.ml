(* The timing wrappers only read the engine clock: a pass whose guests
   call the silo APIs through them must produce the same virtual times,
   event counts, wire bytes and layer counters as a pass whose guests
   call the APIs directly. *)

open Perfbench

let modeled (p : Pass.t) =
  let det = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) p.Pass.det []) in
  let units = List.map (fun u -> (u.Pass.u_name, u.Pass.u_vt_ns)) p.Pass.units in
  (p.Pass.makespan_ns, units, det)

let () =
  let failures = ref 0 in
  List.iter
    (fun (e : Bench.entry) ->
      let w = e.Bench.make ~seed:1 in
      ignore (w.Pass.native ());
      let wrapped = w.Pass.pass ~obs:false in
      Wrap.bypass := true;
      let bare = w.Pass.pass ~obs:false in
      Wrap.bypass := false;
      let ms, _, det = modeled wrapped in
      let same = modeled wrapped = modeled bare in
      if not same then incr failures;
      Printf.printf "%-15s %s  makespan_ns=%d events=%d wire_b=%d calls=%d\n%!" e.Bench.name
        (if same then "identical" else "DIFFERENT")
        ms
        (Option.value ~default:0 (List.assoc_opt "sim.events" det))
        (Option.value ~default:0 (List.assoc_opt "transport.wire_b" det))
        wrapped.Pass.recorder.Wrap.calls;
      if wrapped.Pass.bad > 0 then begin
        incr failures;
        Printf.printf "%-15s wrapped pass failed %d output checks\n" e.Bench.name wrapped.Pass.bad
      end)
    Bench.workloads;
  if !failures > 0 then exit 1
