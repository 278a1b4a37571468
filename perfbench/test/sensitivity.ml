(* Sensitivity self-test: a fixed host-time spin added inside every
   wrapped call must lower calls_per_s by the share it predicts,
   calls / (W + calls * spin) against calls / W, and leave every
   virtual-time statistic bit-identical.  This shows the host metrics
   read program work through the same boundary the wrappers time. *)

open Perfbench

let spin_s = 20e-6
let passes = 5

let rate (w : Pass.workload) =
  let runs =
    List.init passes (fun _ ->
        let p, scale = Meter.scaled (fun () -> w.Pass.pass ~obs:false) in
        (p, p.Pass.wall_s *. scale))
  in
  let p = fst (List.hd runs) in
  let calls = float_of_int p.Pass.recorder.Wrap.calls in
  (p, calls, Ava_sim.Stats.percentile (List.map (fun (_, wall) -> calls /. wall) runs) 50.0)

let () =
  let failures = ref 0 in
  List.iter
    (fun name ->
      let e = Option.get (Bench.find name) in
      let w = e.Bench.make ~seed:1 in
      ignore (w.Pass.native ());
      let p0, calls, r0 = rate w in
      Wrap.spin_s := spin_s;
      let p1, _, r1 = rate w in
      Wrap.spin_s := 0.0;
      let predicted = calls /. ((calls /. r0) +. (calls *. spin_s)) in
      let err = (r1 -. predicted) /. predicted in
      let identical = Pass.fingerprint p0 = Pass.fingerprint p1 in
      let ok = identical && Float.abs err < 0.25 in
      if not ok then incr failures;
      Printf.printf
        "%-13s %s  calls_per_s %.0f -> %.0f with %.0f us/call spin (predicted %.0f, %+.1f%%); fingerprint %s\n%!"
        name
        (if ok then "ok  " else "FAIL")
        r0 r1 (spin_s *. 1e6) predicted (100.0 *. err)
        (if identical then "identical" else "DIFFERENT"))
    [ "rodinia-ring"; "st-mixed" ];
  if !failures > 0 then exit 1
