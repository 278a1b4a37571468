(* The benchmark driver: input generation, native twin, a warm-up pass
   that fixes the seed's deterministic fingerprint, then timed passes
   for the requested wall time.  An untraced run reports the end-to-end
   metrics; a traced run alternates untraced and traced (latency
   attribution armed) passes and reports the per-layer metrics. *)

open Ava_sim
module Json = Ava_obs.Json

type silo = Cl | Nc | St

type entry = {
  name : string;
  make : seed:int -> Pass.workload;
  silo : silo;
}

let workloads =
  [
    { name = "rodinia-ring"; make = Rodinia_ring.make; silo = Cl };
    { name = "inception-bulk"; make = Inception_bulk.make; silo = Nc };
    { name = "fleet-churn"; make = Fleet_churn.make; silo = Cl };
    { name = "st-mixed"; make = St_mixed.make; silo = St };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

type metric = { m_name : string; m_value : float; m_unit : string; m_note : string }

let metric ?(note = "") m_name m_unit m_value =
  { m_name; m_value; m_unit; m_note = note }

let fl = float_of_int
let per_call p x = x /. fl p.Pass.recorder.Wrap.calls
let median xs = Stats.percentile xs 50.0
let med_of f passes = median (List.map f passes)

(* [min_passes] keeps the medians meaningful when one pass outlasts
   the requested time. *)
let min_passes = 5

type run = {
  gen_s : float;
  native_calls : int;
  warm : Pass.t;
  plain : Pass.t list;  (** timed untraced passes *)
  traced : Pass.t list;  (** timed traced passes (trace mode only) *)
  deterministic : bool;  (** every pass reproduced the warm-up fingerprint *)
  rss_mb : float;
      (** peak RSS after the warm-up and the first [min_passes] timed
          passes: a fixed amount of work, whatever the run length *)
}

let run_passes (w : Pass.workload) ~gen_s ~seconds ~trace =
  let native_calls = w.Pass.native () in
  let warm = w.Pass.pass ~obs:false in
  let fp = Pass.fingerprint warm in
  let plain = ref [] and traced = ref [] and deterministic = ref true in
  let rss_mb = ref 0.0 in
  (* Each pass sits between two runs of the speed reference; the run
     after one pass is the run before the next.  A pass pays for its
     own garbage: the full major collection after it counts toward its
     wall time, and the reference then runs on a settled heap. *)
  let before = ref (Meter.settled_reference ()) in
  let timed l ~obs =
    let p = w.Pass.pass ~obs in
    if Pass.fingerprint p <> fp then deterministic := false;
    Pass.release p;
    let (), gc_s = Meter.time Gc.full_major in
    p.Pass.wall_s <- p.Pass.wall_s +. gc_s;
    let after = Meter.reference () in
    p.Pass.scale <- Meter.scale_between !before after;
    before := after;
    (* One latency registry is enough for the phase figures. *)
    if !traced <> [] then p.Pass.obs <- None;
    l := p :: !l;
    if List.length !plain = min_passes && !rss_mb = 0.0 then
      rss_mb := Meter.peak_rss_mb ()
  in
  let t0 = Meter.now_s () in
  while
    Meter.now_s () -. t0 < seconds || List.length !plain < min_passes
  do
    timed plain ~obs:false;
    if trace then timed traced ~obs:true
  done;
  {
    gen_s;
    native_calls;
    warm;
    plain = List.rev !plain;
    traced = List.rev !traced;
    deterministic = !deterministic;
    rss_mb = !rss_mb;
  }

let all_passes r = (r.warm :: r.plain) @ r.traced
let total f r = List.fold_left (fun a p -> a + f p) 0 (all_passes r)

let ok_ratio r =
  1.0 -. (fl (total Pass.failed r) /. fl (total Pass.attempted r))

let vt_overhead p =
  Stats.mean
    (List.map (fun u -> fl u.Pass.u_vt_ns /. fl u.Pass.u_native_ns) p.Pass.units)

let end_to_end r =
  let w = r.warm and ps = r.plain in
  let lat = Pass.sorted_lat w in
  let n = Array.length lat in
  let tp = Meter.tail_pct n in
  [
    metric "setup_s" "s" (med_of (fun p -> p.Pass.setup_s *. p.Pass.scale) ps)
      ~note:
        (Printf.sprintf "median of %d set-ups; raw %.6g s"
           (List.length ps) (med_of (fun p -> p.Pass.setup_s) ps));
    metric "calls_per_s" "1/s"
      (med_of (fun p -> fl p.Pass.recorder.Wrap.calls /. (p.Pass.wall_s *. p.Pass.scale)) ps)
      ~note:
        (Printf.sprintf "median of %d passes, %d calls each; raw %.6g/s"
           (List.length ps) w.Pass.recorder.Wrap.calls
           (med_of (fun p -> fl p.Pass.recorder.Wrap.calls /. p.Pass.wall_s) ps));
    metric "alloc_b_per_call" "B/call" (med_of (fun p -> per_call p p.Pass.alloc_b) ps);
    metric "peak_rss_mb" "MiB" r.rss_mb
      ~note:(Printf.sprintf "after the warm-up and %d passes" min_passes);
    metric "ok_ratio" "ratio" (ok_ratio r)
      ~note:(Printf.sprintf "%d attempted" (total Pass.attempted r));
    metric "vt_makespan_ms" "vt-ms" (fl w.Pass.makespan_ns /. 1e6);
    metric "vt_overhead" "ratio" (vt_overhead w)
      ~note:(Printf.sprintf "mean of %d work units" (List.length w.Pass.units));
    metric "vt_call_p50_us" "vt-us" (fl (Meter.rank_pct lat 50.0) /. 1e3)
      ~note:(Printf.sprintf "p50 of %d calls" n);
    metric "vt_call_tail_us" "vt-us" (fl (Meter.rank_pct lat tp) /. 1e3)
      ~note:
        (Printf.sprintf "p%g of %d calls%s" tp n
           (if tp = 50.0 then "; too few calls for a tail, repeats the p50" else ""));
  ]

(* ---------------------------------------------------------- layers -- *)

let spec_and_plan silo =
  let load () =
    match silo with
    | Cl -> Ava_spec.Specs.load_simcl ()
    | Nc -> Ava_spec.Specs.load_mvnc ()
    | St -> Ava_spec.Specs.load_simst ()
  in
  let reps = 5 in
  let loads = List.init reps (fun _ -> Meter.time load) in
  let spec = fst (List.hd loads) in
  let compiles =
    List.init reps (fun _ -> snd (Meter.time (fun () -> Ava_codegen.Plan.compile spec)))
  in
  (median (List.map snd loads), median compiles)

(* Pure-timer calibration: processes doing nothing but [Engine.delay],
   the engine's cheapest event, measured in this process next to the
   workload. *)
let timer_ns_per_event () =
  let once () =
    let e = Engine.create () in
    for p = 0 to 63 do
      Engine.spawn e (fun () ->
          for i = 1 to 1024 do
            Engine.delay (100 + ((p + i) mod 16))
          done)
    done;
    let (), s = Meter.time (fun () -> Engine.run e) in
    s *. 1e9 /. fl (Engine.events_executed e)
  in
  median (List.init 3 (fun _ -> once ()))

(* Layer-boundary wall samples pooled over passes, each at its pass's
   host-speed scale; median, 0 when the workload makes no such call. *)
let pooled ps k =
  let samples p =
    List.map (fun s -> s *. p.Pass.scale)
      (Option.value ~default:[] (Hashtbl.find_opt p.Pass.wall k))
  in
  match List.concat_map samples ps with [] -> 0.0 | l -> median l

(* [f ()] returns wall seconds; report them at nominal host speed. *)
let at_nominal f =
  let v, scale = Meter.scaled f in
  v *. scale

let per_layer (e : entry) (w : Pass.workload) r =
  let gc = Gc.quick_stat () in
  let p = r.warm in
  let calls = fl p.Pass.recorder.Wrap.calls in
  let det k = fl (Pass.get p k) in
  let untraced_wall = med_of (fun q -> q.Pass.wall_s *. q.Pass.scale) r.plain in
  let traced_wall = med_of (fun q -> q.Pass.wall_s *. q.Pass.scale) r.traced in
  let native_s =
    median
      (List.init 3 (fun _ -> at_nominal (fun () -> snd (Meter.time w.Pass.native))))
  in
  let device_ns = native_s *. 1e9 /. fl r.native_calls in
  let remoted_ns = untraced_wall *. 1e9 /. calls in
  let (spec_s, plan_s), spec_scale = Meter.scaled (fun () -> spec_and_plan e.silo) in
  let corpus, wire_scale =
    Meter.scaled (fun () -> Wirecorpus.measure (Wirecorpus.frames p.Pass.recorder))
  in
  let encode_s = corpus.Wirecorpus.encode_s *. wire_scale
  and decode_s = corpus.Wirecorpus.decode_s *. wire_scale in
  let kb = fl corpus.Wirecorpus.bytes /. 1024.0 in
  let frames = fl corpus.Wirecorpus.frames in
  let sync = det "stub.sync_calls" and async = det "stub.async_calls" in
  let vt_sorted k =
    let a = Array.of_list (Option.value ~default:[] (Hashtbl.find_opt p.Pass.vt k)) in
    Array.sort compare a;
    a
  in
  let sessions = vt_sorted "cluster.session" in
  let late = vt_sorted "cluster.admit_late" in
  let share busy devices =
    if p.Pass.makespan_ns = 0 || devices = 0.0 then 0.0
    else busy /. (devices *. fl p.Pass.makespan_ns)
  in
  let obs_phases =
    let registry = List.find_map (fun q -> q.Pass.obs) r.traced in
    List.map
      (fun ph ->
        let v =
          match registry with
          | None -> 0.0
          | Some o -> (
              match List.assoc_opt ph (Ava_obs.Obs.phase_summaries o) with
              | Some s when s.Ava_obs.Hist.h_count > 0 -> s.Ava_obs.Hist.h_p50_ns
              | _ -> 0.0)
        in
        metric ("obs." ^ Ava_obs.Obs.phase_name ph ^ "_p50_ns") "vt-ns" v)
      Ava_obs.Obs.phases
  in
  let stp = Meter.tail_pct (Array.length sessions) in
  [
    metric "sim.events_per_call" "count" (det "sim.events" /. calls);
    metric "sim.wall_ns_per_event" "ns" (untraced_wall *. 1e9 /. det "sim.events");
    metric "sim.timer_ns_per_event" "ns" (at_nominal timer_ns_per_event);
    metric "spec.load_ms" "ms" (spec_s *. spec_scale *. 1e3);
    metric "codegen.plan_compile_ms" "ms" (plan_s *. spec_scale *. 1e3);
    metric "core.create_host_ms" "ms" (pooled r.plain "core.create_host" *. 1e3);
    metric "core.add_vm_us" "us" (pooled r.plain "core.add_vm" *. 1e6);
    metric "core.retire_vm_us" "us" (pooled r.plain "core.retire_vm" *. 1e6);
    metric "cluster.admit_us" "us" (pooled r.plain "cluster.admit" *. 1e6);
    metric "api.calls" "count" calls;
    metric "api.sync_share" "ratio" (if sync +. async = 0.0 then 0.0 else sync /. (sync +. async));
    metric "api.wall_ns_per_call" "ns"
      (med_of (fun q -> per_call q (q.Pass.recorder.Wrap.wall_s *. q.Pass.scale)) r.plain
      *. 1e9);
    metric "stub.marshalled_b_per_call" "B/call" (det "stub.marshalled_b" /. calls);
    metric "stub.retries" "count" (det "stub.retries");
    metric "router.forwarded" "count" (det "router.forwarded");
    metric "router.rejected" "count" (det "router.rejected");
    metric "router.requeued" "count" (det "router.requeued");
    metric "server.executed" "count" (det "server.executed");
    metric "server.rejected" "count" (det "server.rejected");
    metric "server.unexpected_exns" "count" (det "server.unexpected_exns");
    metric "transport.wire_b_per_call" "B/call" (det "transport.wire_b" /. calls);
    metric "wire.encode_ns_per_frame" "ns" (encode_s *. 1e9 /. frames);
    metric "wire.decode_ns_per_frame" "ns" (decode_s *. 1e9 /. frames);
    metric "wire.encode_ns_per_kb" "ns/KiB" (encode_s *. 1e9 /. kb);
    metric "wire.decode_ns_per_kb" "ns/KiB" (decode_s *. 1e9 /. kb);
    metric "wire.encode_alloc_b_per_b" "B/B"
      (corpus.Wirecorpus.encode_alloc_b /. fl corpus.Wirecorpus.bytes);
    metric "remoting.wall_ns_per_call" "ns" (remoted_ns -. device_ns);
    metric "device.wall_ns_per_call" "ns" device_ns;
    metric "pool.rebalance_us" "us" (pooled r.plain "pool.rebalance" *. 1e6);
    metric "pool.migrations" "count" (det "pool.migrations");
    metric "pool.device_busy_share" "ratio" (share (det "pool.busy_ns") (det "pool.devices"));
    metric "cluster.rebalance_us" "us" (pooled r.plain "cluster.rebalance" *. 1e6);
    metric "cluster.migrations" "count" (det "cluster.migrations");
    metric "cluster.rejected_admissions" "count" (det "cluster.rejected_admissions");
    metric "cluster.admit_late_us" "vt-us"
      (if Array.length late = 0 then 0.0
       else fl (Array.fold_left ( + ) 0 late) /. fl (Array.length late) /. 1e3);
    metric "cluster.session_p50_ms" "vt-ms" (fl (Meter.rank_pct sessions 50.0) /. 1e6)
      ~note:(Printf.sprintf "p50 of %d sessions" (Array.length sessions));
    metric "cluster.session_tail_ms" "vt-ms" (fl (Meter.rank_pct sessions stp) /. 1e6)
      ~note:(Printf.sprintf "p%g of %d sessions" stp (Array.length sessions));
    metric "cluster.host_busy_share" "ratio" (share (det "cluster.busy_ns") (det "cluster.devices"));
    metric "gc.minor_collections" "count" (med_of (fun q -> fl q.Pass.minor) r.plain);
    metric "gc.major_collections" "count" (med_of (fun q -> fl q.Pass.major) r.plain);
    metric "gc.promoted_b_per_call" "B/call"
      (med_of (fun q -> per_call q (q.Pass.promoted_w *. fl (Sys.word_size / 8))) r.plain);
    metric "gc.top_heap_mb" "MiB"
      (fl (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
  ]
  @ obs_phases
  @ [
      metric "trace.overhead" "ratio" (traced_wall /. untraced_wall)
        ~note:
          (Printf.sprintf "median traced / untraced pass wall, %d passes each"
             (List.length r.traced));
      metric "gen.input_ms" "ms" (r.gen_s *. 1e3);
    ]

(* ------------------------------------------------------------ main -- *)

let result_json ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  ( m.m_name,
                    Json.Obj
                      [ ("value", Json.Float m.m_value); ("unit", Json.String m.m_unit) ] ))
                metrics) );
       ])

let print_metric m =
  Printf.printf "  %-28s %18.6f %-7s %s\n" m.m_name m.m_value m.m_unit
    (if m.m_note = "" then "" else "(" ^ m.m_note ^ ")")

(* Run one workload and print its report; the last line is the result
   object.  Returns whether the run was correct. *)
let main (e : entry) ~seed ~seconds ~trace =
  let w, gen_s = Meter.time (fun () -> e.make ~seed) in
  let r = run_passes w ~gen_s ~seconds ~trace in
  let okr = ok_ratio r in
  let correct = okr = 1.0 && r.deterministic in
  Printf.printf "workload %s seed %d trace %d: %d timed passes%s\n" e.name seed
    (if trace then 1 else 0)
    (List.length r.plain)
    (if trace then Printf.sprintf " + %d traced" (List.length r.traced) else "");
  List.iter (fun l -> Printf.printf "fingerprint %s\n" l) (Pass.fingerprint r.warm);
  if not r.deterministic then
    print_endline "ERROR: a pass diverged from the warm-up fingerprint";
  if okr < 1.0 then
    Printf.printf "ERROR: %d of %d calls or checks failed\n" (total Pass.failed r)
      (total Pass.attempted r);
  let metrics = if trace then per_layer e w r else end_to_end r in
  List.iter print_metric metrics;
  print_endline
    (result_json ~correct ~attempted:(total Pass.attempted r)
       ~failed:(total Pass.failed r) metrics);
  correct
