(* fleet-churn: the cluster control plane under a seeded tenant trace.
   Four gossip-admission hosts of two devices each; the benchmark itself
   drives the trace in an open loop (arrivals and sessions at their
   trace times, in virtual time): [Cluster.admit], sessions through the
   tenant's API ([Cluster.run_session], which bit-checks its result),
   [Cluster.retire], and a rebalancer process calling
   [Cluster.rebalance_now] every tick, which migrates tenants across
   hosts by record/replay.  Sessions are timed from their due time, so
   a stall counts against every session queued behind it.  The seed is
   the trace generator's. *)

open Ava_sim
module Host = Ava_core.Host
module Cluster = Ava_cluster.Cluster
module Tracegen = Ava_cluster.Tracegen

let hosts = 4
let devices_per_host = 2
let rebalance_tick = Time.ms 1
let retire_backoff = Time.us 10

(* 512 tenants arriving every 80 us on average (12.5 k arrivals per
   virtual second), ~4 sessions each of Pareto(3) work from 4 to 64
   kernel iterations.  The hot / straggler classes and the diurnal
   swing are off: with them, or at a higher rate, the fleet saturates,
   the backlog grows through the run and the virtual-time figures swing
   by tens of percent from one seed to the next. *)
let trace_config seed =
  {
    Tracegen.default with
    Tracegen.tg_seed = Int64.of_int seed;
    tg_tenants = 512;
    tg_mean_interarrival_ns = Time.us 80;
    tg_sessions_mean = 4.0;
    tg_think_mean_ns = Time.us 20;
    tg_session_alpha = 3.0;
    tg_session_xm = 4.0;
    tg_work_cap = 64;
    tg_diurnal_amplitude = 0.0;
    tg_hot_fraction = 0.0;
    tg_straggler_fraction = 0.0;
  }

(* The trace's events per tenant, tenants in id order. *)
let per_tenant events =
  let groups = Hashtbl.create 256 in
  List.iter
    (fun ev ->
      let id = Tracegen.tenant ev in
      Hashtbl.replace groups id
        (ev :: Option.value ~default:[] (Hashtbl.find_opt groups id)))
    events;
  List.sort compare (Hashtbl.fold (fun id evs acc -> (id, List.rev evs) :: acc) groups [])

let make ~seed =
  let tenants = per_tenant (Tracegen.generate (trace_config seed)) in
  let works =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, evs) ->
           List.filter_map
             (function Tracegen.Session { work; _ } -> Some work | _ -> None)
             evs)
         tenants)
  in
  let refs = Hashtbl.create 64 in
  let native () =
    let r = Wrap.recorder (Engine.create ()) in
    List.iter
      (fun work ->
        let passed = ref false in
        Hashtbl.replace refs work
          (Pass.solo r (fun e o ->
               passed := Cluster.run_session (Wrap.cl r o (fst (Host.native_cl e))) ~work));
        if not !passed then failwith "native session failed its bit-check")
      works;
    r.Wrap.calls
  in
  let pass ~obs =
    let e = Engine.create () in
    let p = Pass.create ~obs e in
    let c, setup =
      Meter.time (fun () ->
          Cluster.create
            ~policy:(Cluster.Gossip { g_fanout = 2; g_interval_ns = Time.us 200 })
            ~devices_per_host ?obs:p.Pass.obs ~hosts e)
    in
    p.Pass.setup_s <- setup;
    Pass.sample_wall p "core.create_host" (setup /. float_of_int hosts);
    let live = ref (List.length tenants) in
    let until at = if at > Engine.now e then Engine.delay (at - Engine.now e) in
    let session api ~at ~work =
      until at;
      let start = Engine.now e in
      let o = Wrap.outs () in
      let passed = Cluster.run_session (Wrap.cl p.Pass.recorder o api) ~work in
      let native_ns, digests = Hashtbl.find refs work in
      p.Pass.checks <- p.Pass.checks + 1;
      if not passed then p.Pass.bad <- p.Pass.bad + 1;
      Pass.verify p ~native:digests o;
      let fin = Engine.now e in
      Pass.sample_vt p "cluster.session" (fin - at);
      p.Pass.units <-
        { Pass.u_name = "session"; u_vt_ns = fin - start; u_native_ns = native_ns }
        :: p.Pass.units
    in
    let tenant (id, evs) () =
      let current = ref None in
      List.iter
        (function
          | Tracegen.Arrive { at; _ } ->
              until at;
              let tn =
                Pass.timed p "cluster.admit" (fun () ->
                    Cluster.admit c ~name:(Printf.sprintf "trace-t%d" id))
              in
              Pass.sample_vt p "cluster.admit_late" (Engine.now e - at);
              current := Some (tn, Cluster.api tn)
          | Tracegen.Session { at; work; _ } ->
              Option.iter (fun (_, api) -> session api ~at ~work) !current
          | Tracegen.Depart { at; _ } ->
              until at;
              Option.iter
                (fun (tn, _) ->
                  let h = Cluster.cl_host c (Cluster.host_of tn) in
                  let vm_id = Cluster.vm_id tn in
                  Option.iter
                    (fun pool ->
                      Option.iter
                        (fun vm -> Pass.count p "transport.wire_b" (Ava_hv.Vm.bytes_transferred vm))
                        (Host.Pool.vm_of pool ~vm_id))
                    h.Host.pool;
                  (* Retirement is refused while the tenant is mid-migration;
                     the API contract is to retry once the move completes. *)
                  let rec retire tries =
                    if Pass.timed p "core.retire_vm" (fun () -> Cluster.retire c ~vm_id)
                    then ()
                    else if tries > 0 && Cluster.find_tenant c ~vm_id <> None then begin
                      Pass.count p "cluster.retire_retries" 1;
                      Engine.delay retire_backoff;
                      retire (tries - 1)
                    end
                    else p.Pass.bad <- p.Pass.bad + 1
                  in
                  retire 100)
                !current;
              current := None)
        evs;
      p.Pass.makespan_ns <- Stdlib.max p.Pass.makespan_ns (Engine.now e);
      decr live
    in
    Pass.region p (fun () ->
        List.iter (fun t -> Engine.spawn e (tenant t)) tenants;
        Engine.spawn e (fun () ->
            while !live > 0 do
              ignore (Pass.timed p "cluster.rebalance" (fun () -> Cluster.rebalance_now c));
              Engine.delay rebalance_tick
            done;
            Cluster.stop c);
        Engine.run e);
    p.Pass.checks <- p.Pass.checks + 1;
    if Cluster.rejected_admissions c > 0 then p.Pass.bad <- p.Pass.bad + 1;
    Pass.count p "sim.events" (Engine.events_executed e);
    let busy = ref 0 in
    for h = 0 to Cluster.n_hosts c - 1 do
      let host = Cluster.cl_host c h in
      Pass.router_counts p host.Host.router;
      Option.iter
        (fun pool ->
          for d = 0 to Host.Pool.n_devices pool - 1 do
            Pass.server_counts p (Host.Pool.server pool d)
          done)
        host.Host.pool;
      busy := !busy + Cluster.host_busy_ns c h
    done;
    Pass.count p "cluster.busy_ns" !busy;
    Pass.count p "cluster.devices" (Cluster.total_devices c);
    Pass.count p "cluster.migrations" (Cluster.cross_migrations c);
    Pass.count p "cluster.rejected_admissions" (Cluster.rejected_admissions c);
    Pass.count p "cluster.admissions" (Cluster.admissions c);
    p
  in
  { Pass.native; pass }
