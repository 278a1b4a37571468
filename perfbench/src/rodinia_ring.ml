(* rodinia-ring: the Figure 5 setup.  Each of the ten Rodinia benchmarks
   runs as the only guest of a classic single-device host, AvA over the
   shared-memory ring, in a closed loop; its native twin runs the same
   program on the bare silo.  Thousands of small calls per pass: this
   workload stresses the per-call path and bypasses bulk payloads, the
   pool and the cluster.  The Rodinia programs are fixed call graphs
   with zero-filled payloads and run in suite order, so every seed gives
   the same inputs.  A seeded order would move peak RSS by ~12 % from
   seed to seed and change nothing else. *)

open Ava_sim
module Host = Ava_core.Host
module Rodinia = Ava_workloads.Rodinia

let make ~seed:_ =
  let order = Rodinia.all in
  let refs = Hashtbl.create 16 in
  let native () =
    let r = Wrap.recorder (Engine.create ()) in
    List.iter
      (fun (b : Rodinia.benchmark) ->
        Hashtbl.replace refs b.name
          (Pass.solo r (fun e o -> b.run (Wrap.cl r o (fst (Host.native_cl e))))))
      order;
    r.Wrap.calls
  in
  let pass ~obs =
    let p = Pass.create ~obs (Engine.create ()) in
    List.iter
      (fun (b : Rodinia.benchmark) ->
        let e = Engine.create () in
        p.Pass.recorder.Wrap.engine <- e;
        let (host, guest), setup =
          Meter.time (fun () ->
              let host =
                Pass.timed p "core.create_host" (fun () ->
                    Host.create_cl_host ?obs:p.Pass.obs e)
              in
              ( host,
                Pass.timed p "core.add_vm" (fun () ->
                    Host.add_cl_vm host ~name:b.name) ))
        in
        p.Pass.setup_s <- p.Pass.setup_s +. setup;
        let o = Wrap.outs () in
        let vt = ref 0 in
        Pass.region p (fun () ->
            Engine.spawn e (fun () ->
                let v0 = Engine.now e in
                (try b.run (Wrap.cl p.Pass.recorder o guest.Host.g_api)
                 with Ava_workloads.Clutil.Api_failure _ -> p.Pass.bad <- p.Pass.bad + 1);
                vt := Engine.now e - v0);
            Engine.run e);
        let native_ns, digests = Hashtbl.find refs b.name in
        Pass.verify p ~native:digests o;
        p.Pass.units <-
          { Pass.u_name = b.name; u_vt_ns = !vt; u_native_ns = native_ns }
          :: p.Pass.units;
        p.Pass.makespan_ns <- p.Pass.makespan_ns + !vt;
        Pass.count p "sim.events" (Engine.events_executed e);
        Option.iter (Pass.stub_counts p) guest.Host.g_stub;
        Pass.router_counts p host.Host.router;
        Pass.server_counts p host.Host.server;
        Pass.count p "transport.wire_b" (Ava_hv.Vm.bytes_transferred guest.Host.g_vm))
      order;
    p
  in
  { Pass.native; pass }
