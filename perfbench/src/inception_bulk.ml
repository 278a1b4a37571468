(* inception-bulk: Inception v3 on the Movidius silo.  One 90 MB graph
   upload, then [inferences] seeded 0.27 MB input tensors in a closed
   loop, each followed by its result read-back.  13 calls move ~95 MB:
   the same wire layer as rodinia-ring, driven by payload bytes instead
   of call rate, and ~500 engine events, so the engine is bypassed.
   The simulated stick rewrites every tensor byte once per layer, so
   inferences are kept few for the byte path, not the device model, to
   dominate host time.  The seed draws the tensors. *)

open Ava_sim
module Host = Ava_core.Host
module Inception = Ava_workloads.Inception

let inferences = 4

exception Failed

let run ~graph_data ~tensors (module NC : Ava_simnc.Api.S) =
  let ok = function Ok v -> v | Error _ -> raise Failed in
  let name = ok (NC.mvncGetDeviceName ~index:0) in
  let dev = ok (NC.mvncOpenDevice ~name) in
  let graph = ok (NC.mvncAllocateGraph dev ~graph_data) in
  Array.iter
    (fun tensor ->
      ok (NC.mvncLoadTensor graph ~tensor);
      ignore (ok (NC.mvncGetResult graph)))
    tensors;
  ok (NC.mvncDeallocateGraph graph);
  ok (NC.mvncCloseDevice dev)

let make ~seed =
  let rng = Random.State.make [| seed |] in
  let graph_data = Inception.graph_data () in
  let tensors =
    Array.init inferences (fun _ ->
        Bytes.init Inception.input_bytes (fun _ ->
            Char.unsafe_chr (Random.State.bits rng land 0xff)))
  in
  let program = run ~graph_data ~tensors in
  let reference = ref (0, []) in
  let native () =
    let r = Wrap.recorder (Engine.create ()) in
    reference := Pass.solo r (fun e o -> program (Wrap.nc r o (fst (Host.native_nc e))));
    r.Wrap.calls
  in
  let pass ~obs =
    let e = Engine.create () in
    let p = Pass.create ~obs e in
    let (host, guest), setup =
      Meter.time (fun () ->
          let host =
            Pass.timed p "core.create_host" (fun () ->
                Host.create_nc_host ?obs:p.Pass.obs e)
          in
          ( host,
            Pass.timed p "core.add_vm" (fun () ->
                Host.add_nc_vm host ~name:"inception") ))
    in
    p.Pass.setup_s <- setup;
    let o = Wrap.outs () in
    let vt = ref 0 in
    Pass.region p (fun () ->
        Engine.spawn e (fun () ->
            let v0 = Engine.now e in
            (try program (Wrap.nc p.Pass.recorder o guest.Host.ng_api)
             with Failed -> p.Pass.bad <- p.Pass.bad + 1);
            vt := Engine.now e - v0);
        Engine.run e);
    let native_ns, digests = !reference in
    Pass.verify p ~native:digests o;
    p.Pass.units <-
      [ { Pass.u_name = "inception"; u_vt_ns = !vt; u_native_ns = native_ns } ];
    p.Pass.makespan_ns <- !vt;
    Pass.count p "sim.events" (Engine.events_executed e);
    Option.iter (Pass.stub_counts p) guest.Host.ng_stub;
    Pass.router_counts p host.Host.nc_router;
    Pass.server_counts p host.Host.nc_server;
    Pass.count p "transport.wire_b" (Ava_hv.Vm.bytes_transferred guest.Host.ng_vm);
    p
  in
  { Pass.native; pass }
