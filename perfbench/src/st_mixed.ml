(* st-mixed: a SimST fleet of [stream; stream; npu; npu] devices behind
   one host.  Stream tenants pipeline async host-to-device copies, a
   vadd kernel, a scale kernel over its sum and a read-back; NPU tenants
   push scoring batches through
   the batch queue.  Half of each class is pinned onto the first device
   of its capability, so the pool rebalancer (driven here, one
   [Pool.rebalance_now] per tick) makes same-capability migrations.
   This is the only traffic through the spec-generated SimST path and
   through same-host pool migration.  The seed draws each tenant's
   data; every tenant runs [rounds] rounds, so the call mix, and with it
   the host cost per call, is the same for every seed. *)

open Ava_sim
module Host = Ava_core.Host
module Pool = Ava_pool.Pool

let per_class = 16
let vadd_n = 256
let batch_items = 32
let item_size = 64
let rounds = 200
let rebalance_tick = Time.us 200

exception Failed

let ok = function Ok v -> v | Error _ -> raise Failed

let vadd ~a ~b ~rounds (module A : Ava_simst.Api.S) =
  let bytes = 4 * vadd_n in
  let s = ok (A.stStreamCreate ()) in
  let ma = ok (A.stMemAlloc ~size:bytes) in
  let mb = ok (A.stMemAlloc ~size:bytes) in
  let out = ok (A.stMemAlloc ~size:bytes) in
  let res = ok (A.stMemAlloc ~size:bytes) in
  for _ = 1 to rounds do
    ok (A.stMemcpyHtoDAsync ma ~src:a s);
    ok (A.stMemcpyHtoDAsync mb ~src:b s);
    ok (A.stLaunchKernel s ~name:"vadd" ~a:ma ~b:mb ~out ~n:vadd_n);
    ok (A.stLaunchKernel s ~name:"scale" ~a:out ~b:out ~out:res ~n:vadd_n);
    ignore (ok (A.stMemcpyDtoH ~size:bytes res))
  done;
  ok (A.stStreamSynchronize s);
  List.iter (fun m -> ok (A.stMemFree m)) [ ma; mb; out; res ];
  ok (A.stStreamDestroy s)

let batches ~batch ~rounds (module A : Ava_simst.Api.S) =
  let s = ok (A.stStreamCreate ()) in
  for _ = 1 to rounds do
    let ticket = ok (A.stBatchSubmit s ~batch ~item_size) in
    ignore (ok (A.stBatchCollect s ~ticket ~size:(4 * batch_items)))
  done;
  ok (A.stStreamDestroy s)

type tenant = {
  name : string;
  cap : Pool.capability;
  pinned : int option;
  program : (module Ava_simst.Api.S) -> unit;
}

let make ~seed =
  let rng = Random.State.make [| seed |] in
  let rand_bytes n =
    Bytes.init n (fun _ -> Char.unsafe_chr (Random.State.bits rng land 0xff))
  in
  let vec () =
    let b = Bytes.create (4 * vadd_n) in
    for i = 0 to vadd_n - 1 do
      Bytes.set_int32_le b (4 * i) (Int32.of_int (Random.State.bits rng land 0xffff))
    done;
    b
  in
  let tenants =
    List.init (2 * per_class) (fun i ->
        let stream = i mod 2 = 0 and pinned = i mod 4 < 2 in
        if stream then
          let a = vec () and b = vec () in
          {
            name = Printf.sprintf "stream%d" i;
            cap = Pool.Cap_stream;
            pinned = (if pinned then Some 0 else None);
            program = vadd ~a ~b ~rounds;
          }
        else
          let batch = rand_bytes (batch_items * item_size) in
          {
            name = Printf.sprintf "npu%d" i;
            cap = Pool.Cap_npu;
            pinned = (if pinned then Some 2 else None);
            program = batches ~batch ~rounds;
          })
  in
  let refs = Hashtbl.create 64 in
  let native () =
    let r = Wrap.recorder (Engine.create ()) in
    List.iter
      (fun t ->
        let st_timing =
          match t.cap with
          | Pool.Cap_npu -> Ava_simst.Device.npu_class
          | _ -> Ava_simst.Device.sm_stream
        in
        Hashtbl.replace refs t.name
          (Pass.solo r (fun e o ->
               t.program (Wrap.st r o (fst (Host.native_st ~st_timing e))))))
      tenants;
    r.Wrap.calls
  in
  let pass ~obs =
    let e = Engine.create () in
    let p = Pass.create ~obs e in
    let (host, guests), setup =
      Meter.time (fun () ->
          let host =
            Pass.timed p "core.create_host" (fun () ->
                Host.create_st_host ?obs:p.Pass.obs
                  ~fleet:Pool.[ Cap_stream; Cap_stream; Cap_npu; Cap_npu ]
                  ~placement:Pool.Round_robin e)
          in
          ( host,
            List.map
              (fun t ->
                ( t,
                  Pass.timed p "core.add_vm" (fun () ->
                      Host.add_st_vm host ~requires:t.cap ?device:t.pinned
                        ~name:t.name) ))
              tenants ))
    in
    p.Pass.setup_s <- setup;
    let pool = Option.get host.Host.st_pool in
    let live = ref (List.length guests) in
    let outs = List.map (fun (t, _) -> (t, Wrap.outs ())) guests in
    Pass.region p (fun () ->
        List.iter2
          (fun (t, g) (_, o) ->
            Engine.spawn e (fun () ->
                let v0 = Engine.now e in
                (try t.program (Wrap.st p.Pass.recorder o g.Host.sg_api)
                 with Failed -> p.Pass.bad <- p.Pass.bad + 1);
                let native_ns, _ = Hashtbl.find refs t.name in
                p.Pass.units <-
                  { Pass.u_name = t.name; u_vt_ns = Engine.now e - v0; u_native_ns = native_ns }
                  :: p.Pass.units;
                p.Pass.makespan_ns <- Stdlib.max p.Pass.makespan_ns (Engine.now e);
                decr live))
          guests outs;
        Engine.spawn e (fun () ->
            while !live > 0 do
              ignore (Pass.timed p "pool.rebalance" (fun () -> Pool.rebalance_now pool));
              Engine.delay rebalance_tick
            done);
        Engine.run e);
    List.iter (fun (t, o) -> Pass.verify p ~native:(snd (Hashtbl.find refs t.name)) o) outs;
    Pass.count p "sim.events" (Engine.events_executed e);
    List.iter
      (fun (_, g) ->
        Option.iter (Pass.stub_counts p) g.Host.sg_stub;
        Pass.count p "transport.wire_b" (Ava_hv.Vm.bytes_transferred g.Host.sg_vm))
      guests;
    Pass.router_counts p host.Host.st_router;
    for d = 0 to Pool.n_devices pool - 1 do
      Pass.server_counts p (Pool.server pool d)
    done;
    Pass.count p "pool.migrations" (Pool.migrations pool);
    Pass.count p "pool.busy_ns"
      (List.fold_left (fun a s -> a + s.Pool.ds_busy_ns) 0 (Pool.stats pool));
    Pass.count p "pool.devices" (Pool.n_devices pool);
    p
  in
  { Pass.native; pass }
