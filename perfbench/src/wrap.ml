(* Timing wrappers: one per silo API signature.  A wrapped module is a
   drop-in [Api.S]; every call goes through [call], which records the
   virtual latency the guest observes (Engine.now before and after),
   the inclusive host wall time, the status, and the call's shape
   (function name, scalar count, payload bytes) from which the wire
   frame corpus is rebuilt.  Read-back outputs are digested into the
   calling unit's [outs] so a remoted run can be compared with its
   native twin.  The wrapper only reads the engine clock, so wrapped
   and unwrapped runs are bit-identical in virtual time. *)

open Ava_sim

type 'a vec = { mutable a : 'a array; mutable n : int }

let vec () = { a = [||]; n = 0 }

let push v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (Stdlib.max 64 (2 * v.n)) x in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let to_array v = Array.sub v.a 0 v.n

(* Calls of one deployment (one engine at a time). *)
type recorder = {
  mutable engine : Engine.t;
  mutable calls : int;
  mutable errors : int;
  mutable wall_s : float;  (** inclusive wall time inside guest calls *)
  lat : int vec;  (** virtual issue-to-return latency, ns *)
  fns : string vec;
  scalars : int vec;
  payload : int vec;  (** bytes of blob / string arguments *)
}

let recorder engine =
  {
    engine;
    calls = 0;
    errors = 0;
    wall_s = 0.0;
    lat = vec ();
    fns = vec ();
    scalars = vec ();
    payload = vec ();
  }

(* Self-test hooks: [spin_s] adds a fixed host-time spin inside every
   wrapped call; [bypass] hands the silo API out unwrapped. *)
let spin_s = ref 0.0
let bypass = ref false

(* Read-back outputs of one work unit, in call order.  A non-blocking
   SimCL read materializes its bytes only at completion, so its digest
   is taken when the unit is verified. *)
type out = Digest of int64 | Pending of bytes

type outs = out list ref  (** newest first *)

let outs () : outs = ref []
let emit (o : outs) d = o := d :: !o

let digests (o : outs) =
  List.rev_map
    (function Digest d -> d | Pending b -> Ava_remoting.Wire.digest b)
    !o

let spin s =
  let until = Meter.now_s () +. s in
  while Meter.now_s () < until do
    ()
  done

let call r fn ~s ~b f =
  let v0 = Engine.now r.engine in
  let w0 = Meter.now_s () in
  if !spin_s > 0.0 then spin !spin_s;
  let res = f () in
  r.wall_s <- r.wall_s +. (Meter.now_s () -. w0);
  r.calls <- r.calls + 1;
  (match res with Error _ -> r.errors <- r.errors + 1 | Ok _ -> ());
  push r.lat (Engine.now r.engine - v0);
  push r.fns fn;
  push r.scalars s;
  push r.payload b;
  res

let digest_ok o = function
  | Ok bytes -> emit o (Digest (Ava_remoting.Wire.digest bytes))
  | Error _ -> ()

let cl r o (api : (module Ava_simcl.Api.S)) : (module Ava_simcl.Api.S) =
  if !bypass then api
  else
  let module A = (val api) in
  (module struct
    let c fn ~s ~b f = call r fn ~s ~b f

    let clGetPlatformIDs () = c "clGetPlatformIDs" ~s:0 ~b:0 A.clGetPlatformIDs
    let clGetPlatformInfo p i =
      c "clGetPlatformInfo" ~s:2 ~b:0 (fun () -> A.clGetPlatformInfo p i)

    let clGetDeviceIDs p t =
      c "clGetDeviceIDs" ~s:2 ~b:0 (fun () -> A.clGetDeviceIDs p t)

    let clGetDeviceInfo d i =
      c "clGetDeviceInfo" ~s:2 ~b:0 (fun () -> A.clGetDeviceInfo d i)

    let clCreateContext ds =
      c "clCreateContext" ~s:(List.length ds) ~b:0 (fun () ->
          A.clCreateContext ds)

    let clRetainContext x = c "clRetainContext" ~s:1 ~b:0 (fun () -> A.clRetainContext x)
    let clReleaseContext x = c "clReleaseContext" ~s:1 ~b:0 (fun () -> A.clReleaseContext x)
    let clGetContextInfo x = c "clGetContextInfo" ~s:1 ~b:0 (fun () -> A.clGetContextInfo x)

    let clCreateCommandQueue ctx d ~profiling =
      c "clCreateCommandQueue" ~s:3 ~b:0 (fun () ->
          A.clCreateCommandQueue ctx d ~profiling)

    let clRetainCommandQueue x =
      c "clRetainCommandQueue" ~s:1 ~b:0 (fun () -> A.clRetainCommandQueue x)

    let clReleaseCommandQueue x =
      c "clReleaseCommandQueue" ~s:1 ~b:0 (fun () -> A.clReleaseCommandQueue x)

    let clGetCommandQueueInfo x =
      c "clGetCommandQueueInfo" ~s:1 ~b:0 (fun () -> A.clGetCommandQueueInfo x)

    let clCreateBuffer ctx ~size =
      c "clCreateBuffer" ~s:2 ~b:0 (fun () -> A.clCreateBuffer ctx ~size)

    let clRetainMemObject x =
      c "clRetainMemObject" ~s:1 ~b:0 (fun () -> A.clRetainMemObject x)

    let clReleaseMemObject x =
      c "clReleaseMemObject" ~s:1 ~b:0 (fun () -> A.clReleaseMemObject x)

    let clGetMemObjectInfo x =
      c "clGetMemObjectInfo" ~s:1 ~b:0 (fun () -> A.clGetMemObjectInfo x)

    let clCreateProgramWithSource ctx ~source =
      c "clCreateProgramWithSource" ~s:1 ~b:(String.length source) (fun () ->
          A.clCreateProgramWithSource ctx ~source)

    let clBuildProgram p ~options =
      c "clBuildProgram" ~s:1 ~b:(String.length options) (fun () ->
          A.clBuildProgram p ~options)

    let clGetProgramBuildInfo x =
      c "clGetProgramBuildInfo" ~s:1 ~b:0 (fun () -> A.clGetProgramBuildInfo x)

    let clRetainProgram x = c "clRetainProgram" ~s:1 ~b:0 (fun () -> A.clRetainProgram x)
    let clReleaseProgram x = c "clReleaseProgram" ~s:1 ~b:0 (fun () -> A.clReleaseProgram x)

    let clCreateKernel p ~name =
      c "clCreateKernel" ~s:1 ~b:(String.length name) (fun () ->
          A.clCreateKernel p ~name)

    let clRetainKernel x = c "clRetainKernel" ~s:1 ~b:0 (fun () -> A.clRetainKernel x)
    let clReleaseKernel x = c "clReleaseKernel" ~s:1 ~b:0 (fun () -> A.clReleaseKernel x)

    let clSetKernelArg k ~index arg =
      c "clSetKernelArg" ~s:2 ~b:9 (fun () -> A.clSetKernelArg k ~index arg)

    let clGetKernelInfo x = c "clGetKernelInfo" ~s:1 ~b:0 (fun () -> A.clGetKernelInfo x)

    let clGetKernelWorkGroupInfo k d =
      c "clGetKernelWorkGroupInfo" ~s:2 ~b:0 (fun () ->
          A.clGetKernelWorkGroupInfo k d)

    let clEnqueueNDRangeKernel q k ~global_work_size ~local_work_size
        ~wait_list ~want_event =
      c "clEnqueueNDRangeKernel" ~s:(5 + List.length wait_list) ~b:0 (fun () ->
          A.clEnqueueNDRangeKernel q k ~global_work_size ~local_work_size
            ~wait_list ~want_event)

    let clEnqueueTask q k ~wait_list ~want_event =
      c "clEnqueueTask" ~s:(3 + List.length wait_list) ~b:0 (fun () ->
          A.clEnqueueTask q k ~wait_list ~want_event)

    let clEnqueueReadBuffer q m ~blocking ~offset ~size ~wait_list ~want_event
        =
      let res =
        c "clEnqueueReadBuffer" ~s:(6 + List.length wait_list) ~b:0 (fun () ->
            A.clEnqueueReadBuffer q m ~blocking ~offset ~size ~wait_list
              ~want_event)
      in
      (match res with
      | Ok (data, _) ->
          emit o
            (if blocking then Digest (Ava_remoting.Wire.digest data)
             else Pending data)
      | Error _ -> ());
      res

    let clEnqueueWriteBuffer q m ~blocking ~offset ~src ~wait_list ~want_event
        =
      c "clEnqueueWriteBuffer" ~s:(5 + List.length wait_list)
        ~b:(Bytes.length src) (fun () ->
          A.clEnqueueWriteBuffer q m ~blocking ~offset ~src ~wait_list
            ~want_event)

    let clEnqueueCopyBuffer q ~src ~dst ~src_offset ~dst_offset ~size
        ~wait_list ~want_event =
      c "clEnqueueCopyBuffer" ~s:(7 + List.length wait_list) ~b:0 (fun () ->
          A.clEnqueueCopyBuffer q ~src ~dst ~src_offset ~dst_offset ~size
            ~wait_list ~want_event)

    let clEnqueueFillBuffer q m ~pattern ~offset ~size ~wait_list ~want_event
        =
      c "clEnqueueFillBuffer" ~s:(6 + List.length wait_list) ~b:0 (fun () ->
          A.clEnqueueFillBuffer q m ~pattern ~offset ~size ~wait_list
            ~want_event)

    let clFlush x = c "clFlush" ~s:1 ~b:0 (fun () -> A.clFlush x)
    let clFinish x = c "clFinish" ~s:1 ~b:0 (fun () -> A.clFinish x)

    let clWaitForEvents es =
      c "clWaitForEvents" ~s:(List.length es) ~b:0 (fun () ->
          A.clWaitForEvents es)

    let clGetEventInfo x = c "clGetEventInfo" ~s:1 ~b:0 (fun () -> A.clGetEventInfo x)

    let clGetEventProfilingInfo e i =
      c "clGetEventProfilingInfo" ~s:2 ~b:0 (fun () ->
          A.clGetEventProfilingInfo e i)

    let clReleaseEvent x = c "clReleaseEvent" ~s:1 ~b:0 (fun () -> A.clReleaseEvent x)
  end)

let nc r o (api : (module Ava_simnc.Api.S)) : (module Ava_simnc.Api.S) =
  if !bypass then api
  else
  let module A = (val api) in
  (module struct
    let c fn ~s ~b f = call r fn ~s ~b f

    let mvncGetDeviceName ~index =
      c "mvncGetDeviceName" ~s:1 ~b:0 (fun () -> A.mvncGetDeviceName ~index)

    let mvncOpenDevice ~name =
      c "mvncOpenDevice" ~s:0 ~b:(String.length name) (fun () ->
          A.mvncOpenDevice ~name)

    let mvncCloseDevice d = c "mvncCloseDevice" ~s:1 ~b:0 (fun () -> A.mvncCloseDevice d)

    let mvncAllocateGraph d ~graph_data =
      c "mvncAllocateGraph" ~s:1 ~b:(Bytes.length graph_data) (fun () ->
          A.mvncAllocateGraph d ~graph_data)

    let mvncDeallocateGraph g =
      c "mvncDeallocateGraph" ~s:1 ~b:0 (fun () -> A.mvncDeallocateGraph g)

    let mvncLoadTensor g ~tensor =
      c "mvncLoadTensor" ~s:1 ~b:(Bytes.length tensor) (fun () ->
          A.mvncLoadTensor g ~tensor)

    let mvncGetResult g =
      let res = c "mvncGetResult" ~s:1 ~b:0 (fun () -> A.mvncGetResult g) in
      digest_ok o res;
      res

    let mvncGetGraphOption g opt =
      c "mvncGetGraphOption" ~s:2 ~b:0 (fun () -> A.mvncGetGraphOption g opt)

    let mvncSetGraphOption g opt v =
      c "mvncSetGraphOption" ~s:3 ~b:0 (fun () -> A.mvncSetGraphOption g opt v)

    let mvncGetDeviceOption d opt =
      c "mvncGetDeviceOption" ~s:2 ~b:0 (fun () -> A.mvncGetDeviceOption d opt)
  end)

let st r o (api : (module Ava_simst.Api.S)) : (module Ava_simst.Api.S) =
  if !bypass then api
  else
  let module A = (val api) in
  (module struct
    let c fn ~s ~b f = call r fn ~s ~b f

    let stDeviceGetCount () = c "stDeviceGetCount" ~s:0 ~b:0 A.stDeviceGetCount
    let stStreamCreate () = c "stStreamCreate" ~s:0 ~b:0 A.stStreamCreate
    let stStreamDestroy x = c "stStreamDestroy" ~s:1 ~b:0 (fun () -> A.stStreamDestroy x)

    let stStreamSynchronize x =
      c "stStreamSynchronize" ~s:1 ~b:0 (fun () -> A.stStreamSynchronize x)

    let stEventCreate () = c "stEventCreate" ~s:0 ~b:0 A.stEventCreate
    let stEventDestroy x = c "stEventDestroy" ~s:1 ~b:0 (fun () -> A.stEventDestroy x)

    let stEventRecord e s =
      c "stEventRecord" ~s:2 ~b:0 (fun () -> A.stEventRecord e s)

    let stEventSynchronize x =
      c "stEventSynchronize" ~s:1 ~b:0 (fun () -> A.stEventSynchronize x)

    let stStreamWaitEvent s e =
      c "stStreamWaitEvent" ~s:2 ~b:0 (fun () -> A.stStreamWaitEvent s e)

    let stMemAlloc ~size = c "stMemAlloc" ~s:1 ~b:0 (fun () -> A.stMemAlloc ~size)
    let stMemFree x = c "stMemFree" ~s:1 ~b:0 (fun () -> A.stMemFree x)

    let stMemcpyHtoDAsync m ~src s =
      c "stMemcpyHtoDAsync" ~s:2 ~b:(Bytes.length src) (fun () ->
          A.stMemcpyHtoDAsync m ~src s)

    let stMemcpyDtoH ~size m =
      let res = c "stMemcpyDtoH" ~s:2 ~b:0 (fun () -> A.stMemcpyDtoH ~size m) in
      digest_ok o res;
      res

    let stLaunchKernel s ~name ~a ~b ~out ~n =
      c "stLaunchKernel" ~s:5 ~b:(String.length name) (fun () ->
          A.stLaunchKernel s ~name ~a ~b ~out ~n)

    let stBatchSubmit s ~batch ~item_size =
      c "stBatchSubmit" ~s:2 ~b:(Bytes.length batch) (fun () ->
          A.stBatchSubmit s ~batch ~item_size)

    let stBatchCollect s ~ticket ~size =
      let res =
        c "stBatchCollect" ~s:3 ~b:0 (fun () -> A.stBatchCollect s ~ticket ~size)
      in
      digest_ok o res;
      res
  end)
