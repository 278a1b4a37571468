(* The AvA-generated API server dispatch for SimCL.

   Each handler unmarshals one function's arguments (layout mirrors
   {!Cl_remote}), resolves virtual ids through the per-VM context, runs
   the call against that VM's private native SimCL instance (process
   isolation), and marshals the reply.

   Optional buffer-granularity swapping (§4.3) hooks allocation, use and
   release of memory objects. *)

module Wire = Ava_remoting.Wire
module Server = Ava_remoting.Server
module Swap = Ava_remoting.Swap

open Ava_simcl.Types
open Codec

type state = {
  api : (module Ava_simcl.Api.S);
  native : Ava_simcl.Native.st;
  swap : Swap.t option;
}

(* Thread the VM id down to the device layer as the submitting client, so
   per-client fault targeting (and TDR blame) can tell tenants apart. *)
let make_state ?swap kd ~vm_id =
  let api, native = Ava_simcl.Native.create ~client:vm_id kd in
  { api; native; swap }

(* Reply helpers. *)
let err e : int * Wire.value * Wire.value list =
  (error_to_code e, Wire.Unit, [])

let resolve_list ctx vs = List.map (resolve ctx) vs

let of_result r k = match r with Ok v -> k v | Error e -> err e

(* Swap keys combine VM id and host handle so one manager can serve all
   VMs sharing the device. *)
let swap_key ctx host = (Server.Ctx.vm ctx * 1_000_000) + host

let swap_add ctx st ~host ~bytes =
  match st.swap with
  | None -> ()
  | Some sw -> (
      match Swap.add sw ~key:(swap_key ctx host) ~bytes with
      | Ok () | Error `Too_big -> ())

let swap_touch ctx st host =
  match st.swap with
  | None -> ()
  | Some sw -> ignore (Swap.touch sw ~key:(swap_key ctx host))

let swap_remove ctx st host =
  match st.swap with
  | None -> ()
  | Some sw -> Swap.remove sw ~key:(swap_key ctx host)

let register server =
  let reg = Server.register server in

  (* --- platform / device ----------------------------------------------- *)
  reg "clGetPlatformIDs" (fun _ctx st args ->
      match args with
      | [ _n; _; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetPlatformIDs ()) (fun ps ->
              ok_ret (i 0) [ l ps; i (List.length ps) ])
      | _ -> raise Bad_args);

  reg "clGetPlatformInfo" (fun _ctx st args ->
      match args with
      | [ p; pn; _vs; _ ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clGetPlatformInfo (to_h p) (platform_info_of_int (to_i pn)))
            (fun str -> ok_ret (i 0) [ b (Bytes.of_string str) ])
      | _ -> raise Bad_args);

  reg "clGetDeviceIDs" (fun _ctx st args ->
      match args with
      | [ p; ty; _ne; _; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetDeviceIDs (to_h p) (device_type_of_int (to_i ty)))
            (fun ds -> ok_ret (i 0) [ l ds; i (List.length ds) ])
      | _ -> raise Bad_args);

  reg "clGetDeviceInfo" (fun _ctx st args ->
      match args with
      | [ d; pn; _vs; _ ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clGetDeviceInfo (to_h d) (device_info_of_int (to_i pn)))
            (fun info -> ok_ret (i 0) [ b (encode_info info) ])
      | _ -> raise Bad_args);

  (* --- contexts ---------------------------------------------------------- *)
  reg "clCreateContext" (fun ctx st args ->
      match args with
      | [ devs; _n; _err ] ->
          let module CL = (val st.api) in
          of_result (CL.clCreateContext (resolve_list ctx (to_l devs)))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [ i 0 ])
      | _ -> raise Bad_args);

  reg "clRetainContext" (fun ctx st args ->
      match args with
      | [ c ] ->
          let module CL = (val st.api) in
          of_result (CL.clRetainContext (resolve ctx (to_h c))) (fun () ->
              ok_unit)
      | _ -> raise Bad_args);

  reg "clReleaseContext" (fun ctx st args ->
      match args with
      | [ c ] ->
          let module CL = (val st.api) in
          of_result (CL.clReleaseContext (resolve ctx (to_h c))) (fun () ->
              ok_unit)
      | _ -> raise Bad_args);

  reg "clGetContextInfo" (fun ctx st args ->
      match args with
      | [ c; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetContextInfo (resolve ctx (to_h c))) (fun refs ->
              ok_ret (i 0) [ i refs ])
      | _ -> raise Bad_args);

  (* --- command queues ----------------------------------------------------- *)
  reg "clCreateCommandQueue" (fun ctx st args ->
      match args with
      | [ c; d; props; _err ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clCreateCommandQueue (resolve ctx (to_h c))
               (resolve ctx (to_h d))
               ~profiling:(to_i props land 2 <> 0))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [ i 0 ])
      | _ -> raise Bad_args);

  reg "clRetainCommandQueue" (fun ctx st args ->
      match args with
      | [ q ] ->
          let module CL = (val st.api) in
          of_result (CL.clRetainCommandQueue (resolve ctx (to_h q)))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "clReleaseCommandQueue" (fun ctx st args ->
      match args with
      | [ q ] ->
          let module CL = (val st.api) in
          of_result (CL.clReleaseCommandQueue (resolve ctx (to_h q)))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "clGetCommandQueueInfo" (fun ctx st args ->
      match args with
      | [ q; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetCommandQueueInfo (resolve ctx (to_h q)))
            (fun host_ctx ->
              match Server.Ctx.reverse ctx ~host:host_ctx with
              | Some vid -> ok_ret (i 0) [ h vid ]
              | None -> ok_ret (i 0) [ h host_ctx ])
      | _ -> raise Bad_args);

  (* --- memory objects ------------------------------------------------------ *)
  reg "clCreateBuffer" (fun ctx st args ->
      match args with
      | [ c; _flags; size; _err ] ->
          let module CL = (val st.api) in
          of_result (CL.clCreateBuffer (resolve ctx (to_h c)) ~size:(to_i size))
            (fun host ->
              swap_add ctx st ~host ~bytes:(to_i size);
              ok_ret (h (bind_fresh ctx ~host)) [ i 0 ])
      | _ -> raise Bad_args);

  reg "clRetainMemObject" (fun ctx st args ->
      match args with
      | [ m ] ->
          let module CL = (val st.api) in
          of_result (CL.clRetainMemObject (resolve ctx (to_h m))) (fun () ->
              ok_unit)
      | _ -> raise Bad_args);

  reg "clReleaseMemObject" (fun ctx st args ->
      match args with
      | [ m ] ->
          let module CL = (val st.api) in
          let host = resolve ctx (to_h m) in
          of_result (CL.clReleaseMemObject host) (fun () ->
              swap_remove ctx st host;
              ok_unit)
      | _ -> raise Bad_args);

  reg "clGetMemObjectInfo" (fun ctx st args ->
      match args with
      | [ m; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetMemObjectInfo (resolve ctx (to_h m)))
            (fun size -> ok_ret (i 0) [ i size ])
      | _ -> raise Bad_args);

  (* --- programs -------------------------------------------------------------- *)
  reg "clCreateProgramWithSource" (fun ctx st args ->
      match args with
      | [ c; src; _len; _err ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clCreateProgramWithSource (resolve ctx (to_h c))
               ~source:(Bytes.to_string (to_b src)))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [ i 0 ])
      | _ -> raise Bad_args);

  reg "clBuildProgram" (fun ctx st args ->
      match args with
      | [ p; opts; _len ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clBuildProgram (resolve ctx (to_h p))
               ~options:(Bytes.to_string (to_b opts)))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "clGetProgramBuildInfo" (fun ctx st args ->
      match args with
      | [ p; _vs; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetProgramBuildInfo (resolve ctx (to_h p)))
            (fun log -> ok_ret (i 0) [ b (Bytes.of_string log) ])
      | _ -> raise Bad_args);

  reg "clRetainProgram" (fun ctx st args ->
      match args with
      | [ p ] ->
          let module CL = (val st.api) in
          of_result (CL.clRetainProgram (resolve ctx (to_h p))) (fun () ->
              ok_unit)
      | _ -> raise Bad_args);

  reg "clReleaseProgram" (fun ctx st args ->
      match args with
      | [ p ] ->
          let module CL = (val st.api) in
          of_result (CL.clReleaseProgram (resolve ctx (to_h p))) (fun () ->
              ok_unit)
      | _ -> raise Bad_args);

  (* --- kernels ------------------------------------------------------------------ *)
  reg "clCreateKernel" (fun ctx st args ->
      match args with
      | [ p; name; _len; _err ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clCreateKernel (resolve ctx (to_h p))
               ~name:(Bytes.to_string (to_b name)))
            (fun host -> ok_ret (h (bind_fresh ctx ~host)) [ i 0 ])
      | _ -> raise Bad_args);

  reg "clRetainKernel" (fun ctx st args ->
      match args with
      | [ k ] ->
          let module CL = (val st.api) in
          of_result (CL.clRetainKernel (resolve ctx (to_h k))) (fun () ->
              ok_unit)
      | _ -> raise Bad_args);

  reg "clReleaseKernel" (fun ctx st args ->
      match args with
      | [ k ] ->
          let module CL = (val st.api) in
          of_result (CL.clReleaseKernel (resolve ctx (to_h k))) (fun () ->
              ok_unit)
      | _ -> raise Bad_args);

  reg "clSetKernelArg" (fun ctx st args ->
      match args with
      | [ k; idx; _size; payload ] ->
          let module CL = (val st.api) in
          let arg =
            match decode_kernel_arg (to_b payload) with
            | `Mem vid ->
                let host = resolve ctx vid in
                swap_touch ctx st host;
                Arg_mem host
            | `Int v -> Arg_int v
            | `Float f -> Arg_float f
            | `Local n -> Arg_local n
          in
          of_result
            (CL.clSetKernelArg (resolve ctx (to_h k)) ~index:(to_i idx) arg)
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "clGetKernelInfo" (fun ctx st args ->
      match args with
      | [ k; _vs; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetKernelInfo (resolve ctx (to_h k))) (fun name ->
              ok_ret (i 0) [ b (Bytes.of_string name) ])
      | _ -> raise Bad_args);

  reg "clGetKernelWorkGroupInfo" (fun ctx st args ->
      match args with
      | [ k; d; _ ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clGetKernelWorkGroupInfo (resolve ctx (to_h k))
               (resolve ctx (to_h d)))
            (fun wg -> ok_ret (i 0) [ i wg ])
      | _ -> raise Bad_args);

  (* --- enqueue operations ----------------------------------------------------------- *)
  let bind_event ctx ev_arg host_ev =
    match (ev_arg, host_ev) with
    | Wire.Handle _, Some hev ->
        Server.Ctx.bind ctx ~guest:(to_h ev_arg) ~host:hev
    | Wire.Unit, _ | _, None -> ()
    | _ -> raise Bad_args
  in
  (* The guest-assigned event id is range-checked here, while the
     arguments are evaluated: an id outside the native int range fails
     the call before the native enqueue runs, so nothing is enqueued or
     bound. *)
  let want_event = function
    | Wire.Handle _ as v -> (
        match Wire.to_int v with Some _ -> true | None -> raise Bad_args)
    | Wire.Unit -> false
    | _ -> raise Bad_args
  in

  reg "clEnqueueNDRangeKernel" (fun ctx st args ->
      match args with
      | [ q; k; gws; lws; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clEnqueueNDRangeKernel (resolve ctx (to_h q))
               (resolve ctx (to_h k))
               ~global_work_size:(to_i gws) ~local_work_size:(to_i lws)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun host_ev ->
              bind_event ctx ev host_ev;
              ok_unit)
      | _ -> raise Bad_args);

  reg "clEnqueueTask" (fun ctx st args ->
      match args with
      | [ q; k; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clEnqueueTask (resolve ctx (to_h q)) (resolve ctx (to_h k))
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun host_ev ->
              bind_event ctx ev host_ev;
              ok_unit)
      | _ -> raise Bad_args);

  reg "clEnqueueReadBuffer" (fun ctx st args ->
      match args with
      | [ q; m; _blocking; off; size; _ptr; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          let host_m = resolve ctx (to_h m) in
          swap_touch ctx st host_m;
          (* Execute blocking regardless: the reply must carry the data.
             The guest still gets the asynchronous-forwarding win — it
             did not wait for this execution. *)
          of_result
            (CL.clEnqueueReadBuffer (resolve ctx (to_h q)) host_m
               ~blocking:true ~offset:(to_i off) ~size:(to_i size)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun (data, host_ev) ->
              bind_event ctx ev host_ev;
              ok_ret (i 0) [ b data ])
      | _ -> raise Bad_args);

  reg "clEnqueueWriteBuffer" (fun ctx st args ->
      match args with
      | [ q; m; blocking; off; _size; data; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          let host_m = resolve ctx (to_h m) in
          swap_touch ctx st host_m;
          of_result
            (CL.clEnqueueWriteBuffer (resolve ctx (to_h q)) host_m
               ~blocking:(to_i blocking = 1)
               ~offset:(to_i off) ~src:(to_b data)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun host_ev ->
              bind_event ctx ev host_ev;
              ok_unit)
      | _ -> raise Bad_args);

  reg "clEnqueueCopyBuffer" (fun ctx st args ->
      match args with
      | [ q; src; dst; soff; doff; size; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          let host_src = resolve ctx (to_h src) in
          let host_dst = resolve ctx (to_h dst) in
          swap_touch ctx st host_src;
          swap_touch ctx st host_dst;
          of_result
            (CL.clEnqueueCopyBuffer (resolve ctx (to_h q)) ~src:host_src
               ~dst:host_dst ~src_offset:(to_i soff) ~dst_offset:(to_i doff)
               ~size:(to_i size)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun host_ev ->
              bind_event ctx ev host_ev;
              ok_unit)
      | _ -> raise Bad_args);

  reg "clEnqueueFillBuffer" (fun ctx st args ->
      match args with
      | [ q; m; pattern; off; size; _nwl; wl; ev ] ->
          let module CL = (val st.api) in
          let host_m = resolve ctx (to_h m) in
          swap_touch ctx st host_m;
          of_result
            (CL.clEnqueueFillBuffer (resolve ctx (to_h q)) host_m
               ~pattern:(Char.chr (to_i pattern land 0xff))
               ~offset:(to_i off) ~size:(to_i size)
               ~wait_list:(resolve_list ctx (to_l wl))
               ~want_event:(want_event ev))
            (fun host_ev ->
              bind_event ctx ev host_ev;
              ok_unit)
      | _ -> raise Bad_args);

  (* --- synchronization ----------------------------------------------------------------- *)
  reg "clFlush" (fun ctx st args ->
      match args with
      | [ q ] ->
          let module CL = (val st.api) in
          of_result (CL.clFlush (resolve ctx (to_h q))) (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "clFinish" (fun ctx st args ->
      match args with
      | [ q ] ->
          let module CL = (val st.api) in
          of_result (CL.clFinish (resolve ctx (to_h q))) (fun () -> ok_unit)
      | _ -> raise Bad_args);

  reg "clWaitForEvents" (fun ctx st args ->
      match args with
      | [ _n; evs ] ->
          let module CL = (val st.api) in
          of_result (CL.clWaitForEvents (resolve_list ctx (to_l evs)))
            (fun () -> ok_unit)
      | _ -> raise Bad_args);

  (* --- events ------------------------------------------------------------------------------ *)
  reg "clGetEventInfo" (fun ctx st args ->
      match args with
      | [ ev; _ ] ->
          let module CL = (val st.api) in
          of_result (CL.clGetEventInfo (resolve ctx (to_h ev))) (fun status ->
              ok_ret (i 0) [ i (event_status_to_int status) ])
      | _ -> raise Bad_args);

  reg "clGetEventProfilingInfo" (fun ctx st args ->
      match args with
      | [ ev; pn; _ ] ->
          let module CL = (val st.api) in
          of_result
            (CL.clGetEventProfilingInfo (resolve ctx (to_h ev))
               (profiling_info_of_int (to_i pn)))
            (fun v -> ok_ret (i 0) [ i v ])
      | _ -> raise Bad_args);

  reg "clReleaseEvent" (fun ctx st args ->
      match args with
      | [ ev ] ->
          let module CL = (val st.api) in
          of_result (CL.clReleaseEvent (resolve ctx (to_h ev))) (fun () ->
              ok_unit)
      | _ -> raise Bad_args)
