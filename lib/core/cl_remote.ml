(* The AvA-generated guest library for SimCL.

   Implements the full {!Ava_simcl.Api.S} over a {!Ava_remoting.Stub}:
   this is what the guest application links against instead of the vendor
   library.  Marshalling layout, synchrony and size accounting all follow
   the compiled plan of the refined CAvA spec (see {!Ava_spec.Specs}).

   Conventions:
   - one wire value per C parameter, in declaration order;
   - object-creating calls return server-assigned virtual ids;
   - event out-parameters are guest-assigned ids ([Stub.fresh_handle]) so
     asynchronously forwarded enqueues can hand back an event immediately;
   - asynchronously forwarded calls report failures via the stub's
     deferred-error channel, surfaced by the next synchronous call (the
     paper's fidelity caveat, §4.2). *)

module Stub = Ava_remoting.Stub
module Wire = Ava_remoting.Wire
module Message = Ava_remoting.Message

open Ava_simcl.Types
open Codec

let cl_true = 1
let cl_false = 0

let bool_int b = if b then cl_true else cl_false

let status_error code = error_of_code code

(* Finish a synchronous invocation: deferred async errors outrank the
   current call's (successful) result. *)
let finish stub result parse =
  match result with
  | Error msg -> Error (Remoting_failure msg)
  | Ok None -> assert false
  | Ok (Some (reply : Message.reply)) -> (
      match Stub.take_deferred_error stub with
      | Some (_fn, code) -> Error (status_error code)
      | None ->
          if reply.Message.reply_status <> 0 then
            Error (status_error reply.Message.reply_status)
          else parse reply)

(* Fire an asynchronously forwarded call; per the paper it returns
   success immediately. *)
let fire stub ?on_reply ~fn ~args ok =
  match Stub.invoke stub ?on_reply ~fn ~args with
  | Error msg -> Error (Remoting_failure msg)
  | Ok None -> Ok ok
  | Ok (Some (reply : Message.reply)) ->
      (* The plan judged this invocation synchronous after all. *)
      if reply.Message.reply_status <> 0 then
        Error (status_error reply.Message.reply_status)
      else Ok ok

let sync stub ~fn ~args parse =
  finish stub (Stub.invoke ~force_sync:true stub ~fn ~args) parse

let ret_unit (_ : Message.reply) = Ok ()

let bad_handle = Remoting_failure "bad handle return"

let out_exn reply n =
  match List.nth_opt reply.Message.reply_outs n with
  | Some v -> v
  | None -> raise Bad_args

let create stub =
  let module M = struct
    (* --- platform / device ------------------------------------------- *)

    let clGetPlatformIDs () =
      sync stub ~fn:"clGetPlatformIDs"
        ~args:[ i 16; u; u ]
        (fun reply -> Ok (to_l (out_exn reply 0)))

    let clGetPlatformInfo p info =
      sync stub ~fn:"clGetPlatformInfo"
        ~args:[ h p; i (platform_info_to_int info); i 256; u ]
        (fun reply -> Ok (Bytes.to_string (to_b (out_exn reply 0))))

    let clGetDeviceIDs p ty =
      sync stub ~fn:"clGetDeviceIDs"
        ~args:[ h p; i (device_type_to_int ty); i 16; u; u ]
        (fun reply -> Ok (to_l (out_exn reply 0)))

    let clGetDeviceInfo d info =
      sync stub ~fn:"clGetDeviceInfo"
        ~args:[ h d; i (device_info_to_int info); i 256; u ]
        (fun reply -> Ok (decode_info (to_b (out_exn reply 0))))

    (* --- contexts ------------------------------------------------------ *)

    let clCreateContext devices =
      sync stub ~fn:"clCreateContext"
        ~args:[ l devices; i (List.length devices); u ]
        (ret_handle bad_handle)

    let clRetainContext c =
      fire stub ~fn:"clRetainContext" ~args:[ h c ] ()

    let clReleaseContext c =
      fire stub ~fn:"clReleaseContext" ~args:[ h c ] ()

    let clGetContextInfo c =
      sync stub ~fn:"clGetContextInfo" ~args:[ h c; u ]
        (fun reply -> Ok (to_i (out_exn reply 0)))

    (* --- command queues ------------------------------------------------ *)

    let clCreateCommandQueue c d ~profiling =
      let props = if profiling then 2 else 0 in
      sync stub ~fn:"clCreateCommandQueue"
        ~args:[ h c; h d; i props; u ]
        (ret_handle bad_handle)

    let clRetainCommandQueue q =
      fire stub ~fn:"clRetainCommandQueue" ~args:[ h q ] ()

    let clReleaseCommandQueue q =
      fire stub ~fn:"clReleaseCommandQueue" ~args:[ h q ] ()

    let clGetCommandQueueInfo q =
      sync stub ~fn:"clGetCommandQueueInfo" ~args:[ h q; u ]
        (fun reply -> Ok (to_i (out_exn reply 0)))

    (* --- memory objects ------------------------------------------------ *)

    let clCreateBuffer c ~size =
      sync stub ~fn:"clCreateBuffer"
        ~args:[ h c; i 0; i size; u ]
        (ret_handle bad_handle)

    let clRetainMemObject m =
      fire stub ~fn:"clRetainMemObject" ~args:[ h m ] ()

    let clReleaseMemObject m =
      fire stub ~fn:"clReleaseMemObject" ~args:[ h m ] ()

    let clGetMemObjectInfo m =
      sync stub ~fn:"clGetMemObjectInfo" ~args:[ h m; u ]
        (fun reply -> Ok (to_i (out_exn reply 0)))

    (* --- programs ------------------------------------------------------ *)

    let clCreateProgramWithSource c ~source =
      sync stub ~fn:"clCreateProgramWithSource"
        ~args:
          [ h c; b (Bytes.of_string source); i (String.length source); u ]
        (ret_handle bad_handle)

    let clBuildProgram p ~options =
      sync stub ~fn:"clBuildProgram"
        ~args:[ h p; b (Bytes.of_string options); i (String.length options) ]
        ret_unit

    let clGetProgramBuildInfo p =
      sync stub ~fn:"clGetProgramBuildInfo"
        ~args:[ h p; i 4096; u ]
        (fun reply -> Ok (Bytes.to_string (to_b (out_exn reply 0))))

    let clRetainProgram p =
      fire stub ~fn:"clRetainProgram" ~args:[ h p ] ()

    let clReleaseProgram p =
      fire stub ~fn:"clReleaseProgram" ~args:[ h p ] ()

    (* --- kernels -------------------------------------------------------- *)

    let clCreateKernel p ~name =
      sync stub ~fn:"clCreateKernel"
        ~args:[ h p; b (Bytes.of_string name); i (String.length name); u ]
        (ret_handle bad_handle)

    let clRetainKernel k =
      fire stub ~fn:"clRetainKernel" ~args:[ h k ] ()

    let clReleaseKernel k =
      fire stub ~fn:"clReleaseKernel" ~args:[ h k ] ()

    (* The paper's flagship async example: forwarded without waiting. *)
    let clSetKernelArg k ~index arg =
      let payload = encode_kernel_arg arg in
      fire stub ~fn:"clSetKernelArg"
        ~args:[ h k; i index; i (Bytes.length payload); b payload ]
        ()

    let clGetKernelInfo k =
      sync stub ~fn:"clGetKernelInfo"
        ~args:[ h k; i 256; u ]
        (fun reply -> Ok (Bytes.to_string (to_b (out_exn reply 0))))

    let clGetKernelWorkGroupInfo k d =
      sync stub ~fn:"clGetKernelWorkGroupInfo" ~args:[ h k; h d; u ]
        (fun reply -> Ok (to_i (out_exn reply 0)))

    (* --- enqueue operations --------------------------------------------- *)

    (* Event out-parameters: pre-assign a guest id when the caller wants
       an event, so even async forwards return a usable handle. *)
    let event_arg ~want_event =
      if want_event then
        let gid = Stub.fresh_handle stub in
        (h gid, Some gid)
      else (u, None)

    let clEnqueueNDRangeKernel q k ~global_work_size ~local_work_size
        ~wait_list ~want_event =
      let ev, gid = event_arg ~want_event in
      fire stub ~fn:"clEnqueueNDRangeKernel"
        ~args:
          [
            h q; h k; i global_work_size; i local_work_size;
            i (List.length wait_list); l wait_list; ev;
          ]
        gid

    let clEnqueueTask q k ~wait_list ~want_event =
      let ev, gid = event_arg ~want_event in
      fire stub ~fn:"clEnqueueTask"
        ~args:[ h q; h k; i (List.length wait_list); l wait_list; ev ]
        gid

    let clEnqueueReadBuffer q m ~blocking ~offset ~size ~wait_list ~want_event
        =
      let ev, gid = event_arg ~want_event in
      let dst = Bytes.make (Stdlib.max 0 size) '\000' in
      let args =
        [
          h q; h m; i (bool_int blocking); i offset; i size; u;
          i (List.length wait_list); l wait_list; ev;
        ]
      in
      let blit (reply : Message.reply) =
        match reply.Message.reply_outs with
        | Wire.Blob data :: _ when reply.Message.reply_status = 0 ->
            Bytes.blit data 0 dst 0
              (Stdlib.min (Bytes.length data) (Bytes.length dst))
        | _ -> ()
      in
      if blocking then
        sync stub ~fn:"clEnqueueReadBuffer" ~args (fun reply ->
            blit reply;
            Ok (dst, gid))
      else
        (* Asynchronously forwarded: the data lands in [dst] when the
           reply arrives; callers must wait on the event or clFinish. *)
        fire stub ~on_reply:blit ~fn:"clEnqueueReadBuffer" ~args
          (dst, gid)

    let clEnqueueWriteBuffer q m ~blocking ~offset ~src ~wait_list ~want_event
        =
      let ev, gid = event_arg ~want_event in
      let size = Bytes.length src in
      let args =
        [
          h q; h m; i (bool_int blocking); i offset; i size; b (Bytes.copy src);
          i (List.length wait_list); l wait_list; ev;
        ]
      in
      if blocking then
        sync stub ~fn:"clEnqueueWriteBuffer" ~args (fun _ -> Ok gid)
      else fire stub ~fn:"clEnqueueWriteBuffer" ~args gid

    let clEnqueueCopyBuffer q ~src ~dst ~src_offset ~dst_offset ~size
        ~wait_list ~want_event =
      let ev, gid = event_arg ~want_event in
      fire stub ~fn:"clEnqueueCopyBuffer"
        ~args:
          [
            h q; h src; h dst; i src_offset; i dst_offset; i size;
            i (List.length wait_list); l wait_list; ev;
          ]
        gid

    let clEnqueueFillBuffer q m ~pattern ~offset ~size ~wait_list ~want_event
        =
      let ev, gid = event_arg ~want_event in
      fire stub ~fn:"clEnqueueFillBuffer"
        ~args:
          [
            h q; h m; i (Char.code pattern); i offset; i size;
            i (List.length wait_list); l wait_list; ev;
          ]
        gid

    (* --- synchronization ------------------------------------------------ *)

    let clFlush q = fire stub ~fn:"clFlush" ~args:[ h q ] ()

    let clFinish q =
      sync stub ~fn:"clFinish" ~args:[ h q ] ret_unit

    let clWaitForEvents events =
      sync stub ~fn:"clWaitForEvents"
        ~args:[ i (List.length events); l events ]
        ret_unit

    (* --- events ---------------------------------------------------------- *)

    let clGetEventInfo ev =
      sync stub ~fn:"clGetEventInfo" ~args:[ h ev; u ]
        (fun reply -> Ok (event_status_of_int (to_i (out_exn reply 0))))

    let clGetEventProfilingInfo ev info =
      sync stub ~fn:"clGetEventProfilingInfo"
        ~args:[ h ev; i (profiling_info_to_int info); u ]
        (fun reply -> Ok (to_i (out_exn reply 0)))

    let clReleaseEvent ev =
      fire stub ~fn:"clReleaseEvent" ~args:[ h ev ] ()
  end in
  (module M : Ava_simcl.Api.S)
