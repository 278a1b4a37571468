(* The AvA-generated guest library for SimST.

   The stream API is where asynchronous forwarding earns its keep: the
   plan marks enqueue-shaped calls [async] and the ordering key keeps
   per-stream order on the wire, so the stub returns before the device
   has seen the work.  [sync_on] calls (stream/event synchronize, batch
   collect) ride the normal synchronous path — the server withholds the
   reply until the native call's completion point passes. *)

module Stub = Ava_remoting.Stub
module Message = Ava_remoting.Message

open Ava_simst.Types
open Codec

(* Finish a synchronous invocation: deferred async errors outrank the
   current call's (successful) result. *)
let finish stub result parse =
  match result with
  | Error _ -> Error St_fail
  | Ok None -> assert false
  | Ok (Some (reply : Message.reply)) -> (
      match Stub.take_deferred_error stub with
      | Some (_fn, code) -> Error (status_of_code code)
      | None ->
          if reply.Message.reply_status <> 0 then
            Error (status_of_code reply.Message.reply_status)
          else parse reply)

let sync stub ~fn ~args parse =
  finish stub (Stub.invoke ~force_sync:true stub ~fn ~args) parse

(* Fire an asynchronously forwarded call; per the paper it returns
   success immediately and failures surface on the next sync call. *)
let fire stub ~fn ~args =
  match Stub.invoke stub ~fn ~args with
  | Error _ -> Error St_fail
  | Ok None -> Ok ()
  | Ok (Some (reply : Message.reply)) ->
      (* The plan judged this invocation synchronous after all. *)
      if reply.Message.reply_status <> 0 then
        Error (status_of_code reply.Message.reply_status)
      else Ok ()

let out_exn (reply : Message.reply) n =
  match List.nth_opt reply.Message.reply_outs n with
  | Some v -> v
  | None -> raise Bad_args

let create stub =
  let module M = struct
    let stDeviceGetCount () =
      sync stub ~fn:"stDeviceGetCount" ~args:[ u ] (fun reply ->
          Ok (to_i (out_exn reply 0)))

    let stStreamCreate () =
      sync stub ~fn:"stStreamCreate" ~args:[ u ] (ret_handle St_fail)

    let stStreamDestroy s =
      sync stub ~fn:"stStreamDestroy" ~args:[ h s ] (fun _ ->
          Ok ())

    let stStreamSynchronize s =
      sync stub ~fn:"stStreamSynchronize" ~args:[ h s ] (fun _ ->
          Ok ())

    let stEventCreate () =
      sync stub ~fn:"stEventCreate" ~args:[ u ] (ret_handle St_fail)

    let stEventDestroy ev =
      sync stub ~fn:"stEventDestroy" ~args:[ h ev ] (fun _ ->
          Ok ())

    let stEventRecord ev s =
      fire stub ~fn:"stEventRecord" ~args:[ h ev; h s ]

    let stEventSynchronize ev =
      sync stub ~fn:"stEventSynchronize" ~args:[ h ev ] (fun _ ->
          Ok ())

    let stStreamWaitEvent s ev =
      fire stub ~fn:"stStreamWaitEvent" ~args:[ h s; h ev ]

    let stMemAlloc ~size =
      sync stub ~fn:"stMemAlloc"
        ~args:[ u; i size ] (ret_handle St_fail)

    let stMemFree m =
      sync stub ~fn:"stMemFree" ~args:[ h m ] (fun _ -> Ok ())

    (* The source buffer travels as a copy, as a generated stub must:
       the guest may reuse it the moment the call returns. *)
    let stMemcpyHtoDAsync dst ~src s =
      let size = Bytes.length src in
      fire stub ~fn:"stMemcpyHtoDAsync"
        ~args:[ h dst; b (Bytes.copy src); i size; h s ]

    let stMemcpyDtoH ~size src =
      sync stub ~fn:"stMemcpyDtoH"
        ~args:[ u; i size; h src ]
        (fun reply -> Ok (to_b (out_exn reply 0)))

    let stLaunchKernel s ~name ~a ~b:bm ~out ~n =
      let name_size = String.length name in
      fire stub ~fn:"stLaunchKernel"
        ~args:
          [
            h s; b (Bytes.of_string name); i name_size; h a; h bm; h out; i n;
          ]

    let stBatchSubmit s ~batch ~item_size =
      let batch_size = Bytes.length batch in
      sync stub ~fn:"stBatchSubmit"
        ~args:[ h s; b (Bytes.copy batch); i batch_size; i item_size; u ]
        (fun reply -> Ok (to_i (out_exn reply 0)))

    let stBatchCollect s ~ticket ~size =
      sync stub ~fn:"stBatchCollect"
        ~args:[ h s; i ticket; u; i size ]
        (fun reply -> Ok (to_b (out_exn reply 0)))
  end in
  (module M : Ava_simst.Api.S)
