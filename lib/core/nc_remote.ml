(* The AvA-generated guest library for MVNC (Movidius NCSDK). *)

module Stub = Ava_remoting.Stub
module Message = Ava_remoting.Message

open Ava_simnc.Types
open Codec

let status_error code = status_of_code code

let finish stub result parse =
  match result with
  | Error _ -> Error General_error
  | Ok None -> assert false
  | Ok (Some (reply : Message.reply)) -> (
      match Stub.take_deferred_error stub with
      | Some (_fn, code) -> Error (status_error code)
      | None ->
          if reply.Message.reply_status <> 0 then
            Error (status_error reply.Message.reply_status)
          else parse reply)

let fire stub ~fn ~args ok =
  match Stub.invoke stub ~fn ~args with
  | Error _ -> Error General_error
  | Ok None -> Ok ok
  | Ok (Some (reply : Message.reply)) ->
      if reply.Message.reply_status <> 0 then
        Error (status_error reply.Message.reply_status)
      else Ok ok

let sync stub ~fn ~args parse =
  finish stub (Stub.invoke ~force_sync:true stub ~fn ~args) parse

let out_exn (reply : Message.reply) n =
  match List.nth_opt reply.Message.reply_outs n with
  | Some v -> v
  | None -> raise Bad_args

let create stub =
  let module M = struct
    let mvncGetDeviceName ~index =
      sync stub ~fn:"mvncGetDeviceName"
        ~args:[ i index; u; i 64 ]
        (fun reply -> Ok (Bytes.to_string (to_b (out_exn reply 0))))

    let mvncOpenDevice ~name =
      sync stub ~fn:"mvncOpenDevice"
        ~args:[ b (Bytes.of_string name); i (String.length name); u ]
        (ret_handle General_error)

    let mvncCloseDevice d =
      sync stub ~fn:"mvncCloseDevice" ~args:[ h d ] (fun _ -> Ok ())

    let mvncAllocateGraph d ~graph_data =
      sync stub ~fn:"mvncAllocateGraph"
        ~args:[ h d; u; b (Bytes.copy graph_data); i (Bytes.length graph_data) ]
        (ret_handle General_error)

    let mvncDeallocateGraph g =
      sync stub ~fn:"mvncDeallocateGraph" ~args:[ h g ] (fun _ ->
          Ok ())

    (* The NCSDK's own pipelining call: forwarded asynchronously. *)
    let mvncLoadTensor g ~tensor =
      fire stub ~fn:"mvncLoadTensor"
        ~args:[ h g; b (Bytes.copy tensor); i (Bytes.length tensor) ]
        ()

    let mvncGetResult g =
      sync stub ~fn:"mvncGetResult"
        ~args:[ h g; u; i (1 lsl 20) ]
        (fun reply -> Ok (to_b (out_exn reply 0)))

    let mvncGetGraphOption g opt =
      sync stub ~fn:"mvncGetGraphOption"
        ~args:[ h g; i (graph_option_to_int opt); u ]
        (fun reply -> Ok (to_i (out_exn reply 0)))

    let mvncSetGraphOption g opt v =
      sync stub ~fn:"mvncSetGraphOption"
        ~args:[ h g; i (graph_option_to_int opt); i v ]
        (fun _ -> Ok ())

    let mvncGetDeviceOption d opt =
      sync stub ~fn:"mvncGetDeviceOption"
        ~args:[ h d; i (device_option_to_int opt); u ]
        (fun reply -> Ok (to_i (out_exn reply 0)))
  end in
  (module M : Ava_simnc.Api.S)
