(* The AvA-generated guest library for SimQA (QuickAssist).

   The third API virtualized by this reproduction — the paper's §5
   future-work target, here a few dozen lines of plan-driven glue. *)

module Stub = Ava_remoting.Stub
module Wire = Ava_remoting.Wire
module Message = Ava_remoting.Message

open Ava_simqa.Types
open Codec

let finish stub result parse =
  match result with
  | Error _ -> Error Qa_fail
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

let out_exn (reply : Message.reply) n =
  match List.nth_opt reply.Message.reply_outs n with
  | Some v -> v
  | None -> raise Bad_args

let max_dst = 16 * 1024 * 1024

let create stub =
  let module M = struct
    let qaGetNumInstances () =
      sync stub ~fn:"qaGetNumInstances" ~args:[ u ] (fun reply ->
          Ok (to_i (out_exn reply 0)))

    let qaStartInstance ~index =
      sync stub ~fn:"qaStartInstance"
        ~args:[ i index; u ]
        (ret_handle Qa_fail)

    let qaStopInstance inst =
      sync stub ~fn:"qaStopInstance" ~args:[ h inst ] (fun _ ->
          Ok ())

    let qaCreateSession inst direction ~level =
      sync stub ~fn:"qaCreateSession"
        ~args:[ h inst; i (direction_to_int direction); i level; u ]
        (ret_handle Qa_fail)

    let qaRemoveSession sess =
      sync stub ~fn:"qaRemoveSession" ~args:[ h sess ] (fun _ ->
          Ok ())

    let xfer fn sess ~src =
      sync stub ~fn
        ~args:
          [ h sess; b (Bytes.copy src); i (Bytes.length src); u; i max_dst ]
        (fun reply -> Ok (to_b (out_exn reply 0)))

    let qaCompress sess ~src = xfer "qaCompress" sess ~src
    let qaDecompress sess ~src = xfer "qaDecompress" sess ~src

    (* Callback parameter: register the guest closure and forward its id
       in place of the C function pointer; the server's completion path
       upcalls through it. *)
    let qaSubmitCompress sess ~src ~tag ~callback =
      let cb =
        Stub.register_callback stub (fun args ->
            match args with
            | [ Wire.I64 tag; Wire.Blob out ] ->
                callback ~tag:(Int64.to_int tag) out
            | _ -> ())
      in
      match
        Stub.invoke stub ~fn:"qaSubmitCompress"
          ~args:
            [ h sess; b (Bytes.copy src); i (Bytes.length src); i cb; i tag ]
      with
      | Error _ -> Error Qa_fail
      | Ok None -> Ok ()
      | Ok (Some reply) ->
          if reply.Message.reply_status <> 0 then
            Error (status_of_code reply.Message.reply_status)
          else Ok ()

    let qaGetStats inst =
      sync stub ~fn:"qaGetStats" ~args:[ h inst; u; u ]
        (fun reply -> Ok (to_i (out_exn reply 0), to_i (out_exn reply 1)))

    (* Struct out-parameter: the reply carries the fields as a list, in
       declaration order. *)
    let qaGetStatsEx inst =
      sync stub ~fn:"qaGetStatsEx" ~args:[ h inst; u ]
        (fun reply ->
          match to_l (out_exn reply 0) with
          | [ ops; bytes_in; bytes_out ] ->
              Ok { se_ops = ops; se_bytes_in = bytes_in;
                   se_bytes_out = bytes_out }
          | _ -> Error Qa_fail)
  end in
  (module M : Ava_simqa.Api.S)
