(** Call and reply frames exchanged between guest library, router and
    API server. *)

type call = {
  call_seq : int;  (** per-stub sequence number, matches replies *)
  call_vm : int;
  call_fn : string;
  call_args : Wire.value list;  (** one value per C parameter, in order *)
}

type reply = {
  reply_seq : int;
  reply_status : int;  (** 0 = success; otherwise an API error code *)
  reply_ret : Wire.value;
  reply_outs : Wire.value list;  (** out-parameters, in declaration order *)
}

type upcall = { up_vm : int; up_cb : int; up_args : Wire.value list }

type skip = { skip_vm : int; skip_seqs : int list }

type nak = { nak_vm : int; nak_seq : int; nak_digests : int64 list }

type t =
  | Call of call
  | Reply of reply
  | Batch of call list
      (** rCUDA-style API batching: several asynchronously forwarded
          calls in one transport message, executed in order *)
  | Upcall of upcall
      (** server-to-guest callback invocation (spec [callback]
          parameters) *)
  | Skip of skip
      (** router-to-server notice that the named seqs were policed away
          and will never arrive, so in-order execution can advance past
          them *)
  | Nak of nak
      (** server-to-guest cache-miss notice: the named [Blob_ref] digests
          were not in the content store — the stub must re-send the full
          payload under the same seq *)

val encode : t -> bytes

val decode : bytes -> (t, string) result
(** Total: a corrupt or truncated frame, or a seq, VM id or status
    outside the native [int] range, yields [Error]. *)

(** {2 Router view}

    What the router reads of a frame: the header and the integer view
    of each argument.  {!view} runs the same parse and checks as
    {!decode}, so it accepts exactly the same frames, but it copies no
    payload body.  A view holds no payloads, so it cannot be encoded. *)

type call_view = {
  cv_seq : int;
  cv_vm : int;
  cv_fn : string;
  cv_args : int option list;
      (** {!Wire.to_int} of each argument, in order: one per argument *)
}

type view =
  | Call_view of call_view
  | Batch_view of call_view list
  | Reply_view of { rv_seq : int; rv_status : int }
  | Other_view  (** a well-formed upcall, skip or nak frame *)

val view : bytes -> (view, string) result

val pp : Format.formatter -> t -> unit
