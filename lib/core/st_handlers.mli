(** The AvA-generated API server dispatch for SimST. *)

type state = {
  api : (module Ava_simst.Api.S);
  native : Ava_simst.Native.st;
}

val make_state : Ava_simst.Device.t -> vm_id:int -> state

val register : state Ava_remoting.Server.t -> unit
(** Install all 16 handlers. *)
