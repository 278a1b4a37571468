(** The AvA-generated guest library for SimST (the stream API).
    See {!Cl_remote} for the shared conventions. *)

val create : Ava_remoting.Stub.t -> (module Ava_simst.Api.S)
