(** The AvA-generated guest library for MVNC (Movidius NCSDK).
    See {!Cl_remote} for the shared conventions. *)

val create : Ava_remoting.Stub.t -> (module Ava_simnc.Api.S)
