(** Native SimQA stack over the simulated QAT card; one instance per
    host process, as with the other silos. *)

type st
(** Instance state (opaque). *)

val create : Device.t -> (module Api.S) * st

val calls : st -> int
val live_sessions : st -> int
(** [test_simqa] checks removed sessions leave none behind. *)
