(** Seeded device-fault model for the simulated accelerators.

    Deterministic under one RNG seed, off by default, and bit-identical
    to no model when every probability is zero: disarmed faults make no
    RNG draws at all.  GPU faults can be targeted at a single client so
    a victim VM's fault pattern is independent of how its operations
    interleave with innocent VMs on the shared device. *)

open Ava_sim

type gpu_config = {
  gpu_hang : float;  (** P(command processor wedges on a launch) *)
  gpu_launch_fail : float;  (** P(transient launch failure) *)
  gpu_dma_corrupt : float;  (** P(one byte flipped per DMA transfer) *)
  gpu_target : int option;  (** only this client draws faults, if set *)
}

type ncs_config = {
  ncs_unplug : float;  (** P(USB unplug per transaction) *)
  ncs_reenum_ns : Time.t;  (** re-enumeration delay after an unplug *)
}

val gpu_none : gpu_config

type stats = {
  mutable hangs : int;
  mutable launch_failures : int;
  mutable dma_corruptions : int;
  mutable unplugs : int;
  mutable replugs : int;
}

type t

val create : ?gpu:gpu_config -> ?ncs:ncs_config -> seed:int -> unit -> t
val stats : t -> stats
val ncs_config : t -> ncs_config

(** {1 Draw points}

    Each returns whether the fault fires, bumping the matching counter.
    GPU draws are filtered by [gpu_target] {e before} consuming
    randomness. *)

val gpu_hangs : t -> client:int -> bool
val gpu_launch_fails : t -> client:int -> bool
val gpu_dma_corrupts : t -> client:int -> bool
val ncs_unplugs : t -> bool

val record_replug : t -> unit
(** Count a completed USB re-enumeration. *)

val corrupt_pos : t -> len:int -> int
(** Deterministic byte position for a DMA corruption, in [\[0, len)]. *)
