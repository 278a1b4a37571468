(** The simulated QuickAssist card: a pool of compression engines behind
    a PCIe DMA path.

    The card computes a real, checkable function — run-length encoding —
    so compression results verify end to end and ratio accounting is
    meaningful. *)

open Ava_sim

type timing = {
  engine_bytes_per_s : float;  (** per-engine (de)compression rate *)
  setup_ns : Time.t;  (** descriptor + DMA setup per operation *)
  pcie_bytes_per_s : float;
  engines : int;
}

val dh895xcc : timing
(** A DH895xCC-class card: 2 engines at 3.5 GB/s. *)

type t

val create : ?timing:timing -> Engine.t -> t

val engine_of : t -> Engine.t
val ops : t -> int
val bytes_in : t -> int
val bytes_out : t -> int

val rle_compress : bytes -> bytes
(** Reference codec; [test_simqa] checks it round-trips any input. *)

val rle_decompress : bytes -> (bytes, [ `Corrupt ]) result
(** [test_simqa] checks device output decompresses to its input. *)

val compress : t -> input:bytes -> (bytes, [ `Corrupt ]) result
(** Offload one compression; blocks for DMA + engine time. *)

val decompress : t -> input:bytes -> (bytes, [ `Corrupt ]) result
