(** Lightweight event trace.

    Components record (time, category, message) tuples; experiments dump
    or filter them.  A disabled trace costs one branch per event. *)

type event = { at : Time.t; category : string; message : string }

type t

val create : ?enabled:bool -> ?limit:int -> unit -> t
(** Disabled by default; at most [limit] events are retained. *)

val is_enabled : t -> bool

val record :
  t -> at:Time.t -> category:string -> ('a, Format.formatter, unit) format -> 'a
(** Record one event; the format arguments are not even rendered when the
    trace is disabled. *)

val events : t -> event list
(** Oldest first. *)

val count : t -> int

val dropped : t -> int
(** Events discarded because the retention [limit] was reached. *)

val by_category : t -> string -> event list
(** [test_core] and [test_sim] read router, server and DMA events. *)

val clear : t -> unit

val dump : Format.formatter -> t -> unit
(** Dumps retained events, followed by a truncation notice when any
    events were dropped. *)
