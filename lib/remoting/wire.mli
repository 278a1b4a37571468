(** Wire values: the dynamic representation every forwarded API call is
    marshalled into.

    Handles are guest-visible integers (the API server maintains the
    id → host-object mapping), so values survive any transport and any
    server replacement during migration. *)

type value =
  | Unit
  | I64 of int64
  | F64 of float
  | Str of string
  | Blob of bytes
  | Handle of int64
  | List of value list
  | Blob_ref of { br_digest : int64; br_size : int }
      (** Content-addressed stand-in for a [Blob] whose payload the server
          has already acknowledged: 13 bytes on the wire regardless of
          payload size. *)
  | Blob_cached of { bc_digest : int64; bc_data : bytes }
      (** A [Blob] payload travelling together with its digest — announces
          the digest to the server's content store. *)
  | Mapped_ref of { mr_iova : int64; mr_size : int }
      (** SVA buffer reference: the payload stays in guest pages pinned
          into the device IOVA window ([Ava_device.Iommu]); only
          (iova, size) crosses the wire — 13 bytes regardless of payload
          size.  Decode rejects references outside the IOVA window. *)

val int : int -> value
(** Shorthand for [I64 (Int64.of_int n)]. *)

val to_int : value -> int option
(** Integer view of [I64] or [Handle] values. [None] when the payload does
    not fit the native [int] range (it is never silently wrapped). *)

val digest : bytes -> int64
(** FNV-1a 64 over the payload — the content address used by the transfer
    cache. Same hash construction as the [Faults] checksum envelope. *)

val equal : value -> value -> bool
val pp : Format.formatter -> value -> unit

val encoded_size : value -> int
(** Size of the encoded form, for payload accounting.
    [test_remoting] checks a frame is 4 bytes plus these sizes. *)

val encode : value list -> bytes
(** The frame: a 4-byte little-endian value count, then each value as
    its tag byte and fields.  It is sized up front as
    [4 + Σ encoded_size] and written into one [Bytes] of exactly that
    length, the only allocation the call makes, so a payload is copied
    once, into the frame. *)

val decode : bytes -> (value list, string) result
(** Total: corrupt or truncated input yields [Error], never an
    exception.  Besides tags, lengths, truncation and trailing bytes it
    checks two budgets: at most 1,000,000 values per frame or list, and
    [List] nesting at most {!max_depth} deep, so a hostile frame cannot
    exhaust the stack. *)

val max_depth : int
(** Deepest [List] nesting {!decode} accepts (64).
    [test_remoting] checks this depth decodes and one more is rejected. *)

(** {2 Frame reader}

    The walker behind {!decode}, for [Message]: it parses a frame value
    by value, can skip payload bodies, and parses a frame embedded in a
    [Blob] in place.  Every function raises [Decode_error] where
    {!decode} would return [Error]. *)

exception Decode_error of string

type reader
(** A cursor over a frame (or over a frame embedded in another). *)

val reader : bytes -> reader

val count : reader -> int
(** The frame's value count, at most 1,000,000. *)

val read : copy:bool -> reader -> value
(** The next value, with every check {!decode} makes.  With
    [~copy:false] the bodies of [Str], [Blob] and [Blob_cached] values
    (nested ones too) are checked and skipped, and come back empty. *)

val read_n : copy:bool -> reader -> int -> value list
(** The next [n] values, in order. *)

val sub_frame : reader -> reader
(** Consumes the next value, which must be a [Blob], and returns a
    reader over its body without copying it. *)

val finish : reader -> unit
(** Fails unless the reader consumed its frame exactly. *)
