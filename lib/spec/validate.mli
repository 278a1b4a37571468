(** Specification validation: what must hold before CAvA will generate a
    stack.

    Failed checks are the difference between a {e preliminary} spec
    (fresh from inference, possibly incomplete) and a {e refined} one the
    developer has signed off. *)

open Ast

type issue = { fn : string; what : string }

val pp_issue : Format.formatter -> issue -> unit

val check : api_spec -> issue list
(** All problems: unresolved parameter kinds, malformed buffer-length or
    resource expressions, bad synchrony conditions. *)

val guidance : api_spec -> (string * string list) list
(** Per-function open questions from inference — the interactive part of
    the Figure 2 workflow. *)

(** {1 Fidelity report} — §3's "assertions and theorems which can be
    automatically checked": non-blocking notes about properties the
    generated stack relies on, including the accepted fidelity losses of
    asynchronous forwarding (§4.2). *)

type fidelity_note = { fn_note : string; note : string }

val pp_fidelity : Format.formatter -> fidelity_note -> unit
val fidelity_report : api_spec -> fidelity_note list
