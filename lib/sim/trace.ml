(* Lightweight event trace.

   Components record (time, category, message) tuples; experiments can dump
   or filter them.  Disabled traces cost one branch per event. *)

type event = { at : Time.t; category : string; message : string }

type t = {
  enabled : bool;
  mutable events : event list; (* newest first *)
  mutable count : int;
  mutable dropped : int; (* events discarded once [count] hit [limit] *)
  limit : int;
}

let create ?(enabled = false) ?(limit = 100_000) () =
  { enabled; events = []; count = 0; dropped = 0; limit }

let is_enabled t = t.enabled

let record t ~at ~category fmt =
  if not t.enabled then Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  else if t.count >= t.limit then begin
    (* Over the cap the event is dropped unformatted: counting it is
       one increment, not a kasprintf rendering of a discarded string. *)
    t.dropped <- t.dropped + 1;
    Format.ikfprintf (fun _ -> ()) Format.str_formatter fmt
  end
  else
    Format.kasprintf
      (fun message ->
        t.events <- { at; category; message } :: t.events;
        t.count <- t.count + 1)
      fmt

let events t = List.rev t.events
let count t = t.count
let dropped t = t.dropped

let by_category t category =
  List.filter (fun e -> String.equal e.category category) (events t)

let clear t =
  t.events <- [];
  t.count <- 0;
  t.dropped <- 0

let pp_event ppf e =
  Fmt.pf ppf "[%a] %-12s %s" Time.pp e.at e.category e.message

let dump ppf t =
  List.iter (fun e -> Fmt.pf ppf "%a@." pp_event e) (events t);
  if t.dropped > 0 then
    Fmt.pf ppf "... trace truncated: %d further events dropped (limit %d)@."
      t.dropped t.limit
