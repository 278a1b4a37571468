(* Per-call latency attribution for the remoting path.

   Each forwarded call opens a span keyed by (vm, seq).  The stub,
   router and server stamp marks on the span as the call moves through
   the stack; closing the span slices the open->close interval into
   phases and feeds per-(vm, api, phase) log-bucketed histograms.  The
   registry never advances virtual time — arming it cannot perturb the
   simulation, so armed and disarmed runs are bit-identical in timing
   by construction. *)

open Ava_sim

type phase =
  | P_marshal (* guest-side argument marshalling *)
  | P_stub_queue (* waiting in the stub batch / hold queue *)
  | P_doorbell (* waiting for the coalesced doorbell to ring *)
  | P_transport (* guest -> router hop *)
  | P_router_queue (* router policing + WFQ wait *)
  | P_server_queue (* router -> server hop + dispatch overhead *)
  | P_execute (* device execution under the handler *)
  | P_reply_transport (* server -> guest reply hop *)
  | P_unmarshal (* guest-side reply decode + wakeup *)

let phases =
  [
    P_marshal;
    P_stub_queue;
    P_doorbell;
    P_transport;
    P_router_queue;
    P_server_queue;
    P_execute;
    P_reply_transport;
    P_unmarshal;
  ]

let phase_name = function
  | P_marshal -> "marshal"
  | P_stub_queue -> "stub_queue"
  | P_doorbell -> "doorbell"
  | P_transport -> "transport"
  | P_router_queue -> "router_queue"
  | P_server_queue -> "server_queue"
  | P_execute -> "execute"
  | P_reply_transport -> "reply_transport"
  | P_unmarshal -> "unmarshal"

(* Marks are the phase boundaries stamped by the stack.  Each mark ends
   the phase listed next to it; the close timestamp ends [P_unmarshal].
   A missing mark (call rejected before dispatch, reply synthesized by
   the watchdog, direct transport with no router...) simply folds its
   phase into the next one that was stamped. *)
type mark =
  | M_marshal_done (* ends P_marshal *)
  | M_sent (* ends P_stub_queue *)
  | M_doorbell (* ends P_doorbell *)
  | M_router_in (* ends P_transport *)
  | M_dispatched (* ends P_router_queue *)
  | M_exec_start (* ends P_server_queue *)
  | M_exec_end (* ends P_execute *)
  | M_reply_recv (* ends P_reply_transport *)

let n_marks = 8
let mark_index = function
  | M_marshal_done -> 0
  | M_sent -> 1
  | M_doorbell -> 2
  | M_router_in -> 3
  | M_dispatched -> 4
  | M_exec_start -> 5
  | M_exec_end -> 6
  | M_reply_recv -> 7

let mark_phase = function
  | M_marshal_done -> P_marshal
  | M_sent -> P_stub_queue
  | M_doorbell -> P_doorbell
  | M_router_in -> P_transport
  | M_dispatched -> P_router_queue
  | M_exec_start -> P_server_queue
  | M_exec_end -> P_execute
  | M_reply_recv -> P_reply_transport

type span = {
  sp_vm : int;
  sp_seq : int;
  sp_fn : string;
  sp_open : Time.t;
  sp_marks : Time.t array; (* indexed by [mark_index]; -1 = unset *)
  mutable sp_close : Time.t; (* -1 while open *)
  mutable sp_status : int;
  mutable sp_device : int; (* pool device that executed it; -1 = unknown *)
}

type series_key = { k_vm : int; k_fn : string; k_phase : phase }

type t = {
  live : (int * int, span) Hashtbl.t; (* keyed by (vm, seq) *)
  series : (series_key, Hist.t) Hashtbl.t;
  totals : (int * string, Hist.t) Hashtbl.t; (* end-to-end per (vm, fn) *)
  counters : (string, int ref) Hashtbl.t;
  retained : span Queue.t; (* closed spans, oldest first *)
  retain : int;
  mutable opened : int;
  mutable closed : int;
  mutable failed : int; (* closed with status <> 0 *)
  mutable retain_dropped : int;
}

let default_retain = 65536

let create ?(retain = default_retain) () =
  {
    live = Hashtbl.create 256;
    series = Hashtbl.create 256;
    totals = Hashtbl.create 64;
    counters = Hashtbl.create 32;
    retained = Queue.create ();
    retain;
    opened = 0;
    closed = 0;
    failed = 0;
    retain_dropped = 0;
  }

(* {1 Counters and gauges} *)

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let counters t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let in_flight t = Hashtbl.length t.live
let spans_opened t = t.opened
let spans_closed t = t.closed
let spans_failed t = t.failed
let retain_dropped t = t.retain_dropped

(* {1 Span lifecycle} *)

let span_open t ~vm ~seq ~fn ~at =
  let key = (vm, seq) in
  if not (Hashtbl.mem t.live key) then begin
    let sp =
      {
        sp_vm = vm;
        sp_seq = seq;
        sp_fn = fn;
        sp_open = at;
        sp_marks = Array.make n_marks (-1);
        sp_close = -1;
        sp_status = 0;
        sp_device = -1;
      }
    in
    Hashtbl.replace t.live key sp;
    t.opened <- t.opened + 1
  end

(* First write wins: a resent call must not rewrite the marks of the
   attempt already in flight, or phase durations could go negative. *)
let mark t ~vm ~seq m ~at =
  match Hashtbl.find_opt t.live (vm, seq) with
  | None -> ()
  | Some sp ->
      let i = mark_index m in
      if sp.sp_marks.(i) < 0 then sp.sp_marks.(i) <- at

(* First write wins, like marks: a duplicate execution after a
   re-steer must not reattribute the span's original device. *)
let set_device t ~vm ~seq ~device =
  match Hashtbl.find_opt t.live (vm, seq) with
  | None -> ()
  | Some sp -> if sp.sp_device < 0 then sp.sp_device <- device

let hist_for t key =
  match Hashtbl.find_opt t.series key with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.replace t.series key h;
      h

let total_for t key =
  match Hashtbl.find_opt t.totals key with
  | Some h -> h
  | None ->
      let h = Hist.create () in
      Hashtbl.replace t.totals key h;
      h

(* Slice [sp_open .. close] at the stamped marks.  [last] carries the
   end of the previous present phase, so absent marks contribute their
   time to the next phase that was actually stamped. *)
let record_phases t sp close =
  let last = ref sp.sp_open in
  List.iter
    (fun m ->
      let ts = sp.sp_marks.(mark_index m) in
      if ts >= 0 then begin
        let d = ts - !last in
        Hist.add
          (hist_for t { k_vm = sp.sp_vm; k_fn = sp.sp_fn; k_phase = mark_phase m })
          d;
        last := ts
      end)
    [
      M_marshal_done;
      M_sent;
      M_doorbell;
      M_router_in;
      M_dispatched;
      M_exec_start;
      M_exec_end;
      M_reply_recv;
    ];
  Hist.add
    (hist_for t { k_vm = sp.sp_vm; k_fn = sp.sp_fn; k_phase = P_unmarshal })
    (close - !last);
  Hist.add (total_for t (sp.sp_vm, sp.sp_fn)) (close - sp.sp_open)

let span_close t ~vm ~seq ~status ~at =
  match Hashtbl.find_opt t.live (vm, seq) with
  | None -> ()
  | Some sp ->
      Hashtbl.remove t.live (vm, seq);
      sp.sp_close <- at;
      sp.sp_status <- status;
      t.closed <- t.closed + 1;
      if status <> 0 then t.failed <- t.failed + 1;
      record_phases t sp at;
      if t.retain > 0 then begin
        Queue.push sp t.retained;
        if Queue.length t.retained > t.retain then begin
          ignore (Queue.pop t.retained);
          t.retain_dropped <- t.retain_dropped + 1
        end
      end

(* {1 Read-out} *)

let spans t = Queue.fold (fun acc sp -> sp :: acc) [] t.retained |> List.rev

let phase_compare a b =
  let rank p =
    let rec idx i = function
      | [] -> i
      | q :: _ when q = p -> i
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 phases
  in
  Stdlib.compare (rank a) (rank b)

let raw_series t =
  Hashtbl.fold
    (fun k h acc -> ((k.k_vm, k.k_fn, k.k_phase), h) :: acc)
    t.series []
  |> List.sort (fun ((v1, f1, p1), _) ((v2, f2, p2), _) ->
         match Stdlib.compare v1 v2 with
         | 0 -> (
             match String.compare f1 f2 with
             | 0 -> phase_compare p1 p2
             | c -> c)
         | c -> c)

let series t = List.map (fun (k, h) -> (k, Hist.summary h)) (raw_series t)

let raw_totals t =
  Hashtbl.fold (fun (vm, fn) h acc -> ((vm, fn), h) :: acc) t.totals []
  |> List.sort (fun ((v1, f1), _) ((v2, f2), _) ->
         match Stdlib.compare v1 v2 with 0 -> String.compare f1 f2 | c -> c)

(* Merged across VMs and APIs: one summary per phase, in pipeline
   order — the shape the bench JSON and the report table want. *)
let phase_summaries t =
  List.map
    (fun p ->
      let merged = Hist.create () in
      Hashtbl.iter
        (fun k h -> if k.k_phase = p then Hist.merge ~into:merged h)
        t.series;
      (p, Hist.summary merged))
    phases

let total_summary t =
  let merged = Hist.create () in
  Hashtbl.iter (fun _ h -> Hist.merge ~into:merged h) t.totals;
  Hist.summary merged

(* Per-VM end-to-end summaries, merged across APIs: the per-tenant
   latency read-out the cluster tier reports p50/p99 from. *)
let vm_totals t =
  let by_vm = Hashtbl.create 16 in
  Hashtbl.iter
    (fun (vm, _fn) h ->
      let merged =
        match Hashtbl.find_opt by_vm vm with
        | Some m -> m
        | None ->
            let m = Hist.create () in
            Hashtbl.add by_vm vm m;
            m
      in
      Hist.merge ~into:merged h)
    t.totals;
  Hashtbl.fold (fun vm h acc -> (vm, Hist.summary h) :: acc) by_vm []
  |> List.sort (fun (v1, _) (v2, _) -> Stdlib.compare v1 v2)
