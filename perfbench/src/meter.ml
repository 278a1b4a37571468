(* Host-side measurement helpers: wall clock, allocation, resident set
   and the order statistics every reported figure is built from. *)

let now_s = Unix.gettimeofday

(* Wall seconds and allocated bytes spent in [f]. *)
let measure f =
  let a0 = Gc.allocated_bytes () and t0 = now_s () in
  let v = f () in
  let t1 = now_s () and a1 = Gc.allocated_bytes () in
  (v, t1 -. t0, a1 -. a0)

let time f =
  let t0 = now_s () in
  let v = f () in
  (v, now_s () -. t0)

(* Peak resident set of this process in MiB (VmHWM), or 0 where
   /proc is unavailable. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf
                (String.sub line 6 (String.length line - 6))
                " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* Nearest-rank percentile of virtual-time samples (exact, so it repeats
   bit for bit on a fixed seed). *)
let rank_pct sorted pct =
  let n = Array.length sorted in
  if n = 0 then 0
  else
    let k = int_of_float (Float.ceil (pct /. 100.0 *. float_of_int n)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) (k - 1)))

(* The highest of p99 / p90 that still has at least ten samples above
   it.  Below 100 samples neither does, and no percentile above the
   median has ten samples beyond it either; the tail then falls back to
   p50 and repeats the median (inception-bulk, 13 calls a pass). *)
let tail_pct n =
  if n >= 1000 then 99.0 else if n >= 100 then 90.0 else 50.0

(* Host speed reference.  On a shared host the same code runs up to a
   third slower for seconds at a time, and run medians of raw wall time
   swing by double-digit percentages.  [reference ()] times a fixed,
   benchmark-owned load that uses no repository code: a miniature
   discrete-event loop (binary-heap timer queue, effect-suspended
   processes, a hash table), minor-heap allocation and memory copies.
   Its wall time tracks those swings.  A wall time measured between two
   reference runs is multiplied by [nominal_reference_s] over their
   mean to read as seconds at the nominal reference speed. *)

let nominal_reference_s = 0.025

type _ Effect.t += Wait : int -> unit Effect.t

let mini_des () =
  let heap = Array.make 4096 (0, Fun.id) and size = ref 0 and now = ref 0 in
  let swap i j =
    let x = heap.(i) in
    heap.(i) <- heap.(j);
    heap.(j) <- x
  in
  let push t f =
    let i = ref !size in
    incr size;
    heap.(!i) <- (t, f);
    while !i > 0 && fst heap.((!i - 1) / 2) > t do
      swap !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and settled = ref false in
    while not !settled do
      let m = ref !i in
      List.iter
        (fun c -> if c < !size && fst heap.(c) < fst heap.(!m) then m := c)
        [ (2 * !i) + 1; (2 * !i) + 2 ];
      if !m = !i then settled := true
      else begin
        swap !i !m;
        i := !m
      end
    done;
    top
  in
  let tbl = Hashtbl.create 256 in
  let spawn body =
    push !now (fun () ->
        Effect.Deep.match_with body ()
          {
            retc = Fun.id;
            exnc = raise;
            effc =
              (fun (type a) (e : a Effect.t) ->
                match e with
                | Wait d ->
                    Some
                      (fun (k : (a, _) Effect.Deep.continuation) ->
                        push (!now + d) (fun () -> Effect.Deep.continue k ()))
                | _ -> None);
          })
  in
  for p = 0 to 63 do
    spawn (fun () ->
        for i = 1 to 400 do
          Hashtbl.replace tbl ((p * 1000) + (i land 255)) [ i; p ];
          Effect.perform (Wait (1 + (p * i land 15)))
        done)
  done;
  while !size > 0 do
    let t, f = pop () in
    now := t;
    f ()
  done;
  Hashtbl.length tbl

let reference () =
  let tbl = Array.make 1024 [] in
  let src = Bytes.make 65536 'r' and dst = Bytes.create 65536 in
  let acc = ref 0 in
  let (), s =
    time (fun () ->
        acc := mini_des ();
        for i = 0 to 300_000 do
          tbl.(i land 1023) <- [ i; i + 1; i + 2 ];
          acc := !acc + List.length tbl.(i * 7 land 1023)
        done;
        for _ = 1 to 300 do
          Bytes.blit src 0 dst 0 65536
        done)
  in
  ignore (Sys.opaque_identity (!acc, dst));
  s

(* The factor that converts wall times measured between reference runs
   [r0] and [r1] to nominal-speed seconds. *)
let scale_between r0 r1 = nominal_reference_s /. ((r0 +. r1) /. 2.0)

(* Each reference run starts on a settled heap, so that it does not
   collect garbage left by the code it brackets. *)
let settled_reference () =
  Gc.full_major ();
  reference ()

(* Run [f] between two reference runs; returns its value and the
   scale factor. *)
let scaled f =
  let r0 = settled_reference () in
  let v = f () in
  (v, scale_between r0 (settled_reference ()))
