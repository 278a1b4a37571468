(* One pass of a workload: a freshly stood-up deployment running the
   workload's whole input once.  A pass carries its host measurements
   (wall, allocation, GC), the wrapper's call record, and three tables:
   [det] holds deterministic counts that must repeat bit for bit on
   every pass of a seed, [vt] holds virtual-time samples (deterministic
   too), [wall] holds host wall-time samples taken at layer
   boundaries. *)

type work_unit = {
  u_name : string;
  u_vt_ns : int;  (** remoted virtual time of the unit *)
  u_native_ns : int;  (** the same unit alone on the native silo *)
}

type t = {
  mutable scale : float;
      (** host-speed factor: wall seconds to nominal-speed seconds
          ({!Meter.reference}) *)
  mutable setup_s : float;
  mutable wall_s : float;
      (** timed region, first guest call to quiesce, plus the full major
          collection after the pass *)
  mutable alloc_b : float;
  mutable minor : int;
  mutable major : int;
  mutable promoted_w : float;
  recorder : Wrap.recorder;
  mutable makespan_ns : int;
  mutable units : work_unit list;
  mutable checks : int;
      (** checks beyond the guest calls themselves (session bit-checks,
          admissions) *)
  mutable bad : int;
      (** failures: mismatched read-backs, failed checks, aborted units *)
  det : (string, int) Hashtbl.t;
  wall : (string, float list) Hashtbl.t;
  vt : (string, int list) Hashtbl.t;  (** virtual-time samples, ns *)
  mutable obs : Ava_obs.Obs.t option;
}

(* [obs] arms the latency-attribution registry the pass hands to its
   hosts. *)
let create ~obs engine =
  {
    scale = 1.0;
    setup_s = 0.0;
    wall_s = 0.0;
    alloc_b = 0.0;
    minor = 0;
    major = 0;
    promoted_w = 0.0;
    recorder = Wrap.recorder engine;
    makespan_ns = 0;
    units = [];
    checks = 0;
    bad = 0;
    det = Hashtbl.create 32;
    wall = Hashtbl.create 16;
    vt = Hashtbl.create 8;
    obs = (if obs then Some (Ava_obs.Obs.create ()) else None);
  }

(* Run one work unit alone on a fresh engine, its calls recorded by
   [r]: [body engine outs] stands the silo up and runs the unit.
   Returns the unit's virtual time and read-back digests. *)
let solo r body =
  let e = Ava_sim.Engine.create () in
  r.Wrap.engine <- e;
  let o = Wrap.outs () in
  Ava_sim.Engine.spawn e (fun () -> body e o);
  Ava_sim.Engine.run e;
  (Ava_sim.Engine.now e, Wrap.digests o)

let count p k v =
  Hashtbl.replace p.det k
    (v + Option.value ~default:0 (Hashtbl.find_opt p.det k))

let get p k = Option.value ~default:0 (Hashtbl.find_opt p.det k)

let sample_wall p k s =
  Hashtbl.replace p.wall k
    (s :: Option.value ~default:[] (Hashtbl.find_opt p.wall k))

let sample_vt p k ns =
  Hashtbl.replace p.vt k
    (ns :: Option.value ~default:[] (Hashtbl.find_opt p.vt k))

(* Time a layer-boundary call made from inside a simulation process. *)
let timed p k f =
  let t0 = Meter.now_s () in
  let v = f () in
  sample_wall p k (Meter.now_s () -. t0);
  v

(* Drop the per-call record once the pass is fingerprinted; only the
   warm-up pass keeps it (latencies, wire corpus). *)
let release p =
  let r = p.recorder in
  List.iter
    (fun (v : int Wrap.vec) ->
      v.Wrap.a <- [||];
      v.Wrap.n <- 0)
    [ r.Wrap.lat; r.Wrap.scalars; r.Wrap.payload ];
  r.Wrap.fns.Wrap.a <- [||];
  r.Wrap.fns.Wrap.n <- 0;
  Hashtbl.reset p.vt

(* Compare a unit's read-back digests with its native twin's. *)
let verify p ~native outs =
  let got = Wrap.digests outs in
  if List.length got <> List.length native then
    p.bad <- p.bad + Stdlib.max 1 (List.length native)
  else
    List.iter2 (fun a b -> if a <> b then p.bad <- p.bad + 1) got native

(* Bracket the host cost of the timed region.  [region p f] may be
   called several times per pass (one deployment per Rodinia
   benchmark); the figures add up. *)
let region p f =
  let g0 = Gc.quick_stat () in
  let v, wall, alloc = Meter.measure f in
  let g1 = Gc.quick_stat () in
  p.wall_s <- p.wall_s +. wall;
  p.alloc_b <- p.alloc_b +. alloc;
  p.minor <- p.minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  p.major <- p.major + (g1.Gc.major_collections - g0.Gc.major_collections);
  p.promoted_w <- p.promoted_w +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
  v

(* Guest calls plus extra checks; the failed ones are calls that
   returned an error and every failure counted in [bad]. *)
let attempted p = p.recorder.Wrap.calls + p.checks
let failed p = Stdlib.min (attempted p) (p.recorder.Wrap.errors + p.bad)

let sorted_lat p =
  let a = Wrap.to_array p.recorder.Wrap.lat in
  Array.sort compare a;
  a

(* Every deterministic statistic of the pass, one [name=value] per line
   in a fixed order: two passes of one seed must print the same text. *)
let fingerprint p =
  let lat = sorted_lat p in
  let n = Array.length lat in
  let tp = Meter.tail_pct n in
  let lines =
    [
      Printf.sprintf "calls=%d" p.recorder.Wrap.calls;
      Printf.sprintf "errors=%d" p.recorder.Wrap.errors;
      Printf.sprintf "checks=%d bad=%d" p.checks p.bad;
      Printf.sprintf "makespan_ns=%d" p.makespan_ns;
      Printf.sprintf "call_p50_ns=%d" (Meter.rank_pct lat 50.0);
      Printf.sprintf "call_p%g_ns=%d" tp (Meter.rank_pct lat tp);
      Printf.sprintf "call_lat_sum_ns=%d" (Array.fold_left ( + ) 0 lat);
    ]
  in
  (* Units aggregated by name: fleet-churn has thousands of sessions. *)
  let units =
    let by_name = Hashtbl.create 32 in
    List.iter
      (fun u ->
        let n, vt, native =
          Option.value ~default:(0, 0, 0) (Hashtbl.find_opt by_name u.u_name)
        in
        Hashtbl.replace by_name u.u_name (n + 1, vt + u.u_vt_ns, native + u.u_native_ns))
      p.units;
    List.sort compare
      (Hashtbl.fold
         (fun name (n, vt, native) acc ->
           Printf.sprintf "unit %s n=%d vt_ns=%d native_ns=%d" name n vt native :: acc)
         by_name [])
  in
  let det =
    List.sort compare
      (Hashtbl.fold (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc) p.det [])
  in
  let vt =
    List.sort compare
      (Hashtbl.fold
         (fun k v acc ->
           Printf.sprintf "%s: n=%d sum_ns=%d" k (List.length v)
             (List.fold_left ( + ) 0 v)
           :: acc)
         p.vt [])
  in
  lines @ units @ det @ vt

module Stub = Ava_remoting.Stub
module Router = Ava_remoting.Router
module Server = Ava_remoting.Server

let stub_counts p s =
  count p "stub.marshalled_b" (Stub.marshalled_bytes s);
  count p "stub.retries" (Stub.retries s);
  count p "stub.sync_calls" (Stub.sync_calls s);
  count p "stub.async_calls" (Stub.async_calls s)

let router_counts p r =
  count p "router.forwarded" (Router.forwarded r);
  count p "router.rejected" (Router.rejected r);
  count p "router.requeued" (Router.requeued r)

let server_counts p s =
  count p "server.executed" (Server.executed s);
  count p "server.rejected" (Server.rejected s);
  count p "server.unexpected_exns" (Server.unexpected_exns s)

(* What a workload offers the driver: [native ()] runs every work unit
   alone on the native silo (recording the reference outputs and
   virtual times the passes are checked against) and returns its guest
   call count; [pass ~obs] runs one pass, with the latency-attribution
   registry armed when [obs]. *)
type workload = { native : unit -> int; pass : obs:bool -> t }
