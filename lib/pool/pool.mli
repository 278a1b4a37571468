(** The device pool: N simulated accelerators, each fronted by its own
    API server and router dispatch lane, with pluggable placement of
    remoted VMs onto backends and migration-driven rebalancing.

    The fleet may be heterogeneous: each device carries a
    {!capability} tag, VMs may require one (their silo state only
    replays onto same-type devices), and placement, evacuation and the
    skew monitor all respect compatibility.

    The pool is generic over the silo state ['st]: the API-specific
    work of moving a VM's silo between devices — replaying the record
    log, restoring buffer contents ({!Ava_core.Silo.transfer}) — is
    injected as the [transfer] closure by the stack-assembly layer
    ({!Ava_core.Host}).  The pool owns the orchestration: placement, the
    pause / drain / {!hand_over} migration sequence, device-loss
    evacuation with blame routing, and the periodic skew monitor. *)

open Ava_sim
open Ava_device
open Ava_hv

module Server = Ava_remoting.Server
module Router = Ava_remoting.Router

(** Placement policies for newly attached (or evacuated) VMs. *)
type placement =
  | Round_robin  (** rotate over healthy devices *)
  | Least_loaded  (** least accumulated estimated device time *)
  | Bin_pack  (** best-fit on declared buffer footprint *)

val placement_to_string : placement -> string
val placement_of_string : string -> placement option

(** Skew monitor configuration: every [rb_interval], migrate one VM off
    the hottest device when its load exceeds [rb_skew] times the
    healthy average. *)
type rebalance = { rb_interval : Time.t; rb_skew : float }

(** Device capability tags for heterogeneous fleets. *)
type capability = Cap_gpu | Cap_npu | Cap_stream

val capability_to_string : capability -> string

type phys = {
  ph_cap : capability;
  ph_busy_ns : unit -> Time.t;
  ph_kernels : unit -> int;
  ph_capacity : int;  (** device-memory capacity, bytes *)
  ph_wedged_by : unit -> int option;
  ph_kill : unit -> unit;
  ph_gpu : Gpu.t option;
}
(** The pool's view of one physical accelerator: a capability tag plus
    the read-outs and controls orchestration needs, as closures so any
    device model can sit behind a lane. *)

val phys_of_gpu : Gpu.t -> phys
(** Wrap a simulated GPU as a [Cap_gpu] pool device. *)

type 'st device = {
  dev_id : int;
  dev_phys : phys;
  dev_server : 'st Server.t;
  mutable dev_healthy : bool;
  mutable dev_resident : int list;  (** vm ids, unordered *)
  mutable dev_evac_in : int;
  mutable dev_evac_out : int;
}

type 'st t

val create :
  ?trace:Trace.t ->
  Engine.t ->
  router:Router.t ->
  placement:placement ->
  transfer:(vm_id:int -> src:int -> dst:int -> int) ->
  (phys * 'st Server.t) list ->
  'st t
(** [create engine ~router ~placement ~transfer devices] assumes
    ownership of [devices] in order (device ids are list positions) and
    registers a router dispatch lane per device beyond lane 0.  A
    homogeneous GPU fleet tags each device with {!phys_of_gpu}.
    [transfer] performs the API-specific silo copy between two device
    ids for a VM already attached to both servers, returning the bytes
    moved. *)

val drain_window : Time.t
(** How long a migration waits after pausing the source worker for
    calls already at the source to finish (200 us). *)

(** {1 Read-out} *)

val n_devices : 'st t -> int
val placement : 'st t -> placement
val device : 'st t -> int -> 'st device

val gpu : 'st t -> int -> Gpu.t
(** The concrete GPU behind a [Cap_gpu] device.
    @raise Invalid_argument for non-GPU devices. *)

val capability : 'st t -> int -> capability
val server : 'st t -> int -> 'st Server.t
val is_healthy : 'st t -> int -> bool

val resident : 'st t -> int -> int list
(** VM ids resident on the device, sorted. *)

val device_of : 'st t -> vm_id:int -> int option
(** The device currently hosting the VM. *)

val load_of : 'st t -> int -> Time.t
(** Estimated device load: accumulated charged device time of the
    residents (the router's spec-estimate accounting). *)

val migrations : 'st t -> int
val evacuations : 'st t -> int

val rebalances : 'st t -> int
(** Migrations initiated by {!rebalance_now} / the skew monitor. *)

val retires : 'st t -> int
(** Successful {!retire_vm} calls (refusals not counted). *)

val aborted_migrations : 'st t -> int
(** Migrations abandoned because their VM retired during the drain
    window.
    [test_campaign] checks a retire refused mid-drain aborts none. *)

val vm_of : 'st t -> vm_id:int -> Vm.t option
(** The VM object behind a resident vm id. *)

(** Per-device snapshot for reports and benchmarks. *)
type device_stats = {
  ds_id : int;
  ds_capability : capability;
  ds_healthy : bool;
  ds_resident : int list;
  ds_load_ns : Time.t;  (** estimated (charged) device time *)
  ds_busy_ns : Time.t;  (** actual device busy time *)
  ds_kernels : int;
  ds_footprint : int;  (** declared resident footprint, bytes *)
  ds_evac_in : int;
  ds_evac_out : int;
}

val stats : 'st t -> device_stats list
(** In device-id order. *)

(** {1 Placement} *)

val place :
  ?footprint:int -> ?requires:capability -> ?device:int -> 'st t ->
  vm:Vm.t -> int
(** Place a new VM (recording residency) and return its device;
    [device] pins it explicitly, bypassing the policy (but still
    validated against [requires]).
    @raise Invalid_argument when no compatible healthy device
    remains. *)

(** {1 Live migration} *)

val migrate_vm : 'st t -> vm_id:int -> dest:int -> int
(** Move the VM's silo onto [dest] and re-steer its call flow there;
    returns the bytes moved (0 when already resident, or when [dest]'s
    capability doesn't satisfy the VM's requirement — record/replay
    only reconstructs a silo on a same-type device, so the move is
    refused rather than wedged).  Calls the source server executed but
    had not answered may execute again at the destination —
    at-least-once, the same contract as the restart/requeue path.  Must
    run inside a simulation process. *)

val hand_over :
  Engine.t ->
  router:Router.t ->
  vm_id:int ->
  src:'st Server.t ->
  dst:'st Server.t ->
  transfer:(unit -> int) ->
  steer:(Ava_transport.Transport.endpoint -> unit) ->
  int * int
(** The ordered hand-over every live move shares, same-host
    ({!migrate_vm}) or cross-host ({!Ava_cluster.Cluster.migrate_tenant}):
    attach [dst] over a fresh host-internal queue, run [transfer]
    (returns bytes moved), seed [dst]'s in-order cursor from [router]
    (the router currently holding the VM's flow), carry the reply log
    from [src], [steer] the flow onto the new queue's router end, and
    detach [src].  The caller has paused [src]'s worker and waited out
    {!drain_window}.  Returns (bytes moved, seeded seq).  Must run
    inside a simulation process. *)

(** {1 Cross-host emigration}

    The cluster tier ({!Ava_cluster.Cluster}) moves a VM to {e another
    host's} pool; this pool only bookkeeps its side of the hand-off.
    The cluster calls [begin_emigration] before pausing the source
    worker, drains, runs {!hand_over} across the two routers, and
    finishes with [complete_emigration]. *)

val begin_emigration : 'st t -> vm_id:int -> int option
(** Claim the VM for a cross-host move under the same first-mover-wins
    flag that serializes local migrations — while held, the skew
    monitor, evacuation and {!retire_vm} all refuse to touch the VM.
    Returns its current device, or [None] if the VM is unknown or
    already mid-migration. *)

val abort_emigration : 'st t -> vm_id:int -> unit
(** Release the claim without moving (destination refused, etc.). *)

val complete_emigration : 'st t -> vm_id:int -> unit
(** Drop the VM's residency and entry {e without} detaching its server
    entry or clearing breakers — the cluster already detached the
    source entry and the breaker moved with the VM's router flow. *)

(** {1 Retirement} *)

val retire_vm : 'st t -> vm_id:int -> bool
(** Retire the VM: detach its server entry (terminating the worker),
    drop residency everywhere, clear any circuit breaker.  Idempotent —
    an unknown (already retired) VM returns [false] — and validated: a
    VM with a migration between pause and re-steer is refused
    ([false]); retry after the migration completes.  The caller must
    ensure the VM has no in-flight calls (its worker dies with its
    inbox). *)

val kill_device : 'st t -> device:int -> unit
(** Permanently lose the device ({!Gpu.kill}) and evacuate its
    residents via the placement policy.  The client wedging the device
    at death keeps any open circuit breaker; every other evacuee's
    breaker is cleared.  Residents stranded with no healthy device
    left stay attached to the dead one.  Must run inside a simulation
    process. *)

(** {1 Rebalancing} *)

val rebalance_now : ?skew:float -> 'st t -> bool
(** One rebalance step: when the hottest healthy device's load exceeds
    [skew] (default 1.5) times the healthy average,
    migrate the resident whose load best halves the hot-cold gap onto
    the coldest device.  Returns whether a migration happened.  Must
    run inside a simulation process. *)

val start_rebalancer : ?config:rebalance -> 'st t -> unit
(** Spawn the periodic skew monitor.  It keeps the engine's event
    queue non-empty, so call {!stop} (e.g. when the workload
    completes) or [Engine.run] will never return. *)

val stop : 'st t -> unit
(** Quiesce the skew monitor; it exits at its next tick. *)
