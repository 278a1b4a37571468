(** Per-silo descriptors and the one record/replay transfer (§4.3).

    A descriptor is everything silo-generic code needs to know about one
    API silo.  {!transfer} is built on it and serves every migration in
    the stack: same-host pool moves, cross-host cluster moves
    ({!Ava_cluster.Cluster.migrate_tenant}) and the E6 same-server swap
    ({!Migration.migrate}). *)

type ('st, 'api) t = {
  alloc_fn : string;  (** the recorded call that allocates a live buffer *)
  size_arg : int;  (** position of the buffer size among its arguments *)
  quiesce : 'st -> unit;  (** wait out work the device already accepted *)
  read : 'st -> mem:int -> size:int -> Bytes.t option;
      (** one live buffer's contents, [None] if the handle is gone *)
  write : 'st -> mem:int -> Bytes.t -> int option;
      (** restore one live buffer; the bytes written *)
  fault_statuses : int list;
      (** reply statuses counting against a VM's error budget *)
  remote : Ava_remoting.Stub.t -> 'api;  (** the guest-side API over a stub *)
}

val cl : (Cl_handlers.state, (module Ava_simcl.Api.S)) t
val st : (St_handlers.state, (module Ava_simst.Api.S)) t

val nc : (Nc_handlers.state, (module Ava_simnc.Api.S)) t
(** NCS and QAT hosts are not pooled: their descriptors name no live
    allocation. *)

val qa : (Qa_handlers.state, (module Ava_simqa.Api.S)) t

type moved = {
  bytes : int;  (** snapshot + restore volume *)
  replayed : int;  (** calls replayed from the record log *)
  restored : int;  (** live buffers restored on the destination *)
}

val transfer :
  ('st, _) t ->
  recorders:(int, Ava_remoting.Migrate.t) Hashtbl.t ->
  vm_id:int ->
  src:'st Ava_remoting.Server.t ->
  dst:'st Ava_remoting.Server.t ->
  fresh:'st option ->
  sva:(Ava_device.Iommu.t * Ava_device.Dma.t) option ->
  moved
(** Move the VM's silo from [src] to [dst]: quiesce the source, snapshot
    its live buffers, replay the record log into [dst] re-binding every
    re-created object to its original virtual id, restore the buffers.
    [dst] is either a second server the VM is already attached to, or
    [src] itself with [fresh] the new silo state swapped into its entry
    before the replay.  The recorder is out of [recorders] during the
    replay, so the replay does not re-record itself.  [sva] re-points
    the VM's IOMMU at the destination's DMA engine.  The caller pauses
    the source worker first.  Must run inside a simulation process.
    @raise Invalid_argument if the VM is unrecorded or not attached to
    both servers. *)
