(* VM migration for SimCL guests (§4.3), the E6 same-server swap.

   Procedure (the guest quiesces first, e.g. with clFinish): suspend the
   VM's API-server worker, swap a fresh silo state on the destination
   device into its server entry through [Silo.transfer] (snapshot live
   buffers, replay the record log re-binding each object to its
   original virtual id, restore buffer contents), resume the worker.

   The guest library never notices: its handles are virtual ids whose
   host bindings were rebuilt underneath it. *)

module Server = Ava_remoting.Server
module Migrate = Ava_remoting.Migrate

open Ava_sim

type report = {
  pause_ns : Time.t;  (** wall (virtual) time the VM was suspended *)
  replayed_calls : int;
  buffers_restored : int;
  bytes_copied : int;  (** snapshot + restore volume *)
  log_recorded : int;  (** calls ever recorded for this VM *)
  log_pruned : int;  (** entries dropped by object tracking *)
}

let pp_report ppf r =
  Fmt.pf ppf
    "pause=%a replayed=%d buffers=%d copied=%dB recorded=%d pruned=%d"
    Time.pp r.pause_ns r.replayed_calls r.buffers_restored r.bytes_copied
    r.log_recorded r.log_pruned

(* Must run inside a simulation process. *)
let migrate (host : Host.cl_host) ~vm_id ~dest_kd =
  let server = host.Host.server in
  let recorder =
    match Host.recorder host ~vm_id with
    | Some r -> r
    | None -> invalid_arg "Migration.migrate: unknown vm"
  in
  if Server.vm_ctx server ~vm_id = None then
    invalid_arg "Migration.migrate: vm not attached to server";
  let started = Engine.now host.Host.engine in
  Server.pause_vm server ~vm_id;
  let moved =
    Silo.transfer Silo.cl ~recorders:host.Host.recorders ~vm_id ~src:server
      ~dst:server
      ~fresh:(Some (Cl_handlers.make_state dest_kd ~vm_id))
      ~sva:None
  in
  Server.resume_vm server ~vm_id;
  {
    pause_ns = Engine.now host.Host.engine - started;
    replayed_calls = moved.Silo.replayed;
    buffers_restored = moved.Silo.restored;
    bytes_copied = moved.Silo.bytes;
    log_recorded = Migrate.recorded_count recorder;
    log_pruned = Migrate.pruned_count recorder;
  }
