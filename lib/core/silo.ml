(* Per-silo descriptors and the one record/replay transfer (§4.3).

   A descriptor is everything silo-generic code needs to know about one
   API silo: which recorded call allocates a live buffer and where its
   size sits among the arguments, how to quiesce the silo, how to read
   and write one live buffer, which reply statuses count against a VM's
   error budget, and how to build the guest-side API over a stub.

   [transfer] moves a VM's silo between two server entries on top of a
   descriptor.  Every migration in the stack goes through it: same-host
   pool moves, cross-host cluster moves, and the E6 same-server swap of
   [Migration.migrate]. *)

module Server = Ava_remoting.Server
module Migrate = Ava_remoting.Migrate
module Stub = Ava_remoting.Stub

type ('st, 'api) t = {
  alloc_fn : string;
  size_arg : int;
  quiesce : 'st -> unit;
  read : 'st -> mem:int -> size:int -> Bytes.t option;
  write : 'st -> mem:int -> Bytes.t -> int option;
  fault_statuses : int list;
  remote : Stub.t -> 'api;
}

let cl =
  let open Ava_simcl in
  let buffer (st : Cl_handlers.state) mem =
    Option.map
      (fun buf -> (Native.kdriver st.Cl_handlers.native, buf))
      (Native.find_mem st.Cl_handlers.native mem)
  in
  {
    alloc_fn = "clCreateBuffer";
    size_arg = 2;
    quiesce = (fun st -> Native.quiesce st.Cl_handlers.native);
    read =
      (fun st ~mem ~size ->
        Option.map
          (fun (kd, buf) -> Kdriver.read_buffer kd ~buf ~offset:0 ~len:size)
          (buffer st mem));
    write =
      (fun st ~mem data ->
        Option.map
          (fun (kd, buf) ->
            Kdriver.write_buffer kd ~buf ~offset:0 ~src:data;
            Bytes.length data)
          (buffer st mem));
    (* The server's device-lost verdict (TDR fired mid-call) and the
       CL_DEVICE_NOT_AVAILABLE a later clFinish reports for a kernel the
       reset killed. *)
    fault_statuses =
      [
        Server.status_device_lost;
        Types.error_to_code Types.Device_not_available;
      ];
    remote = Cl_remote.create;
  }

(* Only object lifetimes are recorded on the stream silo (enqueues are
   [no_record]); after the quiesce every stream is idle and every event
   complete, which is exactly the state freshly replayed objects have. *)
let st =
  let open Ava_simst in
  {
    alloc_fn = "stMemAlloc";
    size_arg = 1;
    quiesce = (fun st -> Native.quiesce st.St_handlers.native);
    read =
      (fun st ~mem ~size:_ ->
        Option.map Bytes.copy (Native.find_mem st.St_handlers.native mem));
    write =
      (fun st ~mem data ->
        Option.map
          (fun buf ->
            let len = min (Bytes.length data) (Bytes.length buf) in
            Bytes.blit data 0 buf 0 len;
            len)
          (Native.find_mem st.St_handlers.native mem));
    fault_statuses =
      [
        Server.status_device_lost;
        Types.status_to_code Types.St_device_lost;
      ];
    remote = St_remote.create;
  }

(* NCS and QAT hosts are not pooled: their descriptors name no live
   allocation, so a transfer would replay the log and move no memory. *)
let unpooled ~fault_statuses ~remote =
  {
    alloc_fn = "";
    size_arg = 0;
    quiesce = ignore;
    read = (fun _ ~mem:_ ~size:_ -> None);
    write = (fun _ ~mem:_ _ -> None);
    fault_statuses;
    remote;
  }

let nc =
  unpooled
    ~fault_statuses:
      [
        Server.status_device_lost;
        Ava_simnc.Types.status_to_code Ava_simnc.Types.Gone;
      ]
    ~remote:Nc_remote.create

let qa =
  unpooled ~fault_statuses:[ Server.status_device_lost ]
    ~remote:Qa_remote.create

type moved = { bytes : int; replayed : int; restored : int }

let require = function
  | Some x -> x
  | None -> invalid_arg "Silo.transfer: vm not attached or not recorded"

(* Live allocations still in the record log, with their sizes recovered
   from the recorded arguments. *)
let live_allocs silo recorder =
  List.filter_map
    (fun (r : Migrate.recorded) ->
      match (r.Migrate.rc_primary, List.nth_opt r.Migrate.rc_args silo.size_arg) with
      | Some vid, Some (Ava_remoting.Wire.I64 size)
        when String.equal r.Migrate.rc_fn silo.alloc_fn ->
          Some (vid, Int64.to_int size)
      | _ -> None)
    (Migrate.replay_log recorder)

(* Snapshot -> replay-and-re-bind -> restore.  [dst] is either a second
   server the VM is freshly attached to, or [src] itself with [fresh]
   the new silo state swapped into its entry just before the replay.
   Must run inside a simulation process. *)
let transfer silo ~recorders ~vm_id ~src ~dst ~fresh ~sva =
  let recorder = require (Hashtbl.find_opt recorders vm_id) in
  let src_ctx = require (Server.vm_ctx src ~vm_id) in
  let src_state = require (Server.vm_state src ~vm_id) in
  let dst_ctx = require (Server.vm_ctx dst ~vm_id) in
  (* A fresh destination context would re-mint ids the replay is about
     to re-bind originals onto; reserve the source's whole range. *)
  Server.Ctx.reserve dst_ctx (Server.Ctx.next_vid src_ctx);
  (* The content store belongs to the source front-end; the guest's
     stale refs heal through the cache-miss NAK/resend path. *)
  Server.flush_cache src ~vm_id;
  (* SVA: the guest's pinned regions survive (its memory didn't move),
     but the source device's cached translations must die and
     resolution must re-point at the destination device — one batched
     shootdown, then every region refaults on first access. *)
  (match sva with
  | Some (iommu, dma) ->
      Ava_device.Iommu.quiesce iommu;
      Server.clear_sva src ~vm_id;
      Server.set_sva dst ~vm_id ~iommu ~dma
  | None -> ());
  (* The drain window paused the worker, but work the device already
     accepted writes its outputs only at completion: snapshot before it
     finishes and the destination inherits stale bytes. *)
  silo.quiesce src_state;
  let bytes = ref 0 in
  let snapshot =
    List.filter_map
      (fun (vid, size) ->
        Option.bind (Server.Ctx.resolve src_ctx vid) (fun mem ->
            Option.map
              (fun data ->
                bytes := !bytes + size;
                (vid, data))
              (silo.read src_state ~mem ~size)))
      (live_allocs silo recorder)
  in
  (* Replay with recording suspended so it doesn't re-record itself. *)
  Hashtbl.remove recorders vm_id;
  (match fresh with
  | Some state ->
      ignore (Server.replace_state dst ~vm_id state);
      Server.Ctx.clear dst_ctx
  | None -> ());
  let log = Migrate.replay_log recorder in
  List.iter
    (fun (r : Migrate.recorded) ->
      ignore
        (Server.execute_direct dst ~vm_id
           {
             Ava_remoting.Message.call_seq = 0;
             call_vm = vm_id;
             call_fn = r.Migrate.rc_fn;
             call_args = r.Migrate.rc_args;
           });
      (* Re-bind the re-created object to its original virtual id. *)
      match (r.Migrate.rc_class, r.Migrate.rc_primary) with
      | Ava_spec.Ast.Object_alloc, Some orig ->
          let fresh_vid = Server.Ctx.last_fresh dst_ctx in
          if fresh_vid <> orig then
            Option.iter
              (fun host ->
                Server.Ctx.forget dst_ctx fresh_vid;
                Server.Ctx.bind dst_ctx ~guest:orig ~host)
              (Server.Ctx.resolve dst_ctx fresh_vid)
      | _ -> ())
    log;
  Hashtbl.replace recorders vm_id recorder;
  let dst_state = require (Server.vm_state dst ~vm_id) in
  let restored =
    List.fold_left
      (fun n (vid, data) ->
        match
          Option.bind (Server.Ctx.resolve dst_ctx vid) (fun mem ->
              silo.write dst_state ~mem data)
        with
        | Some len ->
            bytes := !bytes + len;
            n + 1
        | None -> n)
      0 snapshot
  in
  { bytes = !bytes; replayed = List.length log; restored }
