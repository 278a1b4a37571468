(* The wire layer measured on the workload's own frames.  The call
   log of a pass holds each call's function name, scalar-argument count
   and payload size; [frames] rebuilds one [Message.Call] per logged
   call with the public [Wire] constructors, and [measure] times
   [Message.encode] and [Message.decode] over the whole corpus. *)

module Wire = Ava_remoting.Wire
module Message = Ava_remoting.Message

let frames (r : Wrap.recorder) =
  Array.init r.Wrap.fns.Wrap.n (fun i ->
      let scalars =
        List.init r.Wrap.scalars.Wrap.a.(i) (fun k -> Wire.int (k + 1))
      in
      let payload = r.Wrap.payload.Wrap.a.(i) in
      let args =
        if payload > 0 then scalars @ [ Wire.Blob (Bytes.make payload 'x') ]
        else scalars
      in
      Message.Call
        { Message.call_seq = i; call_vm = 1; call_fn = r.Wrap.fns.Wrap.a.(i); call_args = args })

type t = {
  frames : int;
  bytes : int;  (** encoded bytes of the corpus *)
  encode_s : float;
  decode_s : float;
  encode_alloc_b : float;
}

(* Each sweep over the corpus is timed [reps] times; the median counts. *)
let reps = 3

let measure frames =
  let encoded = Array.map Message.encode frames in
  Array.iter
    (fun b ->
      match Message.decode b with
      | Ok _ -> ()
      | Error e -> failwith ("wire corpus frame does not decode: " ^ e))
    encoded;
  let bytes = Array.fold_left (fun a b -> a + Bytes.length b) 0 encoded in
  let sweep f =
    let runs = List.init reps (fun _ -> Meter.measure f) in
    ( Ava_sim.Stats.percentile (List.map (fun (_, s, _) -> s) runs) 50.0,
      Ava_sim.Stats.percentile (List.map (fun (_, _, a) -> a) runs) 50.0 )
  in
  let encode_s, encode_alloc_b =
    sweep (fun () -> Array.iter (fun m -> ignore (Message.encode m)) frames)
  in
  let decode_s, _ =
    sweep (fun () -> Array.iter (fun b -> ignore (Message.decode b)) encoded)
  in
  { frames = Array.length frames; bytes; encode_s; decode_s; encode_alloc_b }
