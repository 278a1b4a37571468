(* Call and reply frames exchanged between guest library, router and API
   server. *)

type call = {
  call_seq : int;
  call_vm : int;
  call_fn : string;
  call_args : Wire.value list;
}

type reply = {
  reply_seq : int;
  reply_status : int;  (** 0 = success; otherwise an API error code *)
  reply_ret : Wire.value;
  reply_outs : Wire.value list;
}

type upcall = { up_vm : int; up_cb : int; up_args : Wire.value list }

type skip = { skip_vm : int; skip_seqs : int list }
(** Router-to-server notice that the named seqs were policed away and
    will never arrive, so in-order execution can advance past them. *)

type nak = { nak_vm : int; nak_seq : int; nak_digests : int64 list }
(** Server-to-guest cache-miss notice: the named [Blob_ref] digests were
    not in the content store, so the stub must re-send the full payload
    under the same seq. *)

type t =
  | Call of call
  | Reply of reply
  | Batch of call list
  | Upcall of upcall
  | Skip of skip
  | Nak of nak

let rec encode = function
  | Call c ->
      Wire.encode
        (Wire.Str "C" :: Wire.int c.call_seq :: Wire.int c.call_vm
       :: Wire.Str c.call_fn :: c.call_args)
  | Reply r ->
      Wire.encode
        (Wire.Str "R" :: Wire.int r.reply_seq :: Wire.int r.reply_status
       :: r.reply_ret :: r.reply_outs)
  | Batch calls ->
      (* rCUDA-style API batching: several asynchronously forwarded calls
         in one transport message. *)
      Wire.encode
        (Wire.Str "G"
        :: List.map (fun c -> Wire.Blob (encode (Call c))) calls)
  | Upcall u ->
      (* Server-to-guest callback invocation. *)
      Wire.encode
        (Wire.Str "U" :: Wire.int u.up_vm :: Wire.int u.up_cb :: u.up_args)
  | Skip s ->
      Wire.encode
        (Wire.Str "S" :: Wire.int s.skip_vm
        :: List.map Wire.int s.skip_seqs)
  | Nak n ->
      Wire.encode
        (Wire.Str "N" :: Wire.int n.nak_vm :: Wire.int n.nak_seq
        :: List.map (fun d -> Wire.I64 d) n.nak_digests)

let malformed () = raise (Wire.Decode_error "malformed message frame")

(* Seqs, VM ids and statuses must fit the native int: [Int64.to_int]
   would wrap an out-of-range guest seq onto another one. *)
let int_field r =
  match Wire.read ~copy:true r with
  | Wire.I64 _ as v -> (
      match Wire.to_int v with
      | Some n -> n
      | None -> raise (Wire.Decode_error "integer field out of range"))
  | _ -> malformed ()

let int64_field r =
  match Wire.read ~copy:true r with Wire.I64 d -> d | _ -> malformed ()

let rec fields f r n acc =
  if n = 0 then List.rev acc else fields f r (n - 1) (f r :: acc)

(* One frame, read value by value from [r] to its end.  Batch members
   are parsed in place inside the outer frame.  [~copy:false] skips the
   payload bodies of arguments and reply values (see {!view}). *)
let rec parse ~copy r =
  let n = Wire.count r in
  let at_least k = if n < k then malformed () in
  at_least 1;
  let frame =
    match Wire.read ~copy:true r with
    | Wire.Str "C" ->
        at_least 4;
        let call_seq = int_field r in
        let call_vm = int_field r in
        let call_fn =
          match Wire.read ~copy:true r with
          | Wire.Str fn -> fn
          | _ -> malformed ()
        in
        let call_args = Wire.read_n ~copy r (n - 4) in
        Call { call_seq; call_vm; call_fn; call_args }
    | Wire.Str "R" ->
        at_least 4;
        let reply_seq = int_field r in
        let reply_status = int_field r in
        let reply_ret = Wire.read ~copy r in
        let reply_outs = Wire.read_n ~copy r (n - 4) in
        Reply { reply_seq; reply_status; reply_ret; reply_outs }
    | Wire.Str "G" ->
        let member r =
          match parse ~copy (Wire.sub_frame r) with
          | Call c -> c
          | _ -> raise (Wire.Decode_error "batch frame is not a call")
        in
        Batch (fields member r (n - 1) [])
    | Wire.Str "U" ->
        at_least 3;
        let up_vm = int_field r in
        let up_cb = int_field r in
        Upcall { up_vm; up_cb; up_args = Wire.read_n ~copy r (n - 3) }
    | Wire.Str "S" ->
        at_least 2;
        let skip_vm = int_field r in
        Skip { skip_vm; skip_seqs = fields int_field r (n - 2) [] }
    | Wire.Str "N" ->
        at_least 3;
        let nak_vm = int_field r in
        let nak_seq = int_field r in
        Nak { nak_vm; nak_seq; nak_digests = fields int64_field r (n - 3) [] }
    | _ -> malformed ()
  in
  Wire.finish r;
  frame

let decode data =
  match parse ~copy:true (Wire.reader data) with
  | t -> Ok t
  | exception Wire.Decode_error e -> Error e

(* --- router view ---------------------------------------------------- *)

type call_view = {
  cv_seq : int;
  cv_vm : int;
  cv_fn : string;
  cv_args : int option list;
}

type view =
  | Call_view of call_view
  | Batch_view of call_view list
  | Reply_view of { rv_seq : int; rv_status : int }
  | Other_view

let call_view c =
  {
    cv_seq = c.call_seq;
    cv_vm = c.call_vm;
    cv_fn = c.call_fn;
    cv_args = List.map Wire.to_int c.call_args;
  }

let view data =
  match parse ~copy:false (Wire.reader data) with
  | Call c -> Ok (Call_view (call_view c))
  | Batch calls -> Ok (Batch_view (List.map call_view calls))
  | Reply r ->
      Ok (Reply_view { rv_seq = r.reply_seq; rv_status = r.reply_status })
  | Upcall _ | Skip _ | Nak _ -> Ok Other_view
  | exception Wire.Decode_error e -> Error e

let pp ppf = function
  | Call c ->
      Fmt.pf ppf "call#%d vm%d %s(%a)" c.call_seq c.call_vm c.call_fn
        (Fmt.list ~sep:Fmt.comma Wire.pp)
        c.call_args
  | Reply r ->
      Fmt.pf ppf "reply#%d status=%d ret=%a" r.reply_seq r.reply_status
        Wire.pp r.reply_ret
  | Batch calls -> Fmt.pf ppf "batch of %d calls" (List.length calls)
  | Upcall u -> Fmt.pf ppf "upcall vm%d cb#%d" u.up_vm u.up_cb
  | Skip s ->
      Fmt.pf ppf "skip vm%d seqs=[%a]" s.skip_vm
        (Fmt.list ~sep:Fmt.comma Fmt.int)
        s.skip_seqs
  | Nak n ->
      Fmt.pf ppf "nak vm%d seq#%d digests=[%a]" n.nak_vm n.nak_seq
        (Fmt.list ~sep:Fmt.comma (fun ppf d -> Fmt.pf ppf "%Lx" d))
        n.nak_digests
