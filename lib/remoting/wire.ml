(* Wire values: the dynamic representation every forwarded API call is
   marshalled into.

   Handles are guest-assigned integers (the API server maintains the
   guest-id -> host-object mapping), so values survive any transport and
   any server restart during migration. *)

type value =
  | Unit
  | I64 of int64
  | F64 of float
  | Str of string
  | Blob of bytes
  | Handle of int64
  | List of value list
  | Blob_ref of { br_digest : int64; br_size : int }
  | Blob_cached of { bc_digest : int64; bc_data : bytes }
  | Mapped_ref of { mr_iova : int64; mr_size : int }
      (** SVA buffer reference: the payload stays in guest pages pinned
          into the device IOVA window; only (iova, size) crosses the
          wire.  Decode rejects references outside the window. *)

let int n = I64 (Int64.of_int n)

(* Out-of-range values must surface as [None], not wrap: a 64-bit handle
   truncated to a native int would silently alias another object. *)
let to_int =
  let min = Int64.of_int min_int and max = Int64.of_int max_int in
  let checked v =
    if Int64.compare v min >= 0 && Int64.compare v max <= 0 then
      Some (Int64.to_int v)
    else None
  in
  function I64 v -> checked v | Handle v -> checked v | _ -> None

(* FNV-1a 64: same construction as the Faults checksum envelope, reused
   here to content-address buffer payloads. *)
let digest b =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Bytes.length b - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.get b i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | I64 x, I64 y -> Int64.equal x y
  | F64 x, F64 y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Blob x, Blob y -> Bytes.equal x y
  | Handle x, Handle y -> Int64.equal x y
  | List x, List y -> List.length x = List.length y && List.for_all2 equal x y
  | Blob_ref x, Blob_ref y ->
      Int64.equal x.br_digest y.br_digest && x.br_size = y.br_size
  | Blob_cached x, Blob_cached y ->
      Int64.equal x.bc_digest y.bc_digest && Bytes.equal x.bc_data y.bc_data
  | Mapped_ref x, Mapped_ref y ->
      Int64.equal x.mr_iova y.mr_iova && x.mr_size = y.mr_size
  | ( ( Unit | I64 _ | F64 _ | Str _ | Blob _ | Handle _ | List _ | Blob_ref _
      | Blob_cached _ | Mapped_ref _ ),
      _ ) ->
      false

let rec pp ppf = function
  | Unit -> Fmt.string ppf "()"
  | I64 v -> Fmt.pf ppf "%Ld" v
  | F64 v -> Fmt.pf ppf "%g" v
  | Str s -> Fmt.pf ppf "%S" s
  | Blob b -> Fmt.pf ppf "<blob %d>" (Bytes.length b)
  | Handle h -> Fmt.pf ppf "#%Ld" h
  | List vs -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:Fmt.comma pp) vs
  | Blob_ref { br_digest; br_size } ->
      Fmt.pf ppf "<ref %Lx %d>" br_digest br_size
  | Blob_cached { bc_digest; bc_data } ->
      Fmt.pf ppf "<cached %Lx %d>" bc_digest (Bytes.length bc_data)
  | Mapped_ref { mr_iova; mr_size } -> Fmt.pf ppf "<iova %Lx %d>" mr_iova mr_size

(* Size of the encoded form, used for payload accounting and to size
   the frame [encode] writes. *)
let rec encoded_size = function
  | Unit -> 1
  | I64 _ | F64 _ | Handle _ -> 9
  | Str s -> 5 + String.length s
  | Blob b -> 5 + Bytes.length b
  | List vs -> 5 + sizes 0 vs
  | Blob_ref _ -> 13
  | Blob_cached { bc_data; _ } -> 13 + Bytes.length bc_data
  | Mapped_ref _ -> 13

and sizes acc = function
  | [] -> acc
  | v :: vs -> sizes (acc + encoded_size v) vs

(* --- binary encoding ---------------------------------------------------- *)

(* Each writer stores one value at [pos] and returns the position after
   it.  [encode] sizes the frame first, so every write lands in the one
   [Bytes] it allocates. *)
let write_i32 b pos n =
  Bytes.set_int32_le b pos (Int32.of_int n);
  pos + 4

let write_body b pos body =
  let n = Bytes.length body in
  Bytes.blit body 0 b (write_i32 b pos n) n;
  pos + 4 + n

let rec write b pos = function
  | Unit ->
      Bytes.set b pos '\000';
      pos + 1
  | I64 v ->
      Bytes.set b pos '\001';
      Bytes.set_int64_le b (pos + 1) v;
      pos + 9
  | F64 v ->
      Bytes.set b pos '\002';
      Bytes.set_int64_le b (pos + 1) (Int64.bits_of_float v);
      pos + 9
  | Str s ->
      Bytes.set b pos '\003';
      let n = String.length s in
      Bytes.blit_string s 0 b (write_i32 b (pos + 1) n) n;
      pos + 5 + n
  | Blob body ->
      Bytes.set b pos '\004';
      write_body b (pos + 1) body
  | Handle h ->
      Bytes.set b pos '\005';
      Bytes.set_int64_le b (pos + 1) h;
      pos + 9
  | List vs ->
      Bytes.set b pos '\006';
      write_list b (write_i32 b (pos + 1) (List.length vs)) vs
  | Blob_ref { br_digest; br_size } ->
      Bytes.set b pos '\007';
      Bytes.set_int64_le b (pos + 1) br_digest;
      write_i32 b (pos + 9) br_size
  | Blob_cached { bc_digest; bc_data } ->
      Bytes.set b pos '\008';
      Bytes.set_int64_le b (pos + 1) bc_digest;
      write_body b (pos + 9) bc_data
  | Mapped_ref { mr_iova; mr_size } ->
      Bytes.set b pos '\009';
      Bytes.set_int64_le b (pos + 1) mr_iova;
      write_i32 b (pos + 9) mr_size

and write_list b pos = function
  | [] -> pos
  | v :: vs -> write_list b (write b pos v) vs

let encode values =
  let b = Bytes.create (4 + sizes 0 values) in
  let stop = write_list b (write_i32 b 0 (List.length values)) values in
  assert (stop = Bytes.length b);
  b

(* --- decoding ----------------------------------------------------------- *)

exception Decode_error of string

let max_depth = 64

(* A cursor over the window [pos, stop) of a received frame. *)
type reader = { data : bytes; mutable pos : int; stop : int }

let reader data = { data; pos = 0; stop = Bytes.length data }

let need r n =
  if n > r.stop - r.pos then raise (Decode_error "truncated message")

let u8 r =
  need r 1;
  let v = Char.code (Bytes.get r.data r.pos) in
  r.pos <- r.pos + 1;
  v

let i32 r =
  need r 4;
  let v = Int32.to_int (Bytes.get_int32_le r.data r.pos) in
  r.pos <- r.pos + 4;
  v

let i64 r =
  need r 8;
  let v = Bytes.get_int64_le r.data r.pos in
  r.pos <- r.pos + 8;
  v

(* Length of a payload body that must follow in full. *)
let body_length r what =
  let n = i32 r in
  if n < 0 then raise (Decode_error ("negative " ^ what ^ " length"));
  need r n;
  n

let skip r n = r.pos <- r.pos + n

let take r n =
  let b = Bytes.sub r.data r.pos n in
  skip r n;
  b

let count r =
  let n = i32 r in
  if n < 0 || n > 1_000_000 then raise (Decode_error "implausible value count");
  n

(* Without [copy], [Str], [Blob] and [Blob_cached] bodies are checked
   and skipped, and come back empty: nothing is copied for a reader that
   only needs the scalars. *)
let rec value ~copy ~depth r =
  match u8 r with
  | 0 -> Unit
  | 1 -> I64 (i64 r)
  | 2 -> F64 (Int64.float_of_bits (i64 r))
  | 3 ->
      let n = body_length r "string" in
      if copy then begin
        let s = Bytes.sub_string r.data r.pos n in
        skip r n;
        Str s
      end
      else (skip r n; Str "")
  | 4 ->
      let n = body_length r "blob" in
      if copy then Blob (take r n) else (skip r n; Blob Bytes.empty)
  | 5 -> Handle (i64 r)
  | 6 ->
      let n = i32 r in
      if n < 0 || n > 1_000_000 then
        raise (Decode_error "implausible list length");
      if depth >= max_depth then raise (Decode_error "lists nested too deep");
      List (values ~copy ~depth:(depth + 1) r n [])
  | 7 ->
      let d = i64 r in
      let n = i32 r in
      if n < 0 then raise (Decode_error "negative blob-ref size");
      Blob_ref { br_digest = d; br_size = n }
  | 8 ->
      let d = i64 r in
      let n = body_length r "cached-blob" in
      let b = if copy then take r n else (skip r n; Bytes.empty) in
      Blob_cached { bc_digest = d; bc_data = b }
  | 9 ->
      let iova = i64 r in
      let n = i32 r in
      if n < 0 then raise (Decode_error "negative mapped-ref size");
      (* Range-check at the trust boundary: a reference outside the
         IOVA window (or overrunning it) can never reach the IOMMU. *)
      if
        Int64.compare iova Ava_device.Iommu.iova_base < 0
        || Int64.compare
             (Int64.add iova (Int64.of_int n))
             Ava_device.Iommu.iova_limit
           > 0
      then raise (Decode_error "mapped-ref IOVA out of range");
      Mapped_ref { mr_iova = iova; mr_size = n }
  | tag -> raise (Decode_error (Printf.sprintf "unknown tag %d" tag))

(* Strictly left to right: [value] advances the cursor.  ([List.init]
   must not be used here, its application order is unspecified.) *)
and values ~copy ~depth r n acc =
  if n = 0 then List.rev acc
  else
    let v = value ~copy ~depth r in
    values ~copy ~depth r (n - 1) (v :: acc)

let read ~copy r = value ~copy ~depth:0 r
let read_n ~copy r n = values ~copy ~depth:0 r n []

let sub_frame r =
  match u8 r with
  | 4 ->
      let n = body_length r "blob" in
      let sub = { data = r.data; pos = r.pos; stop = r.pos + n } in
      skip r n;
      sub
  | _ -> raise (Decode_error "expected an embedded frame")

let finish r = if r.pos <> r.stop then raise (Decode_error "trailing bytes")

let decode data =
  match
    let r = reader data in
    let vs = read_n ~copy:true r (count r) in
    finish r;
    vs
  with
  | vs -> Ok vs
  | exception Decode_error msg -> Error msg
