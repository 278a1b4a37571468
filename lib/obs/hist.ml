(* Log-bucketed latency histogram.

   Buckets are powers of two in nanoseconds: bucket i holds samples in
   (2^(i-1), 2^i] (bucket 0 holds [0, 1]), with one overflow bucket
   above 2^40 (~18 minutes).  Recording is O(log range) with no
   allocation, so spans can feed histograms on the hot path; quantiles
   are answered from the buckets with linear interpolation inside the
   winning bucket, clamped to the observed min/max. *)

let n_finite = 41 (* finite upper bounds 2^0 .. 2^40 *)
let n_buckets = n_finite + 1 (* plus one overflow bucket *)

let bound i =
  if i < 0 || i >= n_finite then invalid_arg "Hist.bound";
  1 lsl i

(* Smallest bucket whose upper bound holds [v]; the overflow bucket for
   values above the last finite bound. *)
let bucket_index v =
  let v = Stdlib.max 0 v in
  let rec find i =
    if i >= n_finite then n_finite else if v <= 1 lsl i then i else find (i + 1)
  in
  find 0

type t = {
  counts : int array; (* length [n_buckets]; last entry is overflow *)
  mutable n : int;
  mutable sum : float;
  mutable minimum : int;
  mutable maximum : int;
}

let create () =
  {
    counts = Array.make n_buckets 0;
    n = 0;
    sum = 0.0;
    minimum = max_int;
    maximum = min_int;
  }

let add t v =
  let v = Stdlib.max 0 v in
  let i = bucket_index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum +. float_of_int v;
  if v < t.minimum then t.minimum <- v;
  if v > t.maximum then t.maximum <- v

let count t = t.n
let sum t = t.sum
let bucket_counts t = Array.copy t.counts

let merge ~into src =
  Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) src.counts;
  into.n <- into.n + src.n;
  into.sum <- into.sum +. src.sum;
  if src.n > 0 then begin
    if src.minimum < into.minimum then into.minimum <- src.minimum;
    if src.maximum > into.maximum then into.maximum <- src.maximum
  end

let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Hist.quantile: q out of range";
  if t.n = 0 then nan
  else begin
    let target =
      Stdlib.max 1 (int_of_float (Float.ceil (q *. float_of_int t.n)))
    in
    let rec walk i cum =
      let cum' = cum + t.counts.(i) in
      if cum' >= target then
        if i = n_buckets - 1 then float_of_int t.maximum
        else begin
          let lo = if i = 0 then 0.0 else float_of_int (bound (i - 1)) in
          let hi = float_of_int (bound i) in
          let in_bucket = t.counts.(i) in
          let frac =
            if in_bucket = 0 then 1.0
            else float_of_int (target - cum) /. float_of_int in_bucket
          in
          let v = lo +. (frac *. (hi -. lo)) in
          Float.min (Float.max v (float_of_int t.minimum))
            (float_of_int t.maximum)
        end
      else if i = n_buckets - 1 then float_of_int t.maximum
      else walk (i + 1) cum'
    in
    walk 0 0
  end

type summary = {
  h_count : int;
  h_sum_ns : float;
  h_mean_ns : float;
  h_min_ns : float;
  h_max_ns : float;
  h_p50_ns : float;
  h_p95_ns : float;
  h_p99_ns : float;
}

let empty_summary =
  {
    h_count = 0;
    h_sum_ns = 0.0;
    h_mean_ns = 0.0;
    h_min_ns = 0.0;
    h_max_ns = 0.0;
    h_p50_ns = 0.0;
    h_p95_ns = 0.0;
    h_p99_ns = 0.0;
  }

let summary t =
  if t.n = 0 then empty_summary
  else
    {
      h_count = t.n;
      h_sum_ns = t.sum;
      h_mean_ns = t.sum /. float_of_int t.n;
      h_min_ns = float_of_int t.minimum;
      h_max_ns = float_of_int t.maximum;
      h_p50_ns = quantile t 0.5;
      h_p95_ns = quantile t 0.95;
      h_p99_ns = quantile t 0.99;
    }

let pp_summary ppf s =
  Fmt.pf ppf "n=%d mean=%.0fns p50=%.0fns p95=%.0fns max=%.0fns" s.h_count
    s.h_mean_ns s.h_p50_ns s.h_p95_ns s.h_max_ns
