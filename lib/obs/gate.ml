(* Perf-gate comparison logic: flatten bench JSON into named numeric
   metrics, compare the gated subset against a baseline with a
   tolerance band, and render the verdict as a markdown table.  Lives
   in the library (not bin/) so the comparison rules are unit-tested
   with everything else. *)

(* {1 Flattening} *)

(* Array elements are named by their "name"/"phase"/"workload"/
   "capability" member when one exists, so metric paths stay stable as
   lists are reordered or extended; anonymous elements fall back to
   their index. *)
let element_label v i =
  let tag key =
    match Json.member key v with
    | Some (Json.String s) -> Some s
    | _ -> None
  in
  let rec first = function
    | [] -> string_of_int i
    | key :: rest -> (
        match tag key with Some s -> s | None -> first rest)
  in
  first [ "name"; "phase"; "workload"; "capability" ]

(* All numeric leaves as [(path, value)], document order. *)
let flatten json =
  let out = ref [] in
  let rec walk path v =
    match v with
    | Json.Int _ | Json.Float _ ->
        let n = Option.get (Json.to_number v) in
        out := (String.concat "/" (List.rev path), n) :: !out
    | Json.Obj fields -> List.iter (fun (k, v) -> walk (k :: path) v) fields
    | Json.List items ->
        List.iteri (fun i v -> walk (element_label v i :: path) v) items
    | Json.Null | Json.Bool _ | Json.String _ -> ()
  in
  walk [] json;
  List.rev !out

(* {1 Gated metrics} *)

(* Only lower-is-better metrics are gated: the end-to-end ratios the
   paper's Fig. 5 band is stated in, the per-phase p50/p95, and the
   simcore self-benchmark's per-event cost and allocation rate.
   Counters, byte totals, events/s etc. are reported but never fail
   the gate (events/s is higher-is-better; its inverse ns_per_event is
   the gated form). *)
let gated_suffixes =
  [
    "relative";
    "async_rel";
    "sync_rel";
    "mean_relative";
    "max_relative";
    "p50_ns";
    "p95_ns";
    "p99_ns";
    "transport_marshal_p50_ns";
    "ns_per_event";
    "alloc_bytes_per_event";
  ]

let is_gated path =
  let leaf =
    match String.rindex_opt path '/' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  List.mem leaf gated_suffixes

(* Sub-microsecond phases (and the simcore per-event wall cost, which
   sits around 100 ns) can double from scheduling accidents without
   meaning anything; absolute slack keeps the gate quiet on them. *)
let ns_noise_floor = 100.0

let is_ns_metric path =
  let ends_with suffix =
    let n = String.length path and m = String.length suffix in
    n >= m && String.sub path (n - m) m = suffix
  in
  ends_with "_ns" || ends_with "ns_per_event"

type status = Ok | Regressed | New_metric | Missing_metric

type row = {
  r_path : string;
  r_base : float option;
  r_cur : float option;
  r_status : status;
}

type verdict = {
  v_rows : row list;
  v_regressions : int;
  v_compared : int;
}

let compare_metrics ~tolerance_pct ~baseline ~current =
  let base = flatten baseline in
  let cur = flatten current in
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace base_tbl k v) base;
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun (k, v) -> Hashtbl.replace cur_tbl k v) cur;
  let regressions = ref 0 in
  let compared = ref 0 in
  let rows_cur =
    List.filter_map
      (fun (path, c) ->
        if not (is_gated path) then None
        else
          match Hashtbl.find_opt base_tbl path with
          | None ->
              Some { r_path = path; r_base = None; r_cur = Some c; r_status = New_metric }
          | Some b ->
              incr compared;
              let slack = if is_ns_metric path then ns_noise_floor else 0.0 in
              let limit = (b *. (1.0 +. (tolerance_pct /. 100.0))) +. slack in
              let status =
                if b > 0.0 && c > limit then begin
                  incr regressions;
                  Regressed
                end
                else Ok
              in
              Some { r_path = path; r_base = Some b; r_cur = Some c; r_status = status })
      cur
  in
  let rows_missing =
    List.filter_map
      (fun (path, b) ->
        if is_gated path && not (Hashtbl.mem cur_tbl path) then
          Some { r_path = path; r_base = Some b; r_cur = None; r_status = Missing_metric }
        else None)
      base
  in
  {
    v_rows = rows_cur @ rows_missing;
    v_regressions = !regressions;
    v_compared = !compared;
  }

let passed v = v.v_regressions = 0

(* {1 Markdown rendering} *)

let fmt_num = function
  | None -> "—"
  | Some f ->
      if Float.is_integer f && Float.abs f < 1e12 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%.4g" f

let fmt_delta base cur =
  match (base, cur) with
  | Some b, Some c when b > 0.0 -> Printf.sprintf "%+.1f%%" ((c /. b -. 1.0) *. 100.0)
  | _ -> "—"

let status_cell = function
  | Ok -> "ok"
  | Regressed -> "**REGRESSED**"
  | New_metric -> "new"
  | Missing_metric -> "missing"

let to_markdown ~tolerance_pct v =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    (Printf.sprintf "## Perf gate (%s, tolerance %.0f%%)\n\n"
       (if passed v then "PASS" else "FAIL")
       tolerance_pct);
  Buffer.add_string b
    (Printf.sprintf "%d metrics compared, %d regression%s.\n\n" v.v_compared
       v.v_regressions
       (if v.v_regressions = 1 then "" else "s"));
  Buffer.add_string b "| metric | baseline | current | delta | status |\n";
  Buffer.add_string b "|---|---:|---:|---:|---|\n";
  (* Regressions first so a failing run surfaces the cause at the top;
     then everything else in path order. *)
  let ordered =
    List.stable_sort
      (fun a b ->
        match (a.r_status, b.r_status) with
        | Regressed, Regressed -> String.compare a.r_path b.r_path
        | Regressed, _ -> -1
        | _, Regressed -> 1
        | _ -> String.compare a.r_path b.r_path)
      v.v_rows
  in
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "| `%s` | %s | %s | %s | %s |\n" r.r_path
           (fmt_num r.r_base) (fmt_num r.r_cur)
           (fmt_delta r.r_base r.r_cur)
           (status_cell r.r_status)))
    ordered;
  Buffer.contents b

(* {1 Self-test support} *)

(* Inflate every gated metric by [pct] — used by the CI self-test to
   prove the gate actually fails on a regressed result. *)
let inflate ~pct json =
  let factor = 1.0 +. (pct /. 100.0) in
  let rec walk path v =
    match v with
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k, v) -> (k, walk (k :: path) v)) fields)
    | Json.List items ->
        Json.List (List.mapi (fun i v -> walk (element_label v i :: path) v) items)
    | Json.Int n when is_gated (String.concat "/" (List.rev path)) ->
        Json.Float ((float_of_int n *. factor) +. (2.0 *. ns_noise_floor))
    | Json.Float f when is_gated (String.concat "/" (List.rev path)) ->
        Json.Float ((f *. factor) +. (2.0 *. ns_noise_floor))
    | v -> v
  in
  walk [] json
