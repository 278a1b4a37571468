(* Automation metrics (experiment E8): what fraction of the stack CAvA
   derived on its own, and how much the developer wrote.

   The paper's claims under test: a single developer virtualizes a
   39-function OpenCL subset in days (vs. GvirtuS's 25 kLoC over
   person-years), because inference covers most functions and the rest
   need only a few declarative lines. *)

open Ava_spec

type fn_effort = {
  fe_name : string;
  fe_auto : bool;  (** preliminary spec was already complete *)
  fe_questions : int;  (** guidance questions inference raised *)
  fe_annotation_lines : int;  (** refined-spec lines the developer wrote *)
}

type report = {
  api_name : string;
  functions : int;
  auto_complete : int;  (** functions needing zero developer input *)
  total_questions : int;
  developer_lines : int;  (** total hand-written annotation lines *)
  spec_lines : int;  (** size of the refined spec *)
  generated_loc : int;  (** C the developer did NOT write *)
  per_fn : fn_effort list;
}

(* Fraction of the remoting surface that was generated rather than
   hand-written.  The denominator counts only lines a human authored:
   the refined spec's prototypes are copied from the vendor header and
   most annotations are inference output, so what the developer typed is
   the annotation diff against re-run inference. *)
let generated_fraction r =
  let total = r.generated_loc + r.developer_lines in
  if total = 0 then 0.0 else float_of_int r.generated_loc /. float_of_int total

(* Count the annotation lines a function's refinement needs: one per
   explicit parameter annotation, sync override, resource and record
   declaration that differs from the preliminary inference. *)
let annotation_lines ~(prelim : Ast.fn_spec) ~(refined : Ast.fn_spec) =
  let param_lines =
    List.fold_left2
      (fun acc (p : Ast.param_spec) (r : Ast.param_spec) ->
        let changed =
          p.Ast.p_kind <> r.Ast.p_kind
          || p.Ast.p_direction <> r.Ast.p_direction
          || p.Ast.p_deallocates <> r.Ast.p_deallocates
        in
        if changed then acc + 1 else acc)
      0 prelim.Ast.f_params refined.Ast.f_params
  in
  let sync_lines = if prelim.Ast.f_sync <> refined.Ast.f_sync then 1 else 0 in
  let stream_lines =
    if prelim.Ast.f_stream <> refined.Ast.f_stream then 1 else 0
  in
  let record_lines =
    if prelim.Ast.f_record <> refined.Ast.f_record then 1 else 0
  in
  let resource_lines = List.length refined.Ast.f_resources in
  param_lines + sync_lines + stream_lines + record_lines + resource_lines

(* Build the report by re-running inference on the included header and
   diffing it against the refined spec. *)
let analyze ~header_source ~spec_source (refined : Ast.api_spec) =
  let header =
    match Cheader.parse header_source with
    | Ok h -> h
    | Error e -> failwith ("metrics: header does not parse: " ^ e)
  in
  let per_fn =
    List.map
      (fun (fn : Ast.fn_spec) ->
        match Cheader.find_decl header fn.Ast.f_name with
        | None ->
            {
              fe_name = fn.Ast.f_name;
              fe_auto = false;
              fe_questions = 0;
              fe_annotation_lines = 0;
            }
        | Some decl ->
            let prelim = Infer.preliminary header decl in
            let questions = List.length prelim.Ast.f_unresolved in
            {
              fe_name = fn.Ast.f_name;
              fe_auto = questions = 0;
              fe_questions = questions;
              fe_annotation_lines = annotation_lines ~prelim ~refined:fn;
            })
      refined.Ast.fns
  in
  let artifacts = Emit_c.generate refined in
  {
    api_name = refined.Ast.api_name;
    functions = List.length refined.Ast.fns;
    auto_complete = List.length (List.filter (fun f -> f.fe_auto) per_fn);
    total_questions =
      List.fold_left (fun acc f -> acc + f.fe_questions) 0 per_fn;
    developer_lines =
      List.fold_left (fun acc f -> acc + f.fe_annotation_lines) 0 per_fn;
    spec_lines = Emit_c.count_lines spec_source;
    generated_loc = artifacts.Emit_c.art_total_loc;
    per_fn;
  }

let pp_report ppf r =
  Fmt.pf ppf "API %s: %d functions@." r.api_name r.functions;
  Fmt.pf ppf "  fully inferred (zero developer input): %d (%.0f%%)@."
    r.auto_complete
    (100.0 *. float_of_int r.auto_complete /. float_of_int r.functions);
  Fmt.pf ppf "  guidance questions raised by inference: %d@." r.total_questions;
  Fmt.pf ppf "  developer-written annotation lines:     %d@." r.developer_lines;
  Fmt.pf ppf "  refined spec size:                      %d lines@." r.spec_lines;
  Fmt.pf ppf "  generated stack size:                   %d LoC@."
    r.generated_loc;
  Fmt.pf ppf "  leverage (generated / hand-written):    %.1fx@."
    (float_of_int r.generated_loc
    /. float_of_int (Stdlib.max 1 r.developer_lines));
  Fmt.pf ppf "  remoting surface generated:             %.0f%%@."
    (100.0 *. generated_fraction r)
