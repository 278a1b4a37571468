(* Tests for the CAvA backend: plan compilation, runtime plan queries,
   emitted C artifacts and automation metrics. *)

open Ava_spec
open Ava_codegen

let simcl_plan () =
  match Plan.compile (Specs.load_simcl ()) with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan compile failed: %s" e

let mvnc_plan () =
  match Plan.compile (Specs.load_mvnc ()) with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan compile failed: %s" e

let simst_plan () =
  match Plan.compile (Specs.load_simst ()) with
  | Ok p -> p
  | Error e -> Alcotest.failf "plan compile failed: %s" e

(* One call's arguments in [p]'s parameter order: each named scalar
   carries its value, every other argument has no int value. *)
let args (p : Plan.call_plan) bindings =
  List.map (fun (name, _) -> List.assoc_opt name bindings) p.Plan.cp_params

let is_sync p bindings = Plan.is_sync p ~to_int:Fun.id (args p bindings)

let estimate p bindings name =
  Plan.resource_estimate p ~to_int:Fun.id (args p bindings) name

let plan_tests =
  [
    Alcotest.test_case "both embedded specs compile" `Quick (fun () ->
        Alcotest.(check int) "simcl fns" 39 (Plan.function_count (simcl_plan ()));
        Alcotest.(check int) "mvnc fns" 10 (Plan.function_count (mvnc_plan ()));
        Alcotest.(check string) "api name" "simcl" (Plan.api (simcl_plan ())));
    Alcotest.test_case "unresolved spec does not compile" `Quick (fun () ->
        let h = Result.get_ok (Cheader.parse "int f(const char *mystery);") in
        let d = Option.get (Cheader.find_decl h "f") in
        let prelim = Infer.preliminary h d in
        let spec =
          {
            Ast.api_name = "t";
            includes = [];
            constants = [];
            types = [];
            fns = [ prelim ];
          }
        in
        match Plan.compile spec with
        | Ok _ -> Alcotest.fail "should refuse unresolved kinds"
        | Error msg ->
            Alcotest.(check bool) "mentions refinement" true
              (String.length msg > 0));
    Alcotest.test_case "conditional synchrony evaluates per call" `Quick
      (fun () ->
        let plan = simcl_plan () in
        let read = Option.get (Plan.find plan "clEnqueueReadBuffer") in
        Alcotest.(check bool) "blocking is sync" true
          (is_sync read [ ("blocking_read", 1) ]);
        Alcotest.(check bool) "non-blocking is async" false
          (is_sync read [ ("blocking_read", 0) ]);
        (* Unknown condition parameter falls back to sync (conservative):
           no int value at its position, or a vector of the wrong arity. *)
        Alcotest.(check bool) "unknown env is sync" true (is_sync read []);
        Alcotest.(check bool) "wrong arity is sync" true
          (Plan.is_sync read ~to_int:Fun.id [ Some 0 ]));
    Alcotest.test_case "static sync classes" `Quick (fun () ->
        let plan = simcl_plan () in
        let finish = Option.get (Plan.find plan "clFinish") in
        let setarg = Option.get (Plan.find plan "clSetKernelArg") in
        Alcotest.(check bool) "finish sync" true (is_sync finish []);
        Alcotest.(check bool) "setarg async" false (is_sync setarg []));
    Alcotest.test_case "has_outputs classification" `Quick (fun () ->
        let plan = simcl_plan () in
        let outputs name =
          Plan.has_outputs (Option.get (Plan.find plan name))
        in
        Alcotest.(check bool) "read has outputs" true
          (outputs "clEnqueueReadBuffer");
        Alcotest.(check bool) "retain has none" false
          (outputs "clRetainContext");
        Alcotest.(check bool) "finish has none" false (outputs "clFinish"));
    Alcotest.test_case "resource estimates" `Quick (fun () ->
        let plan = simcl_plan () in
        let ndr = Option.get (Plan.find plan "clEnqueueNDRangeKernel") in
        Alcotest.(check (option int)) "device time from work size"
          (Some 4096)
          (estimate ndr [ ("global_work_size", 4096) ] "device_time");
        Alcotest.(check (option int)) "unknown resource" None
          (estimate ndr [] "phase_of_moon"));
    Alcotest.test_case "dealloc and target params recorded" `Quick (fun () ->
        let plan = simcl_plan () in
        let release = Option.get (Plan.find plan "clReleaseMemObject") in
        Alcotest.(check (list string)) "dealloc" [ "buf" ]
          release.Plan.cp_dealloc_params;
        let write = Option.get (Plan.find plan "clEnqueueWriteBuffer") in
        Alcotest.(check (option string)) "target" (Some "buf")
          write.Plan.cp_target_param);
    Alcotest.test_case "simst plan: stream ops, sync_on, queue slots" `Quick
      (fun () ->
        let plan = simst_plan () in
        Alcotest.(check int) "16 fns" 16 (Plan.function_count plan);
        let sync name = is_sync (Option.get (Plan.find plan name)) [] in
        (* Stream-ordered submissions return immediately; the fences
           (stream/event synchronize, batch collect) block. *)
        Alcotest.(check bool) "launch async" false (sync "stLaunchKernel");
        Alcotest.(check bool) "htod async" false (sync "stMemcpyHtoDAsync");
        Alcotest.(check bool) "record async" false (sync "stEventRecord");
        Alcotest.(check bool) "wait-event async" false
          (sync "stStreamWaitEvent");
        Alcotest.(check bool) "stream sync blocks" true
          (sync "stStreamSynchronize");
        Alcotest.(check bool) "collect blocks" true (sync "stBatchCollect");
        (* The Div estimate: a 128-byte batch of 4-byte items claims 32
           queue slots. *)
        let submit = Option.get (Plan.find plan "stBatchSubmit") in
        Alcotest.(check (option int)) "queue_slots" (Some 32)
          (estimate submit
             [ ("batch_size", 128); ("item_size", 4) ]
             "queue_slots");
        Alcotest.(check (option int)) "zero divisor" (Some 0)
          (estimate submit
             [ ("batch_size", 128); ("item_size", 0) ]
             "queue_slots"));
    Alcotest.test_case "negative length evaluates to zero bytes" `Quick
      (fun () ->
        let plan = simcl_plan () in
        let write = Option.get (Plan.find plan "clEnqueueWriteBuffer") in
        Alcotest.(check (option int)) "clamped" (Some 0)
          (estimate write
             [ ("size", -5); ("num_events_in_wait_list", 0) ]
             "bus_bytes"));
  ]

let emit_tests =
  [
    Alcotest.test_case "artifacts cover every function" `Quick (fun () ->
        let spec = Specs.load_simcl () in
        let art = Emit_c.generate spec in
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec at i =
            i + nn <= nh && (String.sub hay i nn = needle || at (i + 1))
          in
          at 0
        in
        List.iter
          (fun (fn : Ast.fn_spec) ->
            Alcotest.(check bool)
              (fn.Ast.f_name ^ " in guest library")
              true
              (contains art.Emit_c.art_guest_library fn.Ast.f_name);
            Alcotest.(check bool)
              (fn.Ast.f_name ^ " in server")
              true
              (contains art.Emit_c.art_api_server
                 (String.uppercase_ascii fn.Ast.f_name)))
          spec.Ast.fns;
        Alcotest.(check bool) "substantial output" true
          (art.Emit_c.art_total_loc > 500));
    Alcotest.test_case "conditional sync appears in generated guest code"
      `Quick (fun () ->
        let spec = Specs.load_simcl () in
        let art = Emit_c.generate spec in
        let g = art.Emit_c.art_guest_library in
        let contains needle =
          let nh = String.length g and nn = String.length needle in
          let rec at i =
            i + nn <= nh && (String.sub g i nn = needle || at (i + 1))
          in
          at 0
        in
        Alcotest.(check bool) "blocking_read condition" true
          (contains "(blocking_read == CL_TRUE)");
        Alcotest.(check bool) "async fast path" true
          (contains "ava_call_async"));
  ]

let metrics_tests =
  [
    Alcotest.test_case "simcl automation report" `Quick (fun () ->
        let r =
          Metrics.analyze ~header_source:Specs.simcl_header
            ~spec_source:Specs.simcl_spec (Specs.load_simcl ())
        in
        Alcotest.(check int) "functions" 39 r.Metrics.functions;
        Alcotest.(check bool) "some fully inferred" true
          (r.Metrics.auto_complete > 10);
        Alcotest.(check bool) "developer lines small vs generated" true
          (r.Metrics.generated_loc > 5 * r.Metrics.developer_lines);
        Alcotest.(check bool) "per-fn rows" true
          (List.length r.Metrics.per_fn = 39));
    Alcotest.test_case "mvnc automation report" `Quick (fun () ->
        let r =
          Metrics.analyze ~header_source:Specs.mvnc_header
            ~spec_source:Specs.mvnc_spec (Specs.load_mvnc ())
        in
        Alcotest.(check int) "functions" 10 r.Metrics.functions;
        Alcotest.(check bool) "leverage >= 10x" true
          (r.Metrics.generated_loc >= 10 * r.Metrics.developer_lines));
    Alcotest.test_case "simst automation report: >= 80% generated" `Quick
      (fun () ->
        let r =
          Metrics.analyze ~header_source:Specs.simst_header
            ~spec_source:Specs.simst_spec (Specs.load_simst ())
        in
        Alcotest.(check int) "functions" 16 r.Metrics.functions;
        Alcotest.(check bool) "generated fraction >= 0.8" true
          (Metrics.generated_fraction r >= 0.8);
        Alcotest.(check bool) "per-fn rows" true
          (List.length r.Metrics.per_fn = 16));
  ]

(* --- positional queries against the by-name reference ----------------- *)

(* The by-name rule the positional queries replace: bind every scalar
   parameter whose argument has an int value; a vector of the wrong
   arity binds nothing. *)
let reference_env (p : Plan.call_plan) args =
  if List.compare_lengths p.Plan.cp_params args <> 0 then []
  else
    List.fold_left2
      (fun env (name, action) v ->
        match (action, v) with
        | Plan.Pass_scalar, Some n -> (name, n) :: env
        | _ -> env)
      [] p.Plan.cp_params args

let reference_sync spec (fn : Ast.fn_spec) env =
  match fn.Ast.f_sync with
  | Ast.Sync | Ast.Sync_on _ -> true
  | Ast.Async -> false
  | Ast.Sync_if { cond_param; cond_const } -> (
      let v =
        match int_of_string_opt cond_const with
        | Some v -> v
        | None -> Option.get (Ast.find_constant spec cond_const)
      in
      match List.assoc_opt cond_param env with
      | Some x -> x = v
      | None -> true)

let reference_estimate env e =
  match Ast.eval_expr env e with Ok v -> Stdlib.max 0 v | Error _ -> 0

let reference_cost (fn : Ast.fn_spec) env =
  match List.assoc_opt "device_time" fn.Ast.f_resources with
  | Some e -> float_of_int (Stdlib.max 1 (reference_estimate env e))
  | None -> (
      match List.assoc_opt "bus_bytes" fn.Ast.f_resources with
      | Some e -> float_of_int (Stdlib.max 1 (reference_estimate env e / 64))
      | None -> 1.0)

(* Does every positional query on [fn] answer as the by-name reference
   does for the argument vector [args]? *)
let agrees spec plan (fn : Ast.fn_spec) args =
  let p = Option.get (Plan.find plan fn.Ast.f_name) in
  let env = reference_env p args in
  Plan.is_sync p ~to_int:Fun.id args = reference_sync spec fn env
  && List.for_all
       (fun (name, e) ->
         Plan.resource_estimate p ~to_int:Fun.id args name
         = Some (reference_estimate env e))
       fn.Ast.f_resources
  && Plan.call_cost p ~to_int:Fun.id args = reference_cost fn env

(* Argument values: small ints (0, 1 and negatives included), wide ints,
   and arguments with no int value ([None]). *)
let arg_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map Option.some (int_range (-3) 3));
        (3, map Option.some (int_range (-100_000) 1_000_000));
        (1, return None);
      ])

(* Mostly vectors of the function's arity, sometimes of another one. *)
let args_gen arity =
  QCheck.Gen.(
    frequency
      [ (4, return arity); (1, int_range 0 (arity + 2)) ]
    >>= fun n -> list_repeat n arg_gen)

let print_args =
  QCheck.Print.(list (option int))

let builtin_specs =
  [
    ("simcl", Specs.load_simcl);
    ("mvnc", Specs.load_mvnc);
    ("qat", Specs.load_qat);
    ("simst", Specs.load_simst);
  ]

let differential_tests =
  List.map
    (fun (api, load) ->
      let spec = load () in
      let plan = Result.get_ok (Plan.compile spec) in
      (* One case draws a vector for every function of the spec. *)
      let gen =
        QCheck.Gen.flatten_l
          (List.map
             (fun (fn : Ast.fn_spec) ->
               QCheck.Gen.map
                 (fun args -> (fn, args))
                 (args_gen (List.length fn.Ast.f_params)))
             spec.Ast.fns)
      in
      let print cases =
        String.concat "\n"
          (List.map
             (fun ((fn : Ast.fn_spec), args) ->
               fn.Ast.f_name ^ " " ^ print_args args)
             cases)
      in
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:(api ^ ": positional queries match by-name reference")
           ~count:500 (QCheck.make ~print gen)
           (List.for_all (fun (fn, args) -> agrees spec plan fn args))))
    builtin_specs

(* Random expressions over a mixed signature: names that are scalar,
   a handle, a buffer, and unknown, under every operator. *)
let mixed_params =
  let param p_name p_kind =
    {
      Ast.p_name;
      p_type = Ast.Int { signed = true; bits = 32 };
      p_direction = Ast.In;
      p_kind;
      p_deallocates = false;
      p_target = false;
    }
  in
  [
    param "a" Ast.Scalar;
    param "h" Ast.Handle;
    param "b" Ast.Scalar;
    param "buf" (Ast.Buffer { len = Ast.Param "a"; elem_size = 4 });
    param "c" Ast.Scalar;
  ]

let mixed_expr_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun c -> Ast.Const c) (int_range (-4) 20);
        map (fun n -> Ast.Param n) (oneofl [ "a"; "b"; "c"; "h"; "buf"; "zz" ]);
      ]
  in
  sized_size (int_bound 6)
    (fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map2 (fun a b -> Ast.Add (a, b)) sub sub;
               map2 (fun a b -> Ast.Sub (a, b)) sub sub;
               map2 (fun a b -> Ast.Mul (a, b)) sub sub;
               map2 (fun a b -> Ast.Div (a, b)) sub sub;
             ]))

let mixed_fn (e, cond_param) =
  {
    Ast.f_name = "mixed";
    f_ret = Ast.Void;
    f_params = mixed_params;
    f_sync = Ast.Sync_if { cond_param; cond_const = "1" };
    f_stream = None;
    f_record = Ast.No_record;
    f_resources = [ ("device_time", e); ("bus_bytes", e) ];
    f_inferred = [];
    f_unresolved = [];
  }

let mixed_expr_test =
  let gen =
    QCheck.Gen.(
      triple mixed_expr_gen
        (oneofl [ "a"; "b"; "h"; "zz" ])
        (args_gen (List.length mixed_params)))
  in
  let print (e, cond, args) =
    Printf.sprintf "%s sync_if %s: %s" (Ast.expr_to_string e) cond
      (print_args args)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random expressions match by-name reference"
       ~count:2000 (QCheck.make ~print gen)
       (fun (e, cond, args) ->
         let fn = mixed_fn (e, cond) in
         let spec =
           {
             Ast.api_name = "mixed";
             includes = [];
             constants = [];
             types = [];
             fns = [ fn ];
           }
         in
         agrees spec (Result.get_ok (Plan.compile spec)) fn args))

let () =
  Alcotest.run "ava_codegen"
    [
      ("plan", plan_tests);
      ("posargs", differential_tests @ [ mixed_expr_test ]);
      ("emit", emit_tests);
      ("metrics", metrics_tests);
    ]
