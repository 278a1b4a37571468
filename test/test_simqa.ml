(* Tests for the SimQA (QuickAssist) silo and its auto-generated AvA
   remoting stack — the paper's §5 "next accelerator API", validated
   end-to-end here. *)

open Ava_sim
open Ava_simqa
open Ava_simqa.Types

let ok = function
  | Ok v -> v
  | Error s -> Alcotest.failf "unexpected status %s" (status_to_string s)

let check_err name expected = function
  | Ok _ -> Alcotest.failf "%s: expected %s" name (status_to_string expected)
  | Error s ->
      Alcotest.(check string) name
        (status_to_string expected)
        (status_to_string s)

let run_in_engine f =
  let e = Engine.create () in
  let result = ref None in
  Engine.spawn e (fun () -> result := Some (f e));
  Engine.run e;
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test program stalled"

let rle_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"rle roundtrips any payload" ~count:300
         QCheck.(string_of_size Gen.(0 -- 2048))
         (fun s ->
           let src = Bytes.of_string s in
           match Device.rle_decompress (Device.rle_compress src) with
           | Ok back -> Bytes.equal back src
           | Error `Corrupt -> false));
    Alcotest.test_case "repetitive data compresses" `Quick (fun () ->
        let src = Bytes.make 10_000 'x' in
        let out = Device.rle_compress src in
        Alcotest.(check bool) "much smaller" true (Bytes.length out < 100));
    Alcotest.test_case "corrupt stream rejected" `Quick (fun () ->
        match Device.rle_decompress (Bytes.of_string "odd") with
        | Error `Corrupt -> ()
        | Ok _ -> Alcotest.fail "accepted odd-length stream");
  ]

let native_tests =
  [
    Alcotest.test_case "session lifecycle and direction checks" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let api, st = Native.create (Device.create e) in
            let module QA = (val api) in
            Alcotest.(check int) "one instance" 1
              (ok (QA.qaGetNumInstances ()));
            let inst = ok (QA.qaStartInstance ~index:0) in
            check_err "bad index" Qa_invalid_param
              (QA.qaStartInstance ~index:7);
            let c = ok (QA.qaCreateSession inst Dir_compress ~level:5) in
            check_err "bad level" Qa_invalid_param
              (QA.qaCreateSession inst Dir_compress ~level:0);
            (* A compress session cannot decompress. *)
            check_err "wrong direction" Qa_unsupported
              (QA.qaDecompress c ~src:(Bytes.create 4));
            ok (QA.qaRemoveSession c);
            Alcotest.(check int) "sessions drained" 0
              (Native.live_sessions st);
            ok (QA.qaStopInstance inst)));
    Alcotest.test_case "offload timing scales with size" `Quick (fun () ->
        let run bytes =
          run_in_engine (fun e ->
              let api, _ = Native.create (Device.create e) in
              let module QA = (val api) in
              let inst = ok (QA.qaStartInstance ~index:0) in
              let s = ok (QA.qaCreateSession inst Dir_compress ~level:1) in
              ignore (ok (QA.qaCompress s ~src:(Bytes.create bytes)));
              Engine.now e)
        in
        Alcotest.(check bool) "4MB slower than 4KB" true
          (run (4 * 1024 * 1024) > 2 * run 4096));
  ]

let virtual_tests =
  [
    Alcotest.test_case "compress/decompress through the AvA stack" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Ava_core.Host.create_qa_host e in
            let guest = Ava_core.Host.add_qa_vm host ~name:"g0" in
            let module QA = (val guest.Ava_core.Host.qg_api) in
            let inst = ok (QA.qaStartInstance ~index:0) in
            let cs = ok (QA.qaCreateSession inst Dir_compress ~level:5) in
            let ds = ok (QA.qaCreateSession inst Dir_decompress ~level:5) in
            let payload =
              Bytes.concat Bytes.empty
                [ Bytes.make 500 'a'; Bytes.make 300 'b'; Bytes.make 700 'c' ]
            in
            let packed = ok (QA.qaCompress cs ~src:payload) in
            Alcotest.(check bool) "compressed smaller" true
              (Bytes.length packed < Bytes.length payload / 10);
            let unpacked = ok (QA.qaDecompress ds ~src:packed) in
            Alcotest.(check bytes) "roundtrip through two remoted ops"
              payload unpacked;
            let ops, bytes_in = ok (QA.qaGetStats inst) in
            Alcotest.(check int) "two device ops" 2 ops;
            Alcotest.(check bool) "bytes accounted" true (bytes_in > 1500)));
    Alcotest.test_case "virtual matches native output and near-native time"
      `Quick (fun () ->
        let payload = Bytes.make 1_000_000 'z' in
        let program (module QA : Api.S) =
          let inst = ok (QA.qaStartInstance ~index:0) in
          let s = ok (QA.qaCreateSession inst Dir_compress ~level:9) in
          let out = ref Bytes.empty in
          for _ = 1 to 10 do
            out := ok (QA.qaCompress s ~src:payload)
          done;
          !out
        in
        let native_out = ref Bytes.empty and virt_out = ref Bytes.empty in
        let t_native =
          run_in_engine (fun e ->
              let api, _ = Ava_core.Host.native_qa e in
              native_out := program api;
              Engine.now e)
        in
        let t_virt =
          run_in_engine (fun e ->
              let host = Ava_core.Host.create_qa_host e in
              let guest = Ava_core.Host.add_qa_vm host ~name:"g0" in
              virt_out := program guest.Ava_core.Host.qg_api;
              Engine.now e)
        in
        Alcotest.(check bytes) "same output" !native_out !virt_out;
        let rel = float_of_int t_virt /. float_of_int t_native in
        Alcotest.(check bool)
          (Printf.sprintf "overhead %.3f < 1.25" rel)
          true (rel < 1.25));
    Alcotest.test_case "isolation between QA guests" `Quick (fun () ->
        run_in_engine (fun e ->
            let host = Ava_core.Host.create_qa_host e in
            let g1 = Ava_core.Host.add_qa_vm host ~name:"g1" in
            let g2 = Ava_core.Host.add_qa_vm host ~name:"g2" in
            let module Q1 = (val g1.Ava_core.Host.qg_api) in
            let module Q2 = (val g2.Ava_core.Host.qg_api) in
            let inst = ok (Q1.qaStartInstance ~index:0) in
            match Q2.qaGetStats inst with
            | Ok _ -> Alcotest.fail "handle leaked across VMs"
            | Error _ -> ()));
    Alcotest.test_case "out-of-range handle reply fails" `Quick (fun () ->
        (* A fake qaStartInstance handler replies with a handle no native
           int holds: the guest library fails the call instead of
           handing back a wrapped id. *)
        let module Server = Ava_remoting.Server in
        let e = Engine.create () in
        let plan = (Ava_core.Host.create_qa_host e).Ava_core.Host.qa_plan in
        let guest_end, server_end = Ava_transport.Transport.direct e in
        let server = Server.create e ~plan ~make_state:(fun ~vm_id:_ -> ()) in
        Server.register server "qaStartInstance" (fun _ _ _ ->
            (0, Ava_remoting.Wire.Handle Int64.max_int, []));
        ignore (Server.attach_vm server ~vm_id:1 ~ep:server_end);
        let stub = Ava_remoting.Stub.create e ~vm_id:1 ~plan ~ep:guest_end in
        let module QA = (val Ava_core.Qa_remote.create stub) in
        check_err "wrapped handle" Qa_fail
          (Engine.run_process e (fun () -> QA.qaStartInstance ~index:0)));
  ]

let callback_tests =
  [
    Alcotest.test_case "native async submit delivers via callback" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let api, _ = Native.create (Device.create e) in
            let module QA = (val api) in
            let inst = ok (QA.qaStartInstance ~index:0) in
            let s = ok (QA.qaCreateSession inst Dir_compress ~level:5) in
            let results = ref [] in
            for tag = 1 to 3 do
              ok
                (QA.qaSubmitCompress s
                   ~src:(Bytes.make (1000 * tag) 'q')
                   ~tag
                   ~callback:(fun ~tag out -> results := (tag, out) :: !results))
            done;
            (* Callbacks fire as device completions; drain by waiting. *)
            Engine.delay (Time.ms 10);
            Alcotest.(check int) "three completions" 3 (List.length !results);
            List.iter
              (fun (tag, out) ->
                match Device.rle_decompress out with
                | Ok back ->
                    Alcotest.(check int)
                      (Printf.sprintf "tag %d size" tag)
                      (1000 * tag) (Bytes.length back)
                | Error `Corrupt -> Alcotest.fail "corrupt result")
              !results));
    Alcotest.test_case "upcalls cross the whole remoting stack" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Ava_core.Host.create_qa_host e in
            let guest = Ava_core.Host.add_qa_vm host ~name:"g0" in
            let module QA = (val guest.Ava_core.Host.qg_api) in
            let inst = ok (QA.qaStartInstance ~index:0) in
            let s = ok (QA.qaCreateSession inst Dir_compress ~level:5) in
            let payload = Bytes.make 5000 'u' in
            let results = ref [] in
            for tag = 10 to 12 do
              ok
                (QA.qaSubmitCompress s ~src:payload ~tag
                   ~callback:(fun ~tag out -> results := (tag, out) :: !results))
            done;
            Engine.delay (Time.ms 20);
            Alcotest.(check (list int))
              "all tags arrived" [ 10; 11; 12 ]
              (List.sort compare (List.map fst !results));
            (* Data round-trips through the upcall path bit-exactly. *)
            List.iter
              (fun (_, out) ->
                match Device.rle_decompress out with
                | Ok back -> Alcotest.(check bytes) "intact" payload back
                | Error `Corrupt -> Alcotest.fail "corrupt upcall payload")
              !results;
            let stub = Option.get guest.Ava_core.Host.qg_stub in
            Alcotest.(check int) "three upcalls" 3
              (Ava_remoting.Stub.upcalls_received stub)));
    Alcotest.test_case "submit on wrong-direction session fails eagerly"
      `Quick (fun () ->
        run_in_engine (fun e ->
            let host = Ava_core.Host.create_qa_host e in
            let guest = Ava_core.Host.add_qa_vm host ~name:"g0" in
            let module QA = (val guest.Ava_core.Host.qg_api) in
            let inst = ok (QA.qaStartInstance ~index:0) in
            let s = ok (QA.qaCreateSession inst Dir_decompress ~level:5) in
            (* qaSubmitCompress is async: the direction error arrives
               deferred, at the next synchronous call. *)
            (match
               QA.qaSubmitCompress s ~src:(Bytes.create 16) ~tag:1
                 ~callback:(fun ~tag:_ _ -> ())
             with
            | Ok () -> ()
            | Error _ -> ());
            Engine.delay (Time.ms 1);
            match QA.qaGetStats inst with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "direction error was lost"));
  ]

let struct_tests =
  [
    Alcotest.test_case "struct typedef parsed and inferred" `Quick (fun () ->
        let h =
          Result.get_ok (Ava_spec.Cheader.parse Ava_spec.Specs.qat_header)
        in
        (match Ava_spec.Cheader.find_struct h "qaStatsEx" with
        | Some fields ->
            Alcotest.(check (list string))
              "fields" [ "ops"; "bytes_in"; "bytes_out" ]
              (List.map fst fields)
        | None -> Alcotest.fail "qaStatsEx not parsed");
        let d = Option.get (Ava_spec.Cheader.find_decl h "qaGetStatsEx") in
        let prelim = Ava_spec.Infer.preliminary h d in
        let stats =
          List.find
            (fun p -> p.Ava_spec.Ast.p_name = "stats")
            prelim.Ava_spec.Ast.f_params
        in
        match stats.Ava_spec.Ast.p_kind with
        | Ava_spec.Ast.Struct_ptr { fields } ->
            Alcotest.(check int) "3 fields" 3 (List.length fields);
            Alcotest.(check bool) "out direction" true
              (stats.Ava_spec.Ast.p_direction = Ava_spec.Ast.Out)
        | _ -> Alcotest.fail "stats not inferred as struct");
    Alcotest.test_case "struct result crosses the remoting stack" `Quick
      (fun () ->
        run_in_engine (fun e ->
            let host = Ava_core.Host.create_qa_host e in
            let guest = Ava_core.Host.add_qa_vm host ~name:"g0" in
            let module QA = (val guest.Ava_core.Host.qg_api) in
            let inst = ok (QA.qaStartInstance ~index:0) in
            let s = ok (QA.qaCreateSession inst Dir_compress ~level:1) in
            let payload = Bytes.make 10_000 'm' in
            let packed = ok (QA.qaCompress s ~src:payload) in
            let se = ok (QA.qaGetStatsEx inst) in
            Alcotest.(check int) "ops" 1 se.se_ops;
            Alcotest.(check int) "bytes in" 10_000 se.se_bytes_in;
            Alcotest.(check int) "bytes out" (Bytes.length packed)
              se.se_bytes_out;
            (* Matches the two-field legacy call. *)
            let ops, bytes_in = ok (QA.qaGetStats inst) in
            Alcotest.(check int) "consistent ops" ops se.se_ops;
            Alcotest.(check int) "consistent bytes" bytes_in se.se_bytes_in));
  ]

let spec_tests =
  [
    Alcotest.test_case "qat spec is valid and compiles" `Quick (fun () ->
        let spec = Ava_spec.Specs.load_qat () in
        Alcotest.(check int) "10 functions" 10
          (List.length spec.Ava_spec.Ast.fns);
        Alcotest.(check (list string)) "no issues" []
          (List.map
             (fun i -> Fmt.str "%a" Ava_spec.Validate.pp_issue i)
             (Ava_spec.Validate.check spec));
        match Ava_codegen.Plan.compile spec with
        | Ok plan ->
            Alcotest.(check int) "plan functions" 10
              (Ava_codegen.Plan.function_count plan)
        | Error e -> Alcotest.failf "plan: %s" e);
    Alcotest.test_case "generated artifacts cover the API" `Quick (fun () ->
        let art = Ava_codegen.Emit_c.generate (Ava_spec.Specs.load_qat ()) in
        Alcotest.(check bool) "nontrivial" true
          (art.Ava_codegen.Emit_c.art_total_loc > 100));
  ]

let () =
  Alcotest.run "ava_simqa"
    [
      ("rle", rle_tests);
      ("native", native_tests);
      ("virtual", virtual_tests);
      ("callbacks", callback_tests);
      ("structs", struct_tests);
      ("spec", spec_tests);
    ]
