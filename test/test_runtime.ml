(* Tests for the run-time engine and the injection campaign. *)

module Spec = Thr_hls.Spec
module Copy = Thr_hls.Copy
module Binding = Thr_hls.Binding
module Design = Thr_hls.Design
module Catalog = Thr_iplib.Catalog
module Engine = Thr_runtime.Engine
module Campaign = Thr_runtime.Campaign
module Trojan = Thr_trojan.Trojan
module Eval = Thr_dfg.Eval
module Suite = Thr_benchmarks.Suite
module LS = Thr_opt.License_search

let design_for ?(dfg = Suite.motivational ()) ?(catalog = Catalog.table1)
    ?(latency_detect = 4) ?(latency_recover = 3) ?(area = 40_000) () =
  let spec =
    Spec.make ~dfg ~catalog ~latency_detect ~latency_recover ~area_limit:area ()
  in
  match LS.search spec with
  | LS.Solved { design; _ }, _ -> design
  | _ -> Alcotest.fail "no design"

let env_for design value =
  List.map (fun i -> (i, value)) (Thr_dfg.Dfg.inputs design.Design.spec.Spec.dfg)

(* an injection whose combinational trigger matches exactly what NC op
   [op] computes on [env] *)
let injection_for design env op =
  let spec = design.Design.spec in
  let dfg = spec.Spec.dfg in
  let golden = Eval.run dfg env in
  let a, b = Eval.operand_values dfg env golden op in
  let nc = Copy.index spec { Copy.op; phase = Copy.NC } in
  {
    Engine.inj_vendor = Binding.vendor design.Design.binding nc;
    inj_type = Spec.iptype_of_op spec op;
    trojan =
      Trojan.make
        (Trojan.Combinational
           { a_pattern = a land 0xFFFFFF; b_pattern = b land 0xFFFFFF; mask = 0xFFFFFF })
        (Trojan.Xor_offset 0x5A5A);
  }

let test_clean_run () =
  let design = design_for () in
  let env = env_for design 3 in
  let v = Engine.run design env in
  Alcotest.(check bool) "no detection" false v.Engine.detected;
  Alcotest.(check bool) "nc correct" true v.Engine.nc_correct;
  Alcotest.(check bool) "no recovery" false v.Engine.recovery_ran;
  Alcotest.(check int) "detection cycles only" 4 v.Engine.cycles

let test_injected_detected_and_recovered () =
  let design = design_for () in
  let env = env_for design 5 in
  let inj = injection_for design env 3 in
  let v = Engine.run ~injections:[ inj ] design env in
  Alcotest.(check bool) "detected" true v.Engine.detected;
  Alcotest.(check bool) "nc corrupted" false v.Engine.nc_correct;
  Alcotest.(check bool) "recovery ran" true v.Engine.recovery_ran;
  Alcotest.(check bool) "recovery correct" true v.Engine.recovery_correct;
  Alcotest.(check int) "both phases" 7 v.Engine.cycles;
  (match v.Engine.detection_latency with
  | Some l -> Alcotest.(check bool) "latency within window" true (l >= 1 && l <= 4)
  | None -> Alcotest.fail "latency should be known")

let test_naive_reexecution_fails () =
  (* the paper's fault model: re-executing the same binding keeps the
     trigger condition valid, so the error persists *)
  let design = design_for () in
  let env = env_for design 5 in
  let inj = injection_for design env 3 in
  let v = Engine.run_without_rebinding ~injections:[ inj ] design env in
  Alcotest.(check bool) "detected" true v.Engine.detected;
  Alcotest.(check bool) "naive recovery fails" false v.Engine.recovery_correct

let test_latched_payload_not_recovered () =
  let design = design_for () in
  let env = env_for design 5 in
  let inj = injection_for design env 3 in
  let golden = Eval.run design.Design.spec.Spec.dfg env in
  let a, b = Eval.operand_values design.Design.spec.Spec.dfg env golden 3 in
  let latched =
    {
      inj with
      Engine.trojan =
        Trojan.make
          (Trojan.Combinational
             { a_pattern = a land 0xFFFF; b_pattern = b land 0xFFFF; mask = 0xFFFF })
          (Trojan.Latched 0x77);
    }
  in
  let v = Engine.run ~injections:[ latched ] design env in
  Alcotest.(check bool) "detected" true v.Engine.detected;
  Alcotest.(check bool) "latched payload defeats re-binding" false
    v.Engine.recovery_correct

let test_rc_only_infection_detected () =
  (* infect the vendor executing RC copy of op 4 but not its NC vendor *)
  let design = design_for () in
  let spec = design.Design.spec in
  let env = env_for design 5 in
  let golden = Eval.run spec.Spec.dfg env in
  let a, b = Eval.operand_values spec.Spec.dfg env golden 4 in
  let rc = Copy.index spec { Copy.op = 4; phase = Copy.RC } in
  let inj =
    {
      Engine.inj_vendor = Binding.vendor design.Design.binding rc;
      inj_type = Spec.iptype_of_op spec 4;
      trojan =
        Trojan.make
          (Trojan.Combinational
             { a_pattern = a land 0xFFFF; b_pattern = b land 0xFFFF; mask = 0xFFFF })
          (Trojan.Xor_offset 0x1111);
    }
  in
  let v = Engine.run ~injections:[ inj ] design env in
  Alcotest.(check bool) "detected via RC" true v.Engine.detected;
  Alcotest.(check bool) "nc still correct" true v.Engine.nc_correct;
  Alcotest.(check bool) "recovery correct" true v.Engine.recovery_correct

let test_rule1_diversity_guarantees_detection () =
  (* a single infected vendor can never corrupt NC and RC of the same op
     identically, because rule 1 forbids sharing the vendor *)
  let design = design_for () in
  let spec = design.Design.spec in
  for op = 0 to Thr_dfg.Dfg.n_ops spec.Spec.dfg - 1 do
    let nc = Copy.index spec { Copy.op; phase = Copy.NC } in
    let rc = Copy.index spec { Copy.op; phase = Copy.RC } in
    Alcotest.(check bool) "NC/RC vendors differ" false
      (Thr_iplib.Vendor.equal
         (Binding.vendor design.Design.binding nc)
         (Binding.vendor design.Design.binding rc))
  done

let test_invalid_design_rejected () =
  let design = design_for () in
  let vendors = Binding.vendors design.Design.binding in
  vendors.(5) <- vendors.(0);
  let bad =
    Design.make design.Design.spec design.Design.schedule
      (Binding.make design.Design.spec vendors)
  in
  let env = env_for design 1 in
  (match Engine.run bad env with
  | _ -> Alcotest.fail "should reject invalid design"
  | exception Invalid_argument _ -> ())

let test_sequential_trojan_in_engine () =
  (* threshold-1 sequential trigger behaves like combinational here *)
  let design = design_for () in
  let env = env_for design 6 in
  let spec = design.Design.spec in
  let golden = Eval.run spec.Spec.dfg env in
  let a, b = Eval.operand_values spec.Spec.dfg env golden 2 in
  let nc = Copy.index spec { Copy.op = 2; phase = Copy.NC } in
  let inj =
    {
      Engine.inj_vendor = Binding.vendor design.Design.binding nc;
      inj_type = Spec.iptype_of_op spec 2;
      trojan =
        Trojan.make
          (Trojan.Sequential
             {
               a_pattern = a land 0xFFFF;
               b_pattern = b land 0xFFFF;
               mask = 0xFFFF;
               threshold = 1;
             })
          (Trojan.Xor_offset 0xF0F0);
    }
  in
  let v = Engine.run ~injections:[ inj ] design env in
  Alcotest.(check bool) "detected" true v.Engine.detected

(* ---------------------------- streaming ---------------------------- *)

(* copies executed by each core instance of a licence, for picking
   thresholds that span frame boundaries *)
let max_copies_on_licence design vendor ty =
  let spec = design.Design.spec in
  let assignment =
    Binding.instance_assignment spec design.Design.schedule design.Design.binding
  in
  let counts = Hashtbl.create 8 in
  Array.iteri
    (fun idx inst ->
      let c = Copy.of_index spec idx in
      let v = Binding.vendor design.Design.binding idx in
      let t = Spec.iptype_of_op spec c.Copy.op in
      if Thr_iplib.Vendor.equal v vendor && t = ty then begin
        let cur = Option.value ~default:0 (Hashtbl.find_opt counts inst) in
        Hashtbl.replace counts inst (cur + 1)
      end)
    assignment;
  Hashtbl.fold (fun _ c acc -> max c acc) counts 0

let test_stream_counter_crosses_frames () =
  (* a counter trigger that cannot fire within one frame fires on the
     second identical frame — only with persistent session state *)
  let design = design_for () in
  let spec = design.Design.spec in
  let env = env_for design 5 in
  (* infect the multiplier licence executing NC#0 with an always-matching
     trigger whose threshold exceeds one frame's worth of operations *)
  let nc0 = Copy.index spec { Copy.op = 0; phase = Copy.NC } in
  let vendor = Binding.vendor design.Design.binding nc0 in
  let ty = Spec.iptype_of_op spec 0 in
  let per_frame = max_copies_on_licence design vendor ty in
  let inj =
    {
      Engine.inj_vendor = vendor;
      inj_type = ty;
      trojan =
        Trojan.make
          (Trojan.Sequential
             { a_pattern = 0; b_pattern = 0; mask = 0; threshold = per_frame + 1 })
          (Trojan.Xor_offset 0x0F);
    }
  in
  (* fresh state every frame: never reaches the threshold *)
  let fresh = Engine.run ~injections:[ inj ] design env in
  Alcotest.(check bool) "single frame silent" false fresh.Engine.detected;
  (* streaming: the counter survives the frame boundary *)
  match Engine.run_stream ~injections:[ inj ] design [ env; env; env ] with
  | [ f1; f2; _ ] ->
      Alcotest.(check bool) "frame 1 silent" false f1.Engine.detected;
      Alcotest.(check bool) "frame 2 fires" true f2.Engine.detected
  | _ -> Alcotest.fail "three verdicts expected"

let test_stream_rule2_uniform_workload () =
  (* Under a uniform workload every multiplication sees the same operands,
     so an infected multiplier re-bound to a *different* multiplication
     still triggers — unless recovery Rule 2 declares the mul pairs
     closely related, which drives the recovery binding off every
     detection multiplier vendor. *)
  let dfg = Suite.motivational () in
  let uniform = List.map (fun i -> (i, 9)) (Thr_dfg.Dfg.inputs dfg) in
  let solve closely_related =
    let spec =
      Spec.make ~closely_related ~dfg ~catalog:Catalog.eight_vendors
        ~latency_detect:4 ~latency_recover:3 ~area_limit:100_000 ()
    in
    match LS.search spec with
    | LS.Solved { design; _ }, _ -> design
    | _ -> Alcotest.fail "no design"
  in
  let mul_pairs = [ (0, 2); (0, 4); (2, 4) ] in
  let protected = solve mul_pairs in
  (* trigger = the uniform multiplier operand pattern (9, 9) *)
  let inject design op =
    let spec = design.Design.spec in
    let nc = Copy.index spec { Copy.op; phase = Copy.NC } in
    {
      Engine.inj_vendor = Binding.vendor design.Design.binding nc;
      inj_type = Spec.iptype_of_op spec op;
      trojan =
        Trojan.make
          (Trojan.Combinational { a_pattern = 9; b_pattern = 9; mask = 0xFFFF })
          (Trojan.Xor_offset 0x33);
    }
  in
  (* with Rule 2 in force, recovery is guaranteed for every infected
     multiplier vendor: no detection-phase mul vendor executes in RV *)
  List.iter
    (fun op ->
      let v = Engine.run ~injections:[ inject protected op ] protected uniform in
      Alcotest.(check bool)
        (Printf.sprintf "op %d detected" op)
        true v.Engine.detected;
      Alcotest.(check bool)
        (Printf.sprintf "op %d recovered under Rule 2" op)
        true v.Engine.recovery_correct)
    [ 0; 2; 4 ]

(* ---------------------------- campaign ---------------------------- *)

(* a missing input read by the DFG is rejected before any copy executes,
   naming the first unbound input the golden model reads *)
let test_engine_missing_input () =
  let design = design_for () in
  let env = List.tl (env_for design 3) in
  let missing = List.hd (Thr_dfg.Dfg.inputs design.Design.spec.Spec.dfg) in
  Alcotest.check_raises "missing"
    (Invalid_argument (Printf.sprintf "Eval: missing input %S" missing))
    (fun () -> ignore (Engine.run design env))

let test_campaign_fir16 () =
  let design =
    design_for ~dfg:(Suite.fir16 ()) ~catalog:Catalog.eight_vendors
      ~latency_detect:7 ~latency_recover:5 ~area:300_000 ()
  in
  let prng = Thr_util.Prng.create ~seed:1 in
  let config = { Campaign.default_config with n_runs = 100 } in
  let r = Campaign.run ~config ~prng design in
  Alcotest.(check int) "all runs counted" 100 r.Campaign.runs;
  Alcotest.(check bool) "most trojans activate" true (r.Campaign.activated >= 90);
  (* fir16 has no masking ops: every activation must be detected *)
  Alcotest.(check int) "every activation detected" r.Campaign.activated
    r.Campaign.detected;
  Alcotest.(check bool) "re-binding recovers (paper)" true
    (r.Campaign.rebind_recovered > 0);
  Alcotest.(check bool) "re-binding beats naive" true
    (r.Campaign.rebind_recovered > r.Campaign.naive_recovered);
  Alcotest.(check bool) "latency positive" true
    (r.Campaign.mean_detection_latency > 0.0)

let test_campaign_deterministic () =
  let design = design_for () in
  let run seed =
    Campaign.run
      ~config:{ Campaign.default_config with n_runs = 50 }
      ~prng:(Thr_util.Prng.create ~seed) design
  in
  Alcotest.(check bool) "same seed same result" true (run 7 = run 7);
  ignore (run 8)

let test_campaign_parallel_reproducible () =
  (* jobs>1 uses per-trial split generators: the tally must not depend on
     domain scheduling, only on the seed (and still catch every
     activation) *)
  let design = design_for () in
  let run () =
    Campaign.run
      ~config:{ Campaign.default_config with n_runs = 50 }
      ~jobs:2
      ~prng:(Thr_util.Prng.create ~seed:7)
      design
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed same result" true (a = b);
  Alcotest.(check int) "all runs counted" 50 a.Campaign.runs;
  Alcotest.(check int) "every activation detected" a.Campaign.activated
    a.Campaign.detected

let test_campaign_requires_recovery_mode () =
  let spec =
    Spec.make ~mode:Spec.Detection_only ~dfg:(Suite.motivational ())
      ~catalog:Catalog.table1 ~latency_detect:4 ~area_limit:40_000 ()
  in
  match LS.search spec with
  | LS.Solved { design; _ }, _ ->
      Alcotest.check_raises "rejected"
        (Invalid_argument "Campaign.run: design must include recovery") (fun () ->
          ignore
            (Campaign.run ~prng:(Thr_util.Prng.create ~seed:1) design))
  | _ -> Alcotest.fail "no design"

let () =
  Alcotest.run "runtime"
    [
      ( "engine",
        [
          Alcotest.test_case "clean run" `Quick test_clean_run;
          Alcotest.test_case "inject/detect/recover" `Quick
            test_injected_detected_and_recovered;
          Alcotest.test_case "naive re-execution fails" `Quick
            test_naive_reexecution_fails;
          Alcotest.test_case "latched not recovered" `Quick
            test_latched_payload_not_recovered;
          Alcotest.test_case "RC-only infection" `Quick test_rc_only_infection_detected;
          Alcotest.test_case "rule1 diversity" `Quick
            test_rule1_diversity_guarantees_detection;
          Alcotest.test_case "invalid design rejected" `Quick
            test_invalid_design_rejected;
          Alcotest.test_case "sequential trojan" `Quick test_sequential_trojan_in_engine;
          Alcotest.test_case "missing input" `Quick test_engine_missing_input;
        ] );
      ( "streaming",
        [
          Alcotest.test_case "counter crosses frames" `Quick
            test_stream_counter_crosses_frames;
          Alcotest.test_case "rule 2 under uniform workload" `Quick
            test_stream_rule2_uniform_workload;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "fir16 campaign" `Slow test_campaign_fir16;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "parallel reproducible" `Quick
            test_campaign_parallel_reproducible;
          Alcotest.test_case "requires recovery mode" `Quick
            test_campaign_requires_recovery_mode;
        ] );
    ]
