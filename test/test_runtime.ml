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

(* ------------------------------ oracles ------------------------------ *)

(* The engine as it was before it split into a per-design plan and a
   per-frame kernel: a Hashtbl of cores keyed by (vendor id, type,
   instance), a Design.validate per session and step-sorted copy lists
   per frame.  Every verdict of the engine must equal this one's. *)
module Engine_oracle = struct
  module Dfg = Thr_dfg.Dfg
  module Eval = Thr_dfg.Eval
  module Op = Thr_dfg.Op
  module Spec = Thr_hls.Spec
  module Copy = Thr_hls.Copy
  module Schedule = Thr_hls.Schedule
  module Binding = Thr_hls.Binding
  module Design = Thr_hls.Design
  module Vendor = Thr_iplib.Vendor
  module Iptype = Thr_iplib.Iptype
  module Trojan = Thr_trojan.Trojan
  module Journal = Thr_obs.Journal

  type injection = Engine.injection = {
    inj_vendor : Vendor.t;
    inj_type : Iptype.t;
    trojan : Trojan.t;
  }

  type verdict = Engine.verdict = {
    detected : bool;
    nc_correct : bool;
    recovery_ran : bool;
    recovery_correct : bool;
    cycles : int;
    detection_latency : int option;
  }

  (* Per-core-instance execution context: the Trojan (if the licence is
     infected) and this instance's private trigger state. *)
  type core = { trojan : (Trojan.t * Trojan.state) option }

  let find_injection injections v ty =
    List.find_opt
      (fun inj -> Vendor.equal inj.inj_vendor v && Iptype.equal inj.inj_type ty)
      injections

  let make_cores design injections =
    (* one core per (vendor, type, instance index) actually used *)
    let tbl = Hashtbl.create 32 in
    let spec = design.Design.spec in
    let assignment = Binding.instance_assignment spec design.Design.schedule design.Design.binding in
    Array.iteri
      (fun idx inst_no ->
        let c = Copy.of_index spec idx in
        let v = Binding.vendor design.Design.binding idx in
        let ty = Spec.iptype_of_op spec c.Copy.op in
        let key = (Vendor.id v, Iptype.to_index ty, inst_no) in
        if not (Hashtbl.mem tbl key) then begin
          let trojan =
            match find_injection injections v ty with
            | None -> None
            | Some inj -> Some (inj.trojan, Trojan.fresh_state inj.trojan)
          in
          Hashtbl.add tbl key { trojan }
        end)
      assignment;
    (tbl, assignment)

  (* Execute one copy on its core, mutating the phase's value array.
     Operands come from the environment's resolved input [row]. *)
  let execute_copy dfg prog row cores assignment spec binding values idx =
    let c = Copy.of_index spec idx in
    let op = c.Copy.op in
    let a = Eval.read prog row values op 0 in
    let b = Eval.read prog row values op 1 in
    let clean = Op.eval (Dfg.kind dfg op) a b in
    let v = Binding.vendor binding idx in
    let ty = Spec.iptype_of_op spec op in
    let key = (Vendor.id v, Iptype.to_index ty, assignment.(idx)) in
    let core = Hashtbl.find cores key in
    let out =
      match core.trojan with
      | None -> clean
      | Some (trojan, state) -> Trojan.apply trojan state ~a ~b ~clean
    in
    values.(op) <- out

  let outputs_equal dfg golden values =
    List.for_all (fun o -> golden.(o) = values.(o)) (Dfg.outputs dfg)

  let copies_by_step spec schedule phase =
    let n = Dfg.n_ops spec.Spec.dfg in
    List.init n (fun op -> Copy.index spec { Copy.op; phase })
    |> List.sort (fun a b ->
           Stdlib.compare (Schedule.step schedule a, a) (Schedule.step schedule b, b))

  type session = {
    s_design : Design.t;
    s_cores : (int * int * int, core) Hashtbl.t;
    s_assignment : int array;
    s_program : Eval.program;
  }

  let create_session ?(injections = []) design =
    (match Design.validate design with
    | [] -> ()
    | problems ->
        invalid_arg
          (Printf.sprintf "Engine.run: invalid design (%s)" (List.hd problems)));
    let cores, assignment = make_cores design injections in
    {
      s_design = design;
      s_cores = cores;
      s_assignment = assignment;
      s_program = Eval.compile design.Design.spec.Spec.dfg;
    }

  let run_phases ~recovery_copies session env =
    let design = session.s_design in
    let spec = design.Design.spec in
    let dfg = spec.Spec.dfg in
    let prog = session.s_program in
    (* one resolution per frame: the golden model and every copy read it *)
    let row = Eval.bind prog env in
    let golden = Eval.exec prog row in
    let cores = session.s_cores and assignment = session.s_assignment in
    let n = Dfg.n_ops dfg in
    let nc = Array.make n 0 and rc = Array.make n 0 in
    let exec values idx =
      execute_copy dfg prog row cores assignment spec design.Design.binding values
        idx
    in
    (* detection phase: interleave NC and RC in scheduled step order so that
       per-instance operand streams are cycle-faithful *)
    let det_copies =
      copies_by_step spec design.Design.schedule Copy.NC
      @ copies_by_step spec design.Design.schedule Copy.RC
      |> List.sort (fun a b ->
             Stdlib.compare (Schedule.step design.Design.schedule a, a)
               (Schedule.step design.Design.schedule b, b))
    in
    List.iter
      (fun idx ->
        let c = Copy.of_index spec idx in
        let values = match c.Copy.phase with Copy.NC -> nc | _ -> rc in
        exec values idx)
      det_copies;
    let detected = not (outputs_equal dfg nc rc) || not (Array.for_all2 ( = ) nc rc) in
    (* the comparator in hardware checks the computation outputs; comparing
       all per-op results as well gives the diagnostic latency below *)
    let detected_hw = not (outputs_equal dfg nc rc) in
    let detection_latency =
      if not detected then None
      else begin
        let best = ref max_int in
        for op = 0 to n - 1 do
          if nc.(op) <> rc.(op) then begin
            let s_nc =
              Schedule.step design.Design.schedule (Copy.index spec { Copy.op; phase = NC })
            in
            let s_rc =
              Schedule.step design.Design.schedule (Copy.index spec { Copy.op; phase = RC })
            in
            let ready = max s_nc s_rc in
            if ready < !best then best := ready
          end
        done;
        if !best = max_int then None else Some !best
      end
    in
    let nc_correct = outputs_equal dfg golden nc in
    let run_recovery = detected_hw && recovery_copies <> None in
    let recovery_correct =
      if not run_recovery then false
      else begin
        let rv = Array.make n 0 in
        let copies = match recovery_copies with Some c -> c | None -> [] in
        List.iter (exec rv) copies;
        outputs_equal dfg golden rv
      end
    in
    let cycles =
      spec.Spec.latency_detect
      + (if run_recovery then spec.Spec.latency_recover else 0)
    in
    (* mirror the behavioural run into the runtime journal; guarded here so
       the disabled cost stays one atomic load for the whole frame *)
    if Journal.enabled () then begin
      if detected_hw then
        Journal.emit
          ~cycle:(Option.value detection_latency ~default:spec.Spec.latency_detect)
          ~ctx:[ ("engine", "behavioural"); ("design", Dfg.name dfg) ]
          Journal.Mismatch_detected;
      if run_recovery then begin
        Journal.emit
          ~cycle:(spec.Spec.latency_detect + 1)
          ~ctx:[ ("engine", "behavioural") ]
          Journal.Recovery_started;
        Journal.emit ~cycle:cycles
          ~ctx:[ ("latency_cycles", string_of_int spec.Spec.latency_recover) ]
          (if recovery_correct then Journal.Recovery_ok
           else Journal.Recovery_failed)
      end
    end;
    {
      detected = detected_hw;
      nc_correct;
      recovery_ran = run_recovery;
      recovery_correct;
      cycles;
      detection_latency;
    }

  let recovery_copies_of design =
    let spec = design.Design.spec in
    match spec.Spec.mode with
    | Spec.Detection_only -> None
    | Spec.Detection_and_recovery ->
        Some (copies_by_step spec design.Design.schedule Copy.RV)

  let run_frame session env =
    run_phases ~recovery_copies:(recovery_copies_of session.s_design) session env

  let run ?injections design env =
    run_frame (create_session ?injections design) env

  let run_stream ?injections design envs =
    let session = create_session ?injections design in
    List.map (run_frame session) envs

  let run_without_rebinding ?injections design env =
    (* naive recovery: replay the NC copies on the same cores *)
    let spec = design.Design.spec in
    let recovery_copies = Some (copies_by_step spec design.Design.schedule Copy.NC) in
    run_phases ~recovery_copies (create_session ?injections design) env
end

(* Campaign trials driven by [Engine_oracle], in the trial's historical
   draw order. *)
module Campaign_oracle = struct
  module Dfg = Thr_dfg.Dfg
  module Prng = Thr_util.Prng
  module Journal = Thr_obs.Journal

  let random_env config prng dfg =
    List.map
      (fun nm -> (nm, Prng.int_in prng config.Campaign.input_lo config.Campaign.input_hi))
      (Dfg.inputs dfg)

  let instance_stream design env idx =
    let spec = design.Design.spec in
    let dfg = spec.Spec.dfg in
    let golden = Eval.run dfg env in
    let assignment =
      Binding.instance_assignment spec design.Design.schedule design.Design.binding
    in
    let key_of i =
      let c = Copy.of_index spec i in
      ( Thr_iplib.Vendor.id (Binding.vendor design.Design.binding i),
        Thr_iplib.Iptype.to_index (Spec.iptype_of_op spec c.Copy.op),
        assignment.(i) )
    in
    let target = key_of idx in
    let detection_copies =
      List.filter
        (fun i -> Copy.in_detection (Copy.of_index spec i) && key_of i = target)
        (List.init (Copy.count spec) (fun i -> i))
      |> List.sort (fun a b ->
             Stdlib.compare
               (Thr_hls.Schedule.step design.Design.schedule a, a)
               (Thr_hls.Schedule.step design.Design.schedule b, b))
    in
    List.map
      (fun i ->
        let c = Copy.of_index spec i in
        (i, Eval.operand_values dfg env golden c.Copy.op))
      detection_copies

  let consecutive_matches stream mask idx =
    match List.assoc_opt idx stream with
    | None -> 0
    | Some (a0, b0) ->
        let pa = a0 land mask and pb = b0 land mask in
        let best = ref 0 and cur = ref 0 in
        List.iter
          (fun (_, (a, b)) ->
            if a land mask = pa && b land mask = pb then begin
              incr cur;
              if !cur > !best then best := !cur
            end
            else cur := 0)
          stream;
        !best

  (* the trial's draws: environment, infected op, trigger class and
     threshold, payload class and mask *)
  let draw config design prng =
    let spec = design.Design.spec in
    let dfg = spec.Spec.dfg in
    let n = Dfg.n_ops dfg in
    let env = random_env config prng dfg in
    let golden = Eval.run dfg env in
    let op = Prng.int prng n in
    let nc_idx = Copy.index spec { Copy.op; phase = Copy.NC } in
    let a, b = Eval.operand_values dfg env golden op in
    let mask = config.Campaign.mask in
    let a_pattern = a land mask and b_pattern = b land mask in
    let sequential = Prng.float prng 1.0 < config.Campaign.sequential_ratio in
    let trigger =
      if sequential then begin
        let stream = instance_stream design env nc_idx in
        let best = consecutive_matches stream mask nc_idx in
        let threshold = max 1 (min best 3) in
        Trojan.Sequential { a_pattern; b_pattern; mask; threshold }
      end
      else Trojan.Combinational { a_pattern; b_pattern; mask }
    in
    let latched = Prng.float prng 1.0 < config.Campaign.latched_ratio in
    let payload_mask = 1 + Prng.int prng 0xFFFF in
    let payload =
      if latched then Trojan.Latched payload_mask else Trojan.Xor_offset payload_mask
    in
    let injection =
      {
        Engine.inj_vendor = Binding.vendor design.Design.binding nc_idx;
        inj_type = Spec.iptype_of_op spec op;
        trojan = Trojan.make trigger payload;
      }
    in
    (env, injection, sequential, latched)

  (* (activated, detected, rebind, naive, latched, latched_rec, latency) *)
  let trial config design prng =
    let spec = design.Design.spec in
    let env, injection, sequential, latched = draw config design prng in
    let verdict = Engine_oracle.run ~injections:[ injection ] design env in
    let naive =
      Engine_oracle.run_without_rebinding ~injections:[ injection ] design env
    in
    let was_activated = verdict.Engine.detected || not verdict.Engine.nc_correct in
    let det = was_activated && verdict.Engine.detected in
    let recovered =
      det && verdict.Engine.recovery_ran && verdict.Engine.recovery_correct
    in
    let cls =
      (if sequential then "seq" else "comb") ^ if latched then "_latched" else ""
    in
    (match (det, verdict.Engine.detection_latency) with
    | true, Some l -> Journal.observe_detection_latency ~cls l
    | _ -> ());
    if det && verdict.Engine.recovery_ran then
      Journal.observe_recovery_latency ~cls spec.Spec.latency_recover;
    ( was_activated,
      det,
      recovered && not latched,
      det && (not latched) && naive.Engine.recovery_ran
      && naive.Engine.recovery_correct,
      latched,
      recovered && latched,
      if det then verdict.Engine.detection_latency else None )

  let tally config trials =
    let count f = List.length (List.filter f trials) in
    let latencies = List.filter_map (fun (_, _, _, _, _, _, l) -> l) trials in
    {
      Campaign.runs = config.Campaign.n_runs;
      activated = count (fun (a, _, _, _, _, _, _) -> a);
      detected = count (fun (_, d, _, _, _, _, _) -> d);
      rebind_recovered = count (fun (_, _, r, _, _, _, _) -> r);
      naive_recovered = count (fun (_, _, _, n, _, _, _) -> n);
      latched_runs = count (fun (_, _, _, _, l, _, _) -> l);
      latched_recovered = count (fun (_, _, _, _, _, r, _) -> r);
      mean_detection_latency =
        (match latencies with
        | [] -> 0.0
        | ls ->
            float_of_int (List.fold_left ( + ) 0 ls)
            /. float_of_int (List.length ls));
    }

  (* [Campaign.run ~jobs:1]: trials in order on the shared generator *)
  let run config design prng =
    tally config (List.init config.Campaign.n_runs (fun _ -> trial config design prng))

  (* [Campaign.run ~jobs:n] for n > 1: one generator split off per trial *)
  let run_split config design prng =
    let gens = List.init config.Campaign.n_runs (fun _ -> Prng.split prng) in
    tally config (List.map (trial config design) gens)
end

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

(* ------------------------- oracle agreement ------------------------- *)

let solve_spec name spec =
  match LS.search spec with
  | LS.Solved { design; _ }, _ -> (name, design)
  | _ -> Alcotest.fail ("no design for " ^ name)

let loose_spec dfg =
  let cp = Thr_dfg.Dfg.critical_path dfg in
  Spec.make ~dfg ~catalog:Catalog.eight_vendors ~latency_detect:(cp + 1)
    ~latency_recover:cp ~area_limit:400_000 ()

(* the Fig. 5 example, the six paper benchmarks and seeded generated
   designs (comparisons and shifts included) *)
let oracle_designs =
  lazy
    (solve_spec "motivational"
       (Spec.make ~dfg:(Suite.motivational ()) ~catalog:Catalog.table1
          ~latency_detect:4 ~latency_recover:3 ~area_limit:40_000 ())
    :: List.map (fun (name, dfg) -> solve_spec name (loose_spec dfg)) (Suite.all ())
    @ List.map
        (fun seed ->
          let config =
            {
              Thr_benchmarks.Generator.default_config with
              n_ops = 6 + seed;
              n_layers = 3;
              other_ratio = 0.2;
            }
          in
          let dfg =
            Thr_benchmarks.Generator.generate ~config
              ~prng:(Thr_util.Prng.create ~seed) ()
          in
          solve_spec (Printf.sprintf "gen%d" seed) (loose_spec dfg))
        [ 1; 2; 3; 4 ])

let verdict_t =
  Alcotest.testable
    (fun ppf v ->
      Format.fprintf ppf
        "{detected=%b nc_correct=%b recovery_ran=%b recovery_correct=%b \
         cycles=%d latency=%s}"
        v.Engine.detected v.Engine.nc_correct v.Engine.recovery_ran
        v.Engine.recovery_correct v.Engine.cycles
        (match v.Engine.detection_latency with
        | None -> "-"
        | Some l -> string_of_int l))
    ( = )

(* [Engine.run], [run_without_rebinding] and a 3-frame [run_stream]
   against the oracle, for one environment and injection list *)
let check_against_oracle label design ?injections env env' =
  Alcotest.check verdict_t (label ^ " run")
    (Engine_oracle.run ?injections design env)
    (Engine.run ?injections design env);
  Alcotest.check verdict_t (label ^ " naive")
    (Engine_oracle.run_without_rebinding ?injections design env)
    (Engine.run_without_rebinding ?injections design env);
  Alcotest.check (Alcotest.list verdict_t) (label ^ " stream")
    (Engine_oracle.run_stream ?injections design [ env; env; env' ])
    (Engine.run_stream ?injections design [ env; env; env' ])

let with_threshold threshold inj =
  match inj.Engine.trojan.Trojan.trigger with
  | Trojan.Sequential s ->
      {
        inj with
        Engine.trojan =
          Trojan.make (Trojan.Sequential { s with threshold }) inj.Engine.trojan.Trojan.payload;
      }
  | _ -> inj

let test_engine_matches_oracle () =
  let classes =
    [
      ("comb", 0.0, 0.0);
      ("seq", 1.0, 0.0);
      ("latched", 0.0, 1.0);
      ("seq latched", 1.0, 1.0);
      ("mixed", 0.2, 0.1);
    ]
  in
  List.iter
    (fun (name, design) ->
      let prng = Thr_util.Prng.create ~seed:11 in
      let dfg = design.Design.spec.Spec.dfg in
      let config = Campaign.default_config in
      for _ = 1 to 3 do
        let env = Campaign_oracle.random_env config prng dfg in
        let env' = Campaign_oracle.random_env config prng dfg in
        check_against_oracle (name ^ " clean") design env env'
      done;
      (* a uniform frame: every op of a type sees the same operands, so
         counter triggers reach thresholds above 1 *)
      let uniform = env_for design 7 in
      List.iter
        (fun (cls, sequential_ratio, latched_ratio) ->
          let config = { config with sequential_ratio; latched_ratio } in
          for _ = 1 to 8 do
            let env, inj, _, _ = Campaign_oracle.draw config design prng in
            let env' = Campaign_oracle.random_env config prng dfg in
            List.iter
              (fun (tag, inj) ->
                let label = Printf.sprintf "%s %s%s" name cls tag in
                check_against_oracle label design ~injections:[ inj ] env env';
                check_against_oracle (label ^ " uniform") design ~injections:[ inj ]
                  uniform env)
              (("", inj)
              :: List.map
                   (fun t -> (Printf.sprintf " t%d" t, with_threshold t inj))
                   [ 1; 2; 3 ])
          done)
        classes)
    (Lazy.force oracle_designs)

let test_campaign_matches_oracle () =
  List.iter
    (fun (name, design) ->
      List.iter
        (fun seed ->
          let config = { Campaign.default_config with n_runs = 200 } in
          let expect = Campaign_oracle.run config design (Thr_util.Prng.create ~seed) in
          let got = Campaign.run ~config ~jobs:1 ~prng:(Thr_util.Prng.create ~seed) design in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d" name seed)
            (Format.asprintf "%a" Campaign.pp_result expect)
            (Format.asprintf "%a" Campaign.pp_result got);
          Alcotest.(check bool) "whole record" true (expect = got))
        [ 1; 7; 2024 ])
    (List.filter
       (fun (name, _) -> List.mem name [ "motivational"; "diff2"; "fir16"; "gen3" ])
       (Lazy.force oracle_designs))

let test_campaign_jobs_match_oracle () =
  List.iter
    (fun (name, design) ->
      let config = { Campaign.default_config with n_runs = 60 } in
      let run jobs = Campaign.run ~config ~jobs ~prng:(Thr_util.Prng.create ~seed:5) design in
      let expect = Campaign_oracle.run_split config design (Thr_util.Prng.create ~seed:5) in
      let j2 = run 2 and j3 = run 3 in
      Alcotest.(check bool) (name ^ " jobs 2 = oracle") true (j2 = expect);
      Alcotest.(check bool) (name ^ " jobs 2 = jobs 3") true (j2 = j3))
    (List.filter
       (fun (name, _) -> List.mem name [ "motivational"; "diff2"; "gen2" ])
       (Lazy.force oracle_designs))

(* the journal events of [f ()]: kind, cycle and context *)
let journalled f =
  let module Journal = Thr_obs.Journal in
  Journal.enable ();
  Journal.clear ();
  Fun.protect
    ~finally:(fun () ->
      Journal.disable ();
      Journal.clear ())
    (fun () ->
      ignore (f ());
      List.map
        (fun e -> (Journal.kind_name e.Journal.kind, e.Journal.cycle, e.Journal.ctx))
        (Journal.events ()))

let test_campaign_journal_matches_oracle () =
  let design = List.assoc "diff2" (Lazy.force oracle_designs) in
  let config = { Campaign.default_config with n_runs = 50 } in
  let event_t =
    Alcotest.(triple string int (list (pair string string)))
  in
  let expect =
    journalled (fun () -> Campaign_oracle.run config design (Thr_util.Prng.create ~seed:3))
  in
  Alcotest.(check bool) "the campaign journals detections" true (expect <> []);
  Alcotest.(check (list event_t)) "jobs 1 events" expect
    (journalled (fun () ->
         Campaign.run ~config ~jobs:1 ~prng:(Thr_util.Prng.create ~seed:3) design));
  (* domains interleave their emissions: compare the event multisets *)
  let sorted = List.sort compare in
  Alcotest.(check (list event_t)) "jobs 2 events"
    (sorted
       (journalled (fun () ->
            Campaign_oracle.run_split config design (Thr_util.Prng.create ~seed:3))))
    (sorted
       (journalled (fun () ->
            Campaign.run ~config ~jobs:2 ~prng:(Thr_util.Prng.create ~seed:3) design)))

(* an invalid design is rejected once, in the calling domain, before any
   trial draws from the generator — also when there are no trials *)
let test_campaign_invalid_design () =
  let design = design_for () in
  let vendors = Binding.vendors design.Design.binding in
  vendors.(5) <- vendors.(0);
  let bad =
    Design.make design.Design.spec design.Design.schedule
      (Binding.make design.Design.spec vendors)
  in
  let expected =
    Invalid_argument
      (Printf.sprintf "Engine.run: invalid design (%s)" (List.hd (Design.validate bad)))
  in
  List.iter
    (fun (jobs, n_runs) ->
      let prng = Thr_util.Prng.create ~seed:4 in
      Alcotest.check_raises
        (Printf.sprintf "jobs %d, %d runs" jobs n_runs)
        expected
        (fun () ->
          ignore
            (Campaign.run ~config:{ Campaign.default_config with n_runs } ~jobs ~prng bad));
      Alcotest.(check int64) "no draw before the check"
        (Thr_util.Prng.next_int64 (Thr_util.Prng.create ~seed:4))
        (Thr_util.Prng.next_int64 prng))
    [ (1, 20); (2, 20); (1, 0) ]

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
      ( "oracle",
        [
          Alcotest.test_case "engine verdicts" `Quick test_engine_matches_oracle;
          Alcotest.test_case "campaign tallies" `Quick test_campaign_matches_oracle;
          Alcotest.test_case "campaign jobs" `Quick test_campaign_jobs_match_oracle;
          Alcotest.test_case "campaign journal" `Quick
            test_campaign_journal_matches_oracle;
          Alcotest.test_case "campaign invalid design" `Quick
            test_campaign_invalid_design;
        ] );
    ]
