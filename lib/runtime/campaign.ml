module Dfg = Thr_dfg.Dfg
module Eval = Thr_dfg.Eval
module Spec = Thr_hls.Spec
module Copy = Thr_hls.Copy
module Binding = Thr_hls.Binding
module Design = Thr_hls.Design
module Trojan = Thr_trojan.Trojan
module Prng = Thr_util.Prng
module Dpool = Thr_util.Dpool
module Journal = Thr_obs.Journal

type config = {
  n_runs : int;
  sequential_ratio : float;
  latched_ratio : float;
  mask : int;
  input_lo : int;
  input_hi : int;
}

let default_config =
  {
    n_runs = 200;
    sequential_ratio = 0.2;
    latched_ratio = 0.1;
    mask = 0xFFFF;
    input_lo = 1;
    input_hi = 1000;
  }

type result = {
  runs : int;
  activated : int;
  detected : int;
  rebind_recovered : int;
  naive_recovered : int;
  latched_runs : int;
  latched_recovered : int;
  mean_detection_latency : float;
}

let pp_result ppf r =
  Format.fprintf ppf
    "runs=%d activated=%d detected=%d rebind_recovered=%d naive_recovered=%d \
     latched=%d/%d mean_latency=%.2f"
    r.runs r.activated r.detected r.rebind_recovered r.naive_recovered
    r.latched_recovered r.latched_runs r.mean_detection_latency

let random_env config prng dfg =
  List.map
    (fun nm -> (nm, Prng.int_in prng config.input_lo config.input_hi))
    (Dfg.inputs dfg)

(* The operand stream (step order) of the core instance executing NC copy
   [idx], under a clean run whose input row and op values are [row] and
   [golden] — used to pick sequential-trigger thresholds. *)
let instance_stream plan row golden idx =
  let prog = Engine.program plan in
  let n = Array.length golden in
  Array.fold_right
    (fun i acc ->
      let op = i mod n (* detection copies: NC op = op, RC op = n + op *) in
      (i, (Eval.read prog row golden op 0, Eval.read prog row golden op 1)) :: acc)
    (Engine.instance_copies plan idx) []

(* Longest run of consecutive stream entries whose masked operands all
   equal the masked operands of the stream entry for [idx]. *)
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

(* Outcome of one injection run; trials are tallied separately so that
   the trial body can also run on a worker domain. *)
type trial = {
  t_activated : bool;
  t_detected : bool;
  t_rebind : bool;
  t_naive : bool;
  t_latched : bool;
  t_latched_rec : bool;
  t_latency : int option;
}

(* One injection trial on [design]'s [plan].  Draws from [prng] in a
   fixed order, so running trials back-to-back on a shared generator
   reproduces the historical sequential stream exactly. *)
let run_trial config design plan prng =
  let spec = design.Design.spec in
  let dfg = spec.Spec.dfg in
  let n = Dfg.n_ops dfg in
  let prog = Engine.program plan in
  let env = random_env config prng dfg in
  let row = Eval.bind prog env in
  let golden = Eval.exec prog row in
  (* adversarial trigger: match the operands an NC operation really sees *)
  let op = Prng.int prng n in
  let nc_idx = Copy.index spec { Copy.op; phase = Copy.NC } in
  let a = Eval.read prog row golden op 0 and b = Eval.read prog row golden op 1 in
  let a_pattern = a land config.mask and b_pattern = b land config.mask in
  let sequential = Prng.float prng 1.0 < config.sequential_ratio in
  let trigger =
    if sequential then begin
      let stream = instance_stream plan row golden nc_idx in
      let best = consecutive_matches stream config.mask nc_idx in
      let threshold = max 1 (min best 3) in
      Trojan.Sequential { a_pattern; b_pattern; mask = config.mask; threshold }
    end
    else Trojan.Combinational { a_pattern; b_pattern; mask = config.mask }
  in
  let latched = Prng.float prng 1.0 < config.latched_ratio in
  let payload_mask = 1 + Prng.int prng 0xFFFF in
  let payload =
    if latched then Trojan.Latched payload_mask else Trojan.Xor_offset payload_mask
  in
  let trojan = Trojan.make trigger payload in
  let injection =
    {
      Engine.inj_vendor = Binding.vendor design.Design.binding nc_idx;
      inj_type = Spec.iptype_of_op spec op;
      trojan;
    }
  in
  let verdict = Engine.run_plan ~injections:[ injection ] plan env in
  let naive = Engine.run_plan ~injections:[ injection ] ~rebind:false plan env in
  let was_activated = verdict.Engine.detected || not verdict.Engine.nc_correct in
  let det = was_activated && verdict.Engine.detected in
  let recovered =
    det && verdict.Engine.recovery_ran && verdict.Engine.recovery_correct
  in
  (* per-trojan-class cycle histograms (thr_rt_*_latency_cycles_<cls>) *)
  let cls =
    (if sequential then "seq" else "comb")
    ^ if latched then "_latched" else ""
  in
  (match (det, verdict.Engine.detection_latency) with
  | true, Some l -> Journal.observe_detection_latency ~cls l
  | _ -> ());
  if det && verdict.Engine.recovery_ran then
    Journal.observe_recovery_latency ~cls spec.Spec.latency_recover;
  {
    t_activated = was_activated;
    t_detected = det;
    t_rebind = recovered && not latched;
    t_naive =
      det && (not latched) && naive.Engine.recovery_ran
      && naive.Engine.recovery_correct;
    t_latched = latched;
    t_latched_rec = recovered && latched;
    t_latency = (if det then verdict.Engine.detection_latency else None);
  }

let tally config trials =
  let activated = ref 0 in
  let detected = ref 0 in
  let rebind_recovered = ref 0 in
  let naive_recovered = ref 0 in
  let latched_runs = ref 0 in
  let latched_recovered = ref 0 in
  let latency_sum = ref 0 in
  let latency_count = ref 0 in
  List.iter
    (fun t ->
      if t.t_latched then incr latched_runs;
      if t.t_activated then incr activated;
      if t.t_detected then incr detected;
      if t.t_rebind then incr rebind_recovered;
      if t.t_naive then incr naive_recovered;
      if t.t_latched_rec then incr latched_recovered;
      match t.t_latency with
      | Some l ->
          latency_sum := !latency_sum + l;
          incr latency_count
      | None -> ())
    trials;
  {
    runs = config.n_runs;
    activated = !activated;
    detected = !detected;
    rebind_recovered = !rebind_recovered;
    naive_recovered = !naive_recovered;
    latched_runs = !latched_runs;
    latched_recovered = !latched_recovered;
    mean_detection_latency =
      (if !latency_count = 0 then 0.0
       else float_of_int !latency_sum /. float_of_int !latency_count);
  }

(* An injection guaranteed to {e activate at run time}: the trigger
   pattern is the very operand pair the first output's NC copy computes
   under [env], so a gate-level run of the elaborated netlist over [env]
   trips the comparator.  (The canned [Rtl.canned_injection] mutants use
   fixed 0xDEAD/0xBEEF patterns that essentially never occur — right for
   static-analysis smoke, useless for recording a live detection.) *)
let armed_injection ?(config = default_config) ?(sequential = false) design env
    =
  let spec = design.Design.spec in
  let dfg = spec.Spec.dfg in
  let golden = Eval.run dfg env in
  let op = List.hd (Dfg.outputs dfg) in
  let nc_idx = Copy.index spec { Copy.op; phase = Copy.NC } in
  let a, b = Eval.operand_values dfg env golden op in
  let a_pattern = a land config.mask and b_pattern = b land config.mask in
  let trigger =
    if sequential then begin
      let plan = Engine.plan design in
      let row = Eval.bind (Engine.program plan) env in
      let stream = instance_stream plan row golden nc_idx in
      let best = consecutive_matches stream config.mask nc_idx in
      Trojan.Sequential
        {
          a_pattern;
          b_pattern;
          mask = config.mask;
          threshold = max 1 (min best 3);
        }
    end
    else Trojan.Combinational { a_pattern; b_pattern; mask = config.mask }
  in
  {
    Engine.inj_vendor = Binding.vendor design.Design.binding nc_idx;
    inj_type = Spec.iptype_of_op spec op;
    trojan = Trojan.make trigger (Trojan.Xor_offset 0xFF);
  }

(* ------------------------ gate-level co-sim ------------------------ *)

type cosim_result = {
  cosim_vectors : int;
  cosim_mismatches : int;
  cosim_detections : int;
  cosim_first_detect : int option;
  cosim_first_bad : Eval.env option;
}

let cosim_ok r = r.cosim_mismatches = 0

let cosim ?(config = default_config) ?(jobs = 1) ?(width = 16) ~prng ~vectors
    design =
  let dfg = design.Design.spec.Spec.dfg in
  let rtl = Rtl.elaborate ~width design in
  (* environments drawn from the shared generator, like campaign trials *)
  let envs = List.init vectors (fun _ -> random_env config prng dfg) in
  let results = Rtl.run_batch ~jobs rtl envs in
  let mismatches = ref 0 and first_bad = ref None in
  let detections = ref 0 and first_detect = ref None in
  List.iter2
    (fun env r ->
      (match r.Rtl.r_first_detect with
      | Some c ->
          incr detections;
          (match !first_detect with
          | Some c' when c' <= c -> ()
          | _ -> first_detect := Some c)
      | None -> ());
      let agrees = (not r.Rtl.r_mismatch) && Rtl.golden_agrees rtl env r in
      if not agrees then begin
        incr mismatches;
        if !first_bad = None then first_bad := Some env
      end)
    envs results;
  {
    cosim_vectors = vectors;
    cosim_mismatches = !mismatches;
    cosim_detections = !detections;
    cosim_first_detect = !first_detect;
    cosim_first_bad = !first_bad;
  }

(* ------------------- concurrent fault co-simulation ------------------- *)

type mutant_stat = {
  ms_gate : string;
  ms_label : string;
  ms_detections : int;
  ms_divergent : int;
  ms_escapes : int;
}

type mutant_report = {
  mr_vectors : int;
  mr_clean_ok : bool;
  mr_mutants : mutant_stat list;
}

let mutant_report_ok r =
  r.mr_clean_ok
  && List.for_all
       (fun m ->
         m.ms_escapes = 0
         && ((not (String.length m.ms_label >= 5 && String.sub m.ms_label 0 5 = "decoy"))
             || (m.ms_divergent = 0 && m.ms_detections = 0)))
       r.mr_mutants

let pp_mutant_report ppf r =
  Format.fprintf ppf "vectors=%d clean=%s" r.mr_vectors
    (if r.mr_clean_ok then "ok" else "BAD");
  List.iter
    (fun m ->
      Format.fprintf ppf " %s(%s)=det:%d/div:%d/esc:%d" m.ms_gate m.ms_label
        m.ms_detections m.ms_divergent m.ms_escapes)
    r.mr_mutants

let cosim_mutants ?(config = default_config) ?(width = 16) ~prng ~vectors
    design =
  if vectors < 1 then invalid_arg "Campaign.cosim_mutants: vectors must be >= 1";
  let spec = design.Design.spec in
  let dfg = spec.Spec.dfg in
  let envs = List.init vectors (fun _ -> random_env config prng dfg) in
  (* arm the zoo with the operand pair the first output's NC copy really
     computes under the first vector, so the live variants do fire *)
  let env0 = List.hd envs in
  let golden0 = Eval.run dfg env0 in
  let op = List.hd (Dfg.outputs dfg) in
  let nc_idx = Copy.index spec { Copy.op; phase = Copy.NC } in
  let a, b = Eval.operand_values dfg env0 golden0 op in
  let zoo =
    Trojan.zoo ~a_pattern:(a land config.mask) ~b_pattern:(b land config.mask)
      ~mask:config.mask
  in
  let gated_injections =
    List.map
      (fun (nm, trojan) ->
        ( "mut_" ^ nm,
          {
            Engine.inj_vendor = Binding.vendor design.Design.binding nc_idx;
            inj_type = Spec.iptype_of_op spec op;
            trojan;
          } ))
      zoo
  in
  let rtl = Rtl.elaborate ~width ~gated_injections design in
  let results = Rtl.run_mutant_batch rtl envs in
  let clean_ok = ref true in
  let stats =
    Array.of_list
      (List.map
         (fun (nm, trojan) ->
           {
             ms_gate = "mut_" ^ nm;
             ms_label = Trojan.short_label trojan;
             ms_detections = 0;
             ms_divergent = 0;
             ms_escapes = 0;
           })
         zoo)
  in
  List.iter2
    (fun env mr ->
      let clean = mr.Rtl.m_clean in
      if clean.Rtl.r_mismatch || not (Rtl.golden_agrees rtl env clean) then
        clean_ok := false;
      List.iteri
        (fun i (_, r) ->
          let s = stats.(i) in
          let detected = r.Rtl.r_first_detect <> None in
          (* divergence is judged against the clean lane of the same
             run, not golden: recovery may legitimately restore outputs *)
          let divergent = r.Rtl.r_final <> clean.Rtl.r_final in
          stats.(i) <-
            {
              s with
              ms_detections = (s.ms_detections + if detected then 1 else 0);
              ms_divergent = (s.ms_divergent + if divergent then 1 else 0);
              ms_escapes =
                (s.ms_escapes + if divergent && not detected then 1 else 0);
            })
        mr.Rtl.m_mutants)
    envs results;
  {
    mr_vectors = vectors;
    mr_clean_ok = !clean_ok;
    mr_mutants = Array.to_list stats;
  }

let run ?(config = default_config) ?(jobs = 1) ~prng design =
  let spec = design.Design.spec in
  if spec.Spec.mode <> Spec.Detection_and_recovery then
    invalid_arg "Campaign.run: design must include recovery";
  (* one validation and layout for every trial; the plan is immutable,
     so the worker domains share it *)
  let plan = Engine.plan design in
  let trials =
    if jobs <= 1 then begin
      (* Shared generator, trials in order: byte-identical to the
         historical sequential loop. *)
      let acc = ref [] in
      for _ = 1 to config.n_runs do
        acc := run_trial config design plan prng :: !acc
      done;
      List.rev !acc
    end
    else begin
      (* Pre-draw one generator per trial from the shared stream (still
         sequential, so the split points are deterministic), then fan the
         independent trials out across domains.  Results come back in
         trial order, and the tally is order-insensitive anyway. *)
      let gens = ref [] in
      for _ = 1 to config.n_runs do
        gens := Prng.split prng :: !gens
      done;
      let gens = List.rev !gens in
      Dpool.run ~jobs (fun pool ->
          Dpool.map pool (fun g -> run_trial config design plan g) gens)
    end
  in
  tally config trials
