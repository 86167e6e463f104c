(* Tests for the word-level arithmetic and the RTL elaboration, including
   cycle-accurate co-simulation against the behavioural engine. *)

module Netlist = Thr_gates.Netlist
module Bus = Thr_gates.Bus
module Word = Thr_gates.Word
module Sim = Thr_gates.Sim
module Rtl = Thr_runtime.Rtl
module Engine = Thr_runtime.Engine
module Spec = Thr_hls.Spec
module Copy = Thr_hls.Copy
module Binding = Thr_hls.Binding
module Design = Thr_hls.Design
module Trojan = Thr_trojan.Trojan
module Eval = Thr_dfg.Eval
module Prng = Thr_util.Prng

let width = 12

let mask_w = (1 lsl width) - 1

let sign_extend v =
  if v land (1 lsl (width - 1)) <> 0 then (v land mask_w) - (1 lsl width)
  else v land mask_w

(* build a two-operand combinational harness for one Word operation *)
let word_harness build =
  let nl = Netlist.create ~name:"word" in
  let a = Bus.inputs nl "a" width in
  let b = Bus.inputs nl "b" width in
  let out = build nl a b in
  Bus.outputs nl "o" out;
  let sim = Sim.create nl in
  fun x y ->
    Bus.drive_int (Sim.set_input sim) "a" width (x land mask_w);
    Bus.drive_int (Sim.set_input sim) "b" width (y land mask_w);
    Sim.settle sim;
    Bus.to_int (Sim.peek sim) out

let word_matches_reference name build reference =
  QCheck.Test.make ~name ~count:200
    QCheck.(pair (int_range (-2000) 2000) (int_range (-2000) 2000))
    (fun (x, y) ->
      let gate = (word_harness build) x y in
      gate = reference x y land mask_w)
  |> QCheck_alcotest.to_alcotest

let add_prop = word_matches_reference "Word.add == (+) mod 2^w" Word.add ( + )

let sub_prop = word_matches_reference "Word.sub == (-) mod 2^w" Word.sub ( - )

let mul_prop = word_matches_reference "Word.mul == ( * ) mod 2^w" Word.mul ( * )

let lt_prop =
  QCheck.Test.make ~name:"Word.lt_signed == signed <" ~count:300
    QCheck.(pair (int_range (-2000) 2000) (int_range (-2000) 2000))
    (fun (x, y) ->
      let run = word_harness Word.lt_signed_bus in
      let gate = run x y in
      let expected = if sign_extend x < sign_extend y then 1 else 0 in
      gate = expected)
  |> QCheck_alcotest.to_alcotest

let shl_prop =
  QCheck.Test.make ~name:"Word.shl == lsl mod 2^w" ~count:300
    QCheck.(pair (int_range 0 4000) (int_range 0 63))
    (fun (x, s) ->
      let run = word_harness (fun nl a b -> Word.shl nl a ~amount:b) in
      let gate = run x s in
      gate = Thr_dfg.Op.eval Thr_dfg.Op.Shl (x land mask_w) s land mask_w)
  |> QCheck_alcotest.to_alcotest

let shr_prop =
  QCheck.Test.make ~name:"Word.ashr == asr on sign-extended words" ~count:300
    QCheck.(pair (int_range (-2000) 2000) (int_range 0 63))
    (fun (x, s) ->
      let run = word_harness (fun nl a b -> Word.ashr nl a ~amount:b) in
      let gate = run x s in
      gate = Thr_dfg.Op.eval Thr_dfg.Op.Shr (sign_extend x) s land mask_w)
  |> QCheck_alcotest.to_alcotest

let test_register () =
  let nl = Netlist.create ~name:"reg" in
  let en = Netlist.input nl "en" in
  let d = Bus.inputs nl "d" 4 in
  let q = Word.register nl ~enable:en d in
  Bus.outputs nl "q" q;
  let sim = Sim.create nl in
  Bus.drive_int (Sim.set_input sim) "d" 4 9;
  Sim.set_input sim "en" false;
  Sim.clock sim;
  Alcotest.(check int) "hold" 0 (Bus.to_int (Sim.peek sim) q);
  Sim.set_input sim "en" true;
  Sim.clock sim;
  Alcotest.(check int) "capture" 9 (Bus.to_int (Sim.peek sim) q);
  Sim.set_input sim "en" false;
  Bus.drive_int (Sim.set_input sim) "d" 4 3;
  Sim.clock sim;
  Alcotest.(check int) "hold captured" 9 (Bus.to_int (Sim.peek sim) q)

(* ------------------------ RTL co-simulation ----------------------- *)

let design_for name catalog l_det l_rec area =
  let dfg = Option.get (Thr_benchmarks.Suite.find name) in
  let spec =
    Spec.make ~dfg ~catalog ~latency_detect:l_det ~latency_recover:l_rec
      ~area_limit:area ()
  in
  match Thr_opt.License_search.search spec with
  | Thr_opt.License_search.Solved { design; _ }, _ -> design
  | _ -> Alcotest.fail ("no design for " ^ name)

let small_env prng dfg =
  List.map (fun nm -> (nm, Prng.int_in prng 1 15)) (Thr_dfg.Dfg.inputs dfg)

let test_rtl_clean_matches_golden () =
  List.iter
    (fun (name, catalog, l_det, l_rec, area) ->
      let design = design_for name catalog l_det l_rec area in
      let rtl = Rtl.elaborate ~width:16 design in
      let prng = Prng.create ~seed:5 in
      for _ = 1 to 5 do
        let env = small_env prng design.Design.spec.Spec.dfg in
        let golden = Eval.outputs design.Design.spec.Spec.dfg env in
        let r = Rtl.run rtl env in
        Alcotest.(check bool) (name ^ " no mismatch") false r.Rtl.r_mismatch;
        Alcotest.(check (list (pair int int))) (name ^ " nc == golden") golden r.Rtl.r_nc;
        Alcotest.(check (list (pair int int))) (name ^ " rc == golden") golden r.Rtl.r_rc
      done)
    [
      ("motivational", Thr_iplib.Catalog.table1, 4, 3, 40_000);
      ("diff2", Thr_iplib.Catalog.eight_vendors, 5, 4, 80_000);
    ]

let injection_for design env op payload =
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
           { a_pattern = a land 0xFFFF; b_pattern = b land 0xFFFF; mask = 0xFFFF })
        payload;
  }

let test_rtl_detects_and_recovers () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let dfg = design.Design.spec.Spec.dfg in
  let env = [ ("a", 3); ("b", 5); ("c", 7); ("d", 2); ("e", 4); ("f", 6) ] in
  let golden = Eval.outputs dfg env in
  for op = 0 to Thr_dfg.Dfg.n_ops dfg - 1 do
    let inj = injection_for design env op (Trojan.Xor_offset 0x0FF) in
    let rtl = Rtl.elaborate ~width:16 ~injections:[ inj ] design in
    let r = Rtl.run rtl env in
    Alcotest.(check bool) (Printf.sprintf "op %d detected" op) true r.Rtl.r_mismatch;
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "op %d recovery correct" op)
      golden r.Rtl.r_rv
  done

let test_rtl_agrees_with_engine () =
  (* behavioural and structural verdicts agree over random injections *)
  let design = design_for "diff2" Thr_iplib.Catalog.eight_vendors 5 4 80_000 in
  let dfg = design.Design.spec.Spec.dfg in
  let prng = Prng.create ~seed:11 in
  for _ = 1 to 10 do
    let env = small_env prng dfg in
    let op = Prng.int prng (Thr_dfg.Dfg.n_ops dfg) in
    let inj = injection_for design env op (Trojan.Xor_offset (1 + Prng.int prng 0xFF)) in
    let rtl = Rtl.elaborate ~width:16 ~injections:[ inj ] design in
    let r = Rtl.run rtl env in
    let beh = Engine.run ~injections:[ inj ] design env in
    Alcotest.(check bool) "same detection verdict" beh.Engine.detected r.Rtl.r_mismatch;
    if beh.Engine.detected then begin
      let golden = Eval.outputs dfg env in
      Alcotest.(check bool) "same recovery verdict" beh.Engine.recovery_correct
        (r.Rtl.r_rv = golden)
    end
  done

let test_rtl_sequential_trojan () =
  (* a threshold-2 counter trigger on a core that executes the matching
     operands twice in a row would fire; here the NC copy executes once
     per run, so threshold 1 fires and threshold 2 stays silent *)
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let dfg = design.Design.spec.Spec.dfg in
  let env = [ ("a", 3); ("b", 5); ("c", 7); ("d", 2); ("e", 4); ("f", 6) ] in
  let golden = Eval.run dfg env in
  let a, b = Eval.operand_values dfg env golden 4 in
  let nc = Copy.index design.Design.spec { Copy.op = 4; phase = Copy.NC } in
  let make_inj threshold =
    {
      Engine.inj_vendor = Binding.vendor design.Design.binding nc;
      inj_type = Spec.iptype_of_op design.Design.spec 4;
      trojan =
        Trojan.make
          (Trojan.Sequential
             { a_pattern = a land 0xFFFF; b_pattern = b land 0xFFFF;
               mask = 0xFFFF; threshold })
          (Trojan.Xor_offset 0x3C);
    }
  in
  let r1 = Rtl.run (Rtl.elaborate ~width:16 ~injections:[ make_inj 1 ] design) env in
  Alcotest.(check bool) "threshold 1 fires" true r1.Rtl.r_mismatch;
  let r2 = Rtl.run (Rtl.elaborate ~width:16 ~injections:[ make_inj 2 ] design) env in
  Alcotest.(check bool) "threshold 2 stays silent" false r2.Rtl.r_mismatch

let test_rtl_latched_payload_defeats_recovery () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let dfg = design.Design.spec.Spec.dfg in
  let env = [ ("a", 3); ("b", 5); ("c", 7); ("d", 2); ("e", 4); ("f", 6) ] in
  let golden = Eval.outputs dfg env in
  let inj = injection_for design env 4 (Trojan.Latched 0x55) in
  let rtl = Rtl.elaborate ~width:16 ~injections:[ inj ] design in
  let r = Rtl.run rtl env in
  Alcotest.(check bool) "detected" true r.Rtl.r_mismatch;
  Alcotest.(check bool) "latched corruption survives re-binding" true
    (r.Rtl.r_rv <> golden)

let test_rtl_validation () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  Alcotest.check_raises "narrow width"
    (Invalid_argument "Rtl.elaborate: width must be at least 6") (fun () ->
      ignore (Rtl.elaborate ~width:4 design));
  (* 1 lsl 62 is negative and 1 lsl 70 wraps: both would silently
     mis-check injections and values *)
  List.iter
    (fun w ->
      Alcotest.check_raises
        (Printf.sprintf "width %d" w)
        (Invalid_argument
           (Printf.sprintf "Rtl.elaborate: width must be at most %d"
              Rtl.max_width))
        (fun () -> ignore (Rtl.elaborate ~width:w design)))
    [ 62; 70 ];
  let dfg = design.Design.spec.Spec.dfg in
  let widest = Rtl.elaborate ~width:Rtl.max_width design in
  let env = small_env (Prng.create ~seed:9) dfg in
  Alcotest.(check bool) "widest datapath matches golden" true
    (Rtl.golden_agrees widest env (Rtl.run widest env));
  let env = List.map (fun nm -> (nm, 1)) (Thr_dfg.Dfg.inputs dfg) in
  let golden = Eval.run dfg env in
  let a, b = Eval.operand_values dfg env golden 0 in
  ignore (a, b);
  let inj =
    {
      Engine.inj_vendor = Thr_iplib.Vendor.make 1;
      inj_type = Thr_iplib.Iptype.Multiplier;
      trojan =
        Trojan.make
          (Trojan.Combinational
             { a_pattern = 1 lsl 20; b_pattern = 0; mask = 0xFFFFFF })
          (Trojan.Xor_offset 1);
    }
  in
  Alcotest.check_raises "oversized pattern"
    (Invalid_argument "Rtl.elaborate: injection does not fit the datapath width")
    (fun () -> ignore (Rtl.elaborate ~width:8 ~injections:[ inj ] design))

let test_rtl_stats () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:8 design in
  let s = Rtl.stats rtl in
  Alcotest.(check bool) "mentions gates" true (String.length s > 10);
  Alcotest.(check int) "7 cycles" 7 rtl.Rtl.total_cycles

(* --------------------- recorded (flight-data) runs ------------------ *)

module Campaign = Thr_runtime.Campaign
module Journal = Thr_obs.Journal
module Recorder = Thr_obs.Recorder
module Vcd = Thr_obs.Vcd
module Packed = Thr_gates.Packed

let with_journal f =
  Journal.enable ();
  Journal.clear ();
  Fun.protect
    ~finally:(fun () ->
      Journal.disable ();
      Journal.clear ())
    f

let kinds_emitted () =
  List.map (fun e -> Journal.kind_name e.Journal.kind) (Journal.events ())

(* Replay the VCD produced from a recorded run against an independent
   scalar Sim of the same netlist (the recorder runs on the strip
   engine): every sampled bit must agree. *)
let check_vcd_replay rtl (recorded : Rtl.recorded) env =
  let window = recorded.Rtl.rec_window in
  let wave =
    {
      Vcd.v_names = window.Recorder.w_names;
      v_cycles = window.Recorder.w_cycles;
      v_bits = Recorder.lane_bits window ~lane:0;
    }
  in
  let parsed =
    match Vcd.parse (Vcd.to_string wave) with
    | Ok w -> w
    | Error m -> Alcotest.failf "VCD does not re-parse: %s" m
  in
  Alcotest.(check bool) "VCD round-trips bit-identically" true (parsed = wave);
  (* independent simulation, sampling the same nets each cycle *)
  let nl = rtl.Rtl.netlist in
  let by_index = Hashtbl.create 1024 in
  Array.iter
    (fun n -> Hashtbl.replace by_index (Netlist.net_index n) n)
    (Netlist.nets_in_order nl);
  let nets =
    Array.of_list
      (List.map
         (fun w -> Hashtbl.find by_index w.Rtl.w_index)
         recorded.Rtl.rec_watch)
  in
  let sim = Sim.create nl in
  let vmask = (1 lsl rtl.Rtl.width) - 1 in
  List.iter
    (fun nm ->
      let v = List.assoc nm env land vmask in
      for i = 0 to rtl.Rtl.width - 1 do
        Sim.set_input sim
          (Printf.sprintf "%s.%d" nm i)
          ((v lsr i) land 1 = 1)
      done)
    (Thr_dfg.Dfg.inputs rtl.Rtl.design.Design.spec.Spec.dfg);
  Array.iteri
    (fun t cycle ->
      (* the window is every cycle of this short run: cycle = t + 1 *)
      Alcotest.(check int) "window cycle stamp" (t + 1) cycle;
      Sim.clock sim;
      Array.iteri
        (fun s net ->
          if parsed.Vcd.v_bits.(t).(s) <> Sim.peek sim net then
            Alcotest.failf "VCD bit differs from replay at cycle %d signal %s"
              cycle
              parsed.Vcd.v_names.(s))
        nets)
    parsed.Vcd.v_cycles

let test_recorded_trojan_run () =
  with_journal (fun () ->
      let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
      let prng = Prng.create ~seed:11 in
      let env = small_env prng design.Design.spec.Spec.dfg in
      let inj = Campaign.armed_injection design env in
      let rtl = Rtl.elaborate ~width:16 ~injections:[ inj ] design in
      let report = Rtl.check rtl in
      let watch = Rtl.watchlist ~report rtl in
      let recorded = Rtl.run_recorded ~watch ~cls:"comb" rtl env in
      (match recorded.Rtl.rec_result.Rtl.r_first_detect with
      | Some c ->
          Alcotest.(check bool) "first detect within the run" true
            (c >= 1 && c <= rtl.Rtl.total_cycles)
      | None -> Alcotest.fail "armed trojan not detected");
      let kinds = kinds_emitted () in
      Alcotest.(check bool) "journal has Mismatch_detected" true
        (List.mem "Mismatch_detected" kinds);
      Alcotest.(check bool) "journal has Recovery_ok" true
        (List.mem "Recovery_ok" kinds);
      Alcotest.(check (option int)) "journal first detection agrees"
        recorded.Rtl.rec_result.Rtl.r_first_detect
        (Journal.first_detection_cycle ());
      Alcotest.(check bool) "recorded result == Rtl.run" true
        (recorded.Rtl.rec_result = Rtl.run rtl env);
      check_vcd_replay rtl recorded env)

let test_recorded_clean_run () =
  with_journal (fun () ->
      let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
      let prng = Prng.create ~seed:11 in
      let env = small_env prng design.Design.spec.Spec.dfg in
      let rtl = Rtl.elaborate ~width:16 design in
      let recorded = Rtl.run_recorded rtl env in
      Alcotest.(check (option int)) "no first detect" None
        recorded.Rtl.rec_result.Rtl.r_first_detect;
      Alcotest.(check bool) "recorded result == Rtl.run" true
        (recorded.Rtl.rec_result = Rtl.run rtl env);
      Alcotest.(check bool) "no detection events" true
        (not (List.mem "Mismatch_detected" (kinds_emitted ())));
      Alcotest.(check bool) "no recovery events" true
        (not
           (List.exists
              (fun k -> k = "Recovery_started" || k = "Recovery_ok")
              (kinds_emitted ())));
      check_vcd_replay rtl recorded env)

let test_cosim_counts_detections () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let prng = Prng.create ~seed:7 in
  let cs = Campaign.cosim ~prng ~vectors:50 design in
  Alcotest.(check bool) "clean cosim ok" true (Campaign.cosim_ok cs);
  Alcotest.(check int) "no detections on a clean design" 0
    cs.Campaign.cosim_detections;
  Alcotest.(check (option int)) "no first-detect cycle" None
    cs.Campaign.cosim_first_detect

(* Campaign.cosim is the same record for any [jobs], first-bad and
   first-detect included: on fir16 (32 inputs drawn in declaration order)
   and diff2 (3 outputs), over batches that span several 8-word strips *)
let test_cosim_jobs_independent () =
  List.iter
    (fun (name, l_det, l_rec, vectors) ->
      let dfg = Option.get (Thr_benchmarks.Suite.find name) in
      let design =
        design_for name Thr_iplib.Catalog.eight_vendors l_det l_rec
          (10 * 7000 * Thr_dfg.Dfg.n_ops dfg)
      in
      let run jobs =
        Campaign.cosim ~jobs ~prng:(Prng.create ~seed:11) ~vectors design
      in
      let one = run 1 in
      Alcotest.(check int) (name ^ " vectors") vectors one.Campaign.cosim_vectors;
      Alcotest.(check bool) (name ^ " jobs=1 = jobs=3") true (one = run 3))
    [ ("fir16", 7, 5, 1100); ("diff2", 5, 4, 1300) ]

(* --------------------- concurrent fault simulation ------------------ *)

(* the adaptive 8-word batch, a sharded batch over more than one 8-word
   strip (504 envs), and per-env 1-word runs must all agree *)
let test_run_batch_modes_agree () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 design in
  let prng = Prng.create ~seed:23 in
  let envs =
    List.init 1100 (fun _ -> small_env prng design.Design.spec.Spec.dfg)
  in
  let base = Rtl.run_batch rtl envs in
  List.iter
    (fun (lbl, rs) ->
      Alcotest.(check bool) (lbl ^ " bit-identical") true (rs = base))
    [
      ("sharded jobs=3", Rtl.run_batch ~jobs:3 rtl envs);
      ("per-env run", List.map (fun e -> Rtl.run rtl e) envs)
    ]

(* Every environment of a mutant batch against independent scalar-engine
   runs: the clean lane against the un-gated elaboration and each mutant
   lane against its plain-injection elaboration.  [expected] holds the
   reference runs of [envs] (prefixes of it are scored as batches). *)
let check_mutant_batch rtl envs expected =
  let mrs = Rtl.run_mutant_batch rtl envs in
  Alcotest.(check int) "one result per env" (List.length envs)
    (List.length mrs);
  List.iteri
    (fun e mr ->
      let clean, mutants = expected.(e) in
      if mr.Rtl.m_clean <> clean then
        Alcotest.failf "batch of %d: env %d clean lane != un-gated run"
          (List.length envs) e;
      List.iter
        (fun (nm, r) ->
          if r <> List.assoc nm mutants then
            Alcotest.failf "batch of %d: env %d %s lane != plain injection run"
              (List.length envs) e nm)
        mr.Rtl.m_mutants)
    mrs;
  mrs

let mutant_reference design gated envs =
  let clean_rtl = Rtl.elaborate ~width:16 design in
  let plain =
    List.map
      (fun (nm, i) -> (nm, Rtl.elaborate ~width:16 ~injections:[ i ] design))
      gated
  in
  Array.of_list
    (List.map
       (fun e ->
         ( Rtl.run clean_rtl e,
           List.map (fun (nm, rtl) -> (nm, Rtl.run rtl e)) plain ))
       envs)

(* lane-packed mutants must be bit-identical to elaborating each plain
   injection separately, and the clean lane to the un-gated netlist, at
   batch sizes covering one lane group, one full lane word, a spill into
   a second word and more than one 8-word pass; for the zoo (four gates,
   five lanes a group) and a one-gate design (two lanes a group) *)
let test_mutants_match_plain_injections () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let dfg = design.Design.spec.Spec.dfg in
  let env = [ ("a", 3); ("b", 5); ("c", 7); ("d", 2); ("e", 4); ("f", 6) ] in
  let golden = Eval.run dfg env in
  let a, b = Eval.operand_values dfg env golden 4 in
  let nc = Copy.index design.Design.spec { Copy.op = 4; phase = Copy.NC } in
  let inj trojan =
    {
      Engine.inj_vendor = Binding.vendor design.Design.binding nc;
      inj_type = Spec.iptype_of_op design.Design.spec 4;
      trojan;
    }
  in
  let zoo =
    Trojan.zoo ~a_pattern:(a land 0xFFFF) ~b_pattern:(b land 0xFFFF)
      ~mask:0xFFFF
  in
  let gated = List.map (fun (nm, tr) -> ("mut_" ^ nm, inj tr)) zoo in
  let rtl = Rtl.elaborate ~width:16 ~gated_injections:gated design in
  Alcotest.(check (list string))
    "mutant_gates in order"
    (List.map fst gated) rtl.Rtl.mutant_gates;
  (* the armed environment recurs every seventh slot, so misplaced
     lanes show as detections at the wrong environment *)
  let prng = Prng.create ~seed:3 in
  let envs =
    List.init 200 (fun i -> if i mod 7 = 0 then env else small_env prng dfg)
  in
  let take n = List.filteri (fun i _ -> i < n) envs in
  let expected = mutant_reference design gated envs in
  let one_gate = [ List.hd gated ] in
  let one_rtl = Rtl.elaborate ~width:16 ~gated_injections:one_gate design in
  let one_expected = mutant_reference design one_gate envs in
  List.iter
    (fun n ->
      ignore (check_mutant_batch rtl (take n) expected);
      ignore (check_mutant_batch one_rtl (take n) one_expected))
    [ 1; 12; 13; 97; 200 ];
  (* the armed combinational mutant must actually fire on its env *)
  let first = List.hd (check_mutant_batch rtl (take 10) expected) in
  Alcotest.(check bool) "armed comb mutant detected" true
    (List.assoc "mut_comb" first.Rtl.m_mutants).Rtl.r_mismatch;
  Alcotest.(check bool) "decoy lane stays clean" false
    (List.assoc "mut_decoy" first.Rtl.m_mutants).Rtl.r_mismatch

let test_mutant_validation () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let nc = Copy.index design.Design.spec { Copy.op = 4; phase = Copy.NC } in
  let inj =
    {
      Engine.inj_vendor = Binding.vendor design.Design.binding nc;
      inj_type = Spec.iptype_of_op design.Design.spec 4;
      trojan =
        Trojan.make
          (Trojan.Combinational { a_pattern = 1; b_pattern = 2; mask = 0xF })
          (Trojan.Xor_offset 1);
    }
  in
  let too_many =
    List.init Packed.lanes (fun i -> (Printf.sprintf "g%d" i, inj))
  in
  Alcotest.check_raises "gate count bounded by lanes"
    (Invalid_argument
       (Printf.sprintf "Rtl.elaborate: at most %d gated injections"
          (Packed.lanes - 1)))
    (fun () -> ignore (Rtl.elaborate ~gated_injections:too_many design));
  let rtl = Rtl.elaborate ~width:16 design in
  Alcotest.check_raises "no gates, no mutant batch"
    (Invalid_argument "Rtl.run_mutant_batch: design has no gated injections")
    (fun () -> ignore (Rtl.run_mutant_batch rtl []))

(* every runner rejects an environment that lacks a primary input *)
let test_missing_input () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let dfg = design.Design.spec.Spec.dfg in
  let env = List.tl (small_env (Prng.create ~seed:5) dfg) in
  let nc = Copy.index design.Design.spec { Copy.op = 4; phase = Copy.NC } in
  let inj =
    {
      Engine.inj_vendor = Binding.vendor design.Design.binding nc;
      inj_type = Spec.iptype_of_op design.Design.spec 4;
      trojan =
        Trojan.make
          (Trojan.Combinational { a_pattern = 1; b_pattern = 2; mask = 0xF })
          (Trojan.Xor_offset 1);
    }
  in
  let rtl = Rtl.elaborate ~width:16 design in
  let gated = Rtl.elaborate ~width:16 ~gated_injections:[ ("g", inj) ] design in
  let raises lbl f =
    match f () with
    | () -> Alcotest.failf "%s accepted an env without input %S" lbl
              (List.hd (Thr_dfg.Dfg.inputs dfg))
    | exception Invalid_argument _ -> ()
  in
  raises "run_batch" (fun () -> ignore (Rtl.run_batch rtl [ env ]));
  raises "run_mutant_batch" (fun () ->
      ignore (Rtl.run_mutant_batch gated [ env ]));
  raises "run_recorded" (fun () -> ignore (Rtl.run_recorded rtl env))

let test_cosim_mutants () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let prng = Prng.create ~seed:7 in
  let mr = Campaign.cosim_mutants ~prng ~vectors:12 design in
  Alcotest.(check bool) "clean lane golden throughout" true
    mr.Campaign.mr_clean_ok;
  Alcotest.(check bool) "report ok (no escapes, decoy silent)" true
    (Campaign.mutant_report_ok mr);
  let find nm =
    List.find (fun m -> m.Campaign.ms_gate = nm) mr.Campaign.mr_mutants
  in
  Alcotest.(check bool) "armed comb mutant detected at least once" true
    ((find "mut_comb").Campaign.ms_detections >= 1);
  Alcotest.(check int) "decoy control never fires" 0
    (find "mut_decoy").Campaign.ms_detections;
  Alcotest.(check int) "decoy control never diverges" 0
    (find "mut_decoy").Campaign.ms_divergent

(* Property: on random small DFGs, the structural netlist and the
   behavioural engine agree on detection and recovery for adversarial
   combinational injections. *)
let rtl_engine_equivalence =
  QCheck.Test.make ~name:"RTL == engine on random DFGs" ~count:6
    QCheck.small_int (fun seed ->
      let prng = Prng.create ~seed in
      let config =
        { Thr_benchmarks.Generator.default_config with n_ops = 6; n_layers = 3 }
      in
      let dfg = Thr_benchmarks.Generator.generate ~config ~prng () in
      let cp = Thr_dfg.Dfg.critical_path dfg in
      let spec =
        Spec.make ~dfg ~catalog:Thr_iplib.Catalog.eight_vendors
          ~latency_detect:(cp + 1) ~latency_recover:cp ~area_limit:300_000 ()
      in
      match Thr_opt.License_search.search spec with
      | Thr_opt.License_search.Solved { design; _ }, _ ->
          let env = small_env prng dfg in
          let op = Prng.int prng (Thr_dfg.Dfg.n_ops dfg) in
          let inj =
            injection_for design env op (Trojan.Xor_offset (1 + Prng.int prng 0xFF))
          in
          let rtl = Rtl.elaborate ~width:20 ~injections:[ inj ] design in
          let r = Rtl.run rtl env in
          let beh = Engine.run ~injections:[ inj ] design env in
          let golden = Eval.outputs dfg env in
          Bool.equal beh.Engine.detected r.Rtl.r_mismatch
          && ((not beh.Engine.detected)
             || Bool.equal beh.Engine.recovery_correct (r.Rtl.r_rv = golden))
      | _ -> QCheck.assume_fail ())

let () =
  Alcotest.run "rtl"
    [
      ( "word",
        [
          add_prop;
          sub_prop;
          mul_prop;
          lt_prop;
          shl_prop;
          shr_prop;
          Alcotest.test_case "register" `Quick test_register;
        ] );
      ( "rtl",
        [
          Alcotest.test_case "clean matches golden" `Quick test_rtl_clean_matches_golden;
          Alcotest.test_case "detects and recovers (every op)" `Quick
            test_rtl_detects_and_recovers;
          Alcotest.test_case "agrees with engine" `Quick test_rtl_agrees_with_engine;
          Alcotest.test_case "sequential trojan" `Quick test_rtl_sequential_trojan;
          Alcotest.test_case "latched payload" `Quick
            test_rtl_latched_payload_defeats_recovery;
          Alcotest.test_case "validation" `Quick test_rtl_validation;
          Alcotest.test_case "stats" `Quick test_rtl_stats;
          QCheck_alcotest.to_alcotest rtl_engine_equivalence;
        ] );
      ( "recorded",
        [
          Alcotest.test_case "armed trojan journals and replays" `Quick
            test_recorded_trojan_run;
          Alcotest.test_case "clean run journals nothing" `Quick
            test_recorded_clean_run;
          Alcotest.test_case "cosim counts detections" `Quick
            test_cosim_counts_detections;
          Alcotest.test_case "cosim independent of jobs" `Quick
            test_cosim_jobs_independent;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "run_batch modes agree" `Quick
            test_run_batch_modes_agree;
          Alcotest.test_case "lanes match plain injections" `Quick
            test_mutants_match_plain_injections;
          Alcotest.test_case "validation" `Quick test_mutant_validation;
          Alcotest.test_case "missing input rejected" `Quick
            test_missing_input;
          Alcotest.test_case "cosim_mutants zoo" `Quick test_cosim_mutants;
        ] );
    ]
