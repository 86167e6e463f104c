(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus the run-time campaign behind Figs. 1-4 and
   an ablation study, and runs the CI gates (sim, sat, ilp).  Timings
   live in the repository benchmark, perfbench/.

     dune exec bench/main.exe            # fig5 table3 table4 campaign
                                         #   ablation testtime rtl
     dune exec bench/main.exe -- table3  # a single experiment
     dune exec bench/main.exe -- --bench polynom --max-ilp-warm-seconds 10 ilp

   `--jobs N` fans independent work (table rows, campaign trials) out over
   N domains; the default is `Dpool.default_jobs ()` and `--jobs 1` runs
   everything sequentially and deterministically.  `--trace FILE` records
   a Chrome trace_event profile of the run (chrome://tracing / Perfetto).

   Area constraints: the paper's absolute unit-cell numbers assume its
   (unpublished) 8-vendor catalogue, so each row's area budget is derived
   from our catalogue instead — `loose` rows get 2.5x and `tight` rows
   1.5x the instance-area lower bound of that row's latency window (see
   EXPERIMENTS.md). *)

module T = Trojan_hls

(* set from --jobs in [main] before any experiment runs *)
let jobs = ref 1

let catalog = T.Catalog.eight_vendors

(* area lower bound for a spec with every licence allowed *)
let area_lb spec =
  let inst = T.Opt_instance.make spec in
  let allowed = Array.make_matrix inst.T.Opt_instance.n_vendors 3 true in
  match T.Csp.area_lower_bound inst ~allowed with
  | Some lb -> lb
  | None -> invalid_arg "area_lb: catalogue misses a type"

let spec_for ~mode ~dfg ~latency_detect ~latency_recover ~frac =
  let probe =
    T.Spec.make ~mode ~dfg ~catalog ~latency_detect ~latency_recover
      ~area_limit:max_int ()
  in
  let area_limit = int_of_float (float_of_int (area_lb probe) *. frac) in
  T.Spec.make ~mode ~dfg ~catalog ~latency_detect ~latency_recover ~area_limit ()

type row = {
  bench : string;
  lambda : int;           (** the tables' λ: detection (+ recovery) steps *)
  l_det : int;
  l_rec : int;            (** 0 for detection-only rows *)
  frac : float;
  paper_mc : string;      (** the paper's reported minimum cost *)
}

(* Table 3 of the paper: detection-only; λ values straight from the paper,
   loose-area first row, tight-area second row. *)
let table3_rows =
  [
    { bench = "polynom"; lambda = 3; l_det = 3; l_rec = 0; frac = 2.5; paper_mc = "3580" };
    { bench = "polynom"; lambda = 6; l_det = 6; l_rec = 0; frac = 1.5; paper_mc = "3320" };
    { bench = "diff2"; lambda = 4; l_det = 4; l_rec = 0; frac = 2.5; paper_mc = "4130" };
    { bench = "diff2"; lambda = 14; l_det = 14; l_rec = 0; frac = 1.5; paper_mc = "4130" };
    { bench = "dtmf"; lambda = 4; l_det = 4; l_rec = 0; frac = 2.5; paper_mc = "2960" };
    { bench = "dtmf"; lambda = 8; l_det = 8; l_rec = 0; frac = 1.5; paper_mc = "2960" };
    { bench = "mof2"; lambda = 7; l_det = 7; l_rec = 0; frac = 2.5; paper_mc = "2440" };
    { bench = "mof2"; lambda = 14; l_det = 14; l_rec = 0; frac = 1.5; paper_mc = "2440" };
    { bench = "elliptic"; lambda = 8; l_det = 8; l_rec = 0; frac = 2.5; paper_mc = "2690" };
    { bench = "elliptic"; lambda = 16; l_det = 16; l_rec = 0; frac = 1.5; paper_mc = "3240*" };
    { bench = "fir16"; lambda = 6; l_det = 6; l_rec = 0; frac = 2.5; paper_mc = "2960" };
    { bench = "fir16"; lambda = 12; l_det = 12; l_rec = 0; frac = 1.5; paper_mc = "2960" };
  ]

(* Table 4: detection + recovery; λ covers both schedules, split as
   recovery = critical path, detection = the rest (the paper's Fig. 5
   example uses the same split: 4 + 3). *)
let table4_rows =
  [
    { bench = "polynom"; lambda = 6; l_det = 3; l_rec = 3; frac = 2.5; paper_mc = "5140" };
    { bench = "polynom"; lambda = 12; l_det = 9; l_rec = 3; frac = 1.5; paper_mc = "5140" };
    { bench = "diff2"; lambda = 8; l_det = 4; l_rec = 4; frac = 2.5; paper_mc = "5140" };
    { bench = "diff2"; lambda = 14; l_det = 10; l_rec = 4; frac = 1.5; paper_mc = "5190" };
    { bench = "dtmf"; lambda = 8; l_det = 4; l_rec = 4; frac = 2.5; paper_mc = "3830" };
    { bench = "dtmf"; lambda = 15; l_det = 11; l_rec = 4; frac = 1.5; paper_mc = "3830" };
    { bench = "mof2"; lambda = 14; l_det = 8; l_rec = 6; frac = 2.5; paper_mc = "3830" };
    { bench = "mof2"; lambda = 24; l_det = 18; l_rec = 6; frac = 1.5; paper_mc = "3830" };
    { bench = "elliptic"; lambda = 16; l_det = 8; l_rec = 8; frac = 2.5; paper_mc = "3180*" };
    { bench = "elliptic"; lambda = 24; l_det = 16; l_rec = 8; frac = 1.5; paper_mc = "4850*" };
    { bench = "fir16"; lambda = 12; l_det = 7; l_rec = 5; frac = 2.5; paper_mc = "3830" };
    { bench = "fir16"; lambda = 16; l_det = 11; l_rec = 5; frac = 1.5; paper_mc = "4390*" };
  ]

let spec_of_row ~mode row =
  let dfg = Option.get (T.Benchmarks.find row.bench) in
  spec_for ~mode ~dfg ~latency_detect:row.l_det
    ~latency_recover:(max row.l_rec 1) ~frac:row.frac

let run_table ~mode ~title ~paper_table rows =
  Format.printf "@.== %s ==@." title;
  let table =
    T.Tablefmt.create
      ~aligns:[ T.Tablefmt.Left; Right; Right; Right; Right; Right; Right; Right; Right; Right ]
      ~header:
        [ "Benchmark"; "n"; "lambda"; "A"; "u"; "t"; "v"; "mc"; "paper mc"; "time" ]
      ()
  in
  (* each row is an independent solve: fan them out over the domain pool
     (order is preserved — cells come back in row order) *)
  let row_cells row =
    let spec = spec_of_row ~mode row in
    let n = T.Dfg.n_ops spec.T.Spec.dfg in
    match T.Optimize.run ~per_call_nodes:150_000 ~max_candidates:300_000 ~time_limit:30.0 spec with
    | Ok { design; quality; seconds; _ } ->
        let s = T.Design.stats design in
        assert (T.Design.is_valid design);
        [
          row.bench;
          string_of_int n;
          string_of_int row.lambda;
          string_of_int spec.T.Spec.area_limit;
          string_of_int s.T.Design.u;
          string_of_int s.T.Design.t;
          string_of_int s.T.Design.v;
          Printf.sprintf "$%d%s" s.T.Design.mc (T.Optimize.quality_suffix quality);
          "$" ^ row.paper_mc;
          Printf.sprintf "%.2fs" seconds;
        ]
    | Error e ->
        [
          row.bench;
          string_of_int n;
          string_of_int row.lambda;
          string_of_int spec.T.Spec.area_limit;
          "-"; "-"; "-";
          (match e with
          | T.Optimize.Infeasible_proven -> "infeasible"
          | T.Optimize.Infeasible_budget -> "budget");
          "$" ^ row.paper_mc;
          "-";
        ]
  in
  let cells =
    T.Dpool.run ~jobs:!jobs (fun pool -> T.Dpool.map pool row_cells rows)
  in
  List.iter (T.Tablefmt.add_row table) cells;
  Format.printf "%s" (T.Tablefmt.render table);
  Format.printf
    "(A derived from our catalogue: 2.5x / 1.5x the area lower bound; paper \
     column %s)@."
    paper_table

let table3 () =
  run_table ~mode:T.Spec.Detection_only
    ~title:"Table 3 - Designs with Detection Only" ~paper_table:"Table 3"
    table3_rows

let table4 () =
  run_table ~mode:T.Spec.Detection_and_recovery
    ~title:"Table 4 - Designs with Detection and Recovery" ~paper_table:"Table 4"
    table4_rows

(* ------------------------------ fig5 ------------------------------ *)

let fig5 () =
  Format.printf "@.== Figure 5 - Motivational example ==@.";
  let spec =
    T.Spec.make ~dfg:(T.Benchmarks.motivational ()) ~catalog:T.Catalog.table1
      ~latency_detect:4 ~latency_recover:3 ~area_limit:22_000 ()
  in
  match T.Optimize.run spec with
  | Ok { design; quality; seconds; _ } ->
      let s = T.Design.stats design in
      Format.printf
        "optimal purchasing cost: $%d%s (paper: $4160); u=%d t=%d v=%d \
         area=%d/22000; solved in %.2fs@."
        s.T.Design.mc
        (T.Optimize.quality_suffix quality)
        s.T.Design.u s.T.Design.t s.T.Design.v s.T.Design.area seconds;
      Format.printf "%a" T.Design.report design
  | Error _ -> Format.printf "no design (unexpected)@."

(* ---------------------------- campaign ---------------------------- *)

let campaign () =
  Format.printf
    "@.== Run-time campaign (the behaviour behind Figs. 1-4) ==@.";
  let table =
    T.Tablefmt.create
      ~aligns:[ T.Tablefmt.Left; Right; Right; Right; Right; Right; Right; Right ]
      ~header:
        [
          "Benchmark"; "runs"; "activated"; "detected"; "rebind rec";
          "naive rec"; "latched rec"; "mean latency";
        ]
      ()
  in
  List.iter
    (fun (name, l_det, l_rec) ->
      let dfg = Option.get (T.Benchmarks.find name) in
      let spec =
        spec_for ~mode:T.Spec.Detection_and_recovery ~dfg ~latency_detect:l_det
          ~latency_recover:l_rec ~frac:2.5
      in
      match T.Optimize.run spec with
      | Error _ -> Format.printf "%s: no design@." name
      | Ok { design; _ } ->
          let prng = T.Prng.create ~seed:2014 in
          let config = { T.Campaign.default_config with n_runs = 200 } in
          let r = T.Campaign.run ~config ~jobs:!jobs ~prng design in
          T.Tablefmt.add_row table
            [
              name;
              string_of_int r.T.Campaign.runs;
              string_of_int r.T.Campaign.activated;
              string_of_int r.T.Campaign.detected;
              string_of_int r.T.Campaign.rebind_recovered;
              string_of_int r.T.Campaign.naive_recovered;
              Printf.sprintf "%d/%d" r.T.Campaign.latched_recovered
                r.T.Campaign.latched_runs;
              Printf.sprintf "%.1f" r.T.Campaign.mean_detection_latency;
            ])
    [ ("polynom", 3, 3); ("diff2", 4, 4); ("fir16", 7, 5) ];
  Format.printf "%s" (T.Tablefmt.render table);
  Format.printf
    "(rebind = the paper's Rule 1 recovery; naive = re-execution on the same \
     cores, the strategy the paper's fault model rules out; latched = \
     payloads with memory, outside the paper's recovery scope)@."

(* ---------------------------- ablation ---------------------------- *)

let ablation () =
  Format.printf "@.== Ablation - design choices ==@.";
  (* (1) strict-paper vs symmetric rule 2 *)
  Format.printf "@.(1) eq. 7 scope: strict-paper (NC only) vs symmetric:@.";
  List.iter
    (fun name ->
      let dfg = Option.get (T.Benchmarks.find name) in
      let cp = T.Dfg.critical_path dfg in
      let solve variant =
        let probe =
          T.Spec.make ~rule_variant:variant ~dfg ~catalog ~latency_detect:(cp + 1)
            ~latency_recover:cp ~area_limit:max_int ()
        in
        let area = int_of_float (float_of_int (area_lb probe) *. 2.5) in
        let spec =
          T.Spec.make ~rule_variant:variant ~dfg ~catalog ~latency_detect:(cp + 1)
            ~latency_recover:cp ~area_limit:area ()
        in
        match T.Optimize.run spec with
        | Ok { design; quality; _ } ->
            Printf.sprintf "$%d%s" (T.Design.cost design)
              (T.Optimize.quality_suffix quality)
        | Error _ -> "-"
      in
      Format.printf "  %-10s strict %s   symmetric %s@." name
        (solve T.Spec.Strict_paper) (solve T.Spec.Symmetric))
    [ "polynom"; "diff2"; "dtmf" ];
  (* (2) recovery rule 2 (closely-related pairs).  Under a uniform DSP
     workload every multiplication of the motivational DFG sees similar
     operands, so all three mul pairs are closely related: the recovery
     multipliers must then avoid every detection multiplier vendor. *)
  Format.printf "@.(2) recovery Rule 2 on the motivational DFG:@.";
  let solve_related closely_related =
    let spec =
      T.Spec.make ~closely_related ~dfg:(T.Benchmarks.motivational ())
        ~catalog:T.Catalog.eight_vendors ~latency_detect:4 ~latency_recover:3
        ~area_limit:80_000 ()
    in
    match T.Optimize.run spec with
    | Ok { design; quality; _ } ->
        let s = T.Design.stats design in
        Printf.sprintf "$%d%s (t=%d v=%d)" s.T.Design.mc
          (T.Optimize.quality_suffix quality)
          s.T.Design.t s.T.Design.v
    | Error _ -> "-"
  in
  Format.printf "  no closely-related pairs:         %s@." (solve_related []);
  Format.printf "  all mul pairs closely related:    %s@."
    (solve_related [ (0, 2); (0, 4); (2, 4) ]);
  (* (3) greedy vs optimal *)
  Format.printf "@.(3) greedy baseline vs licence search (detection+recovery):@.";
  List.iter
    (fun name ->
      let dfg = Option.get (T.Benchmarks.find name) in
      let cp = T.Dfg.critical_path dfg in
      let spec =
        spec_for ~mode:T.Spec.Detection_and_recovery ~dfg ~latency_detect:(cp + 1)
          ~latency_recover:cp ~frac:2.5
      in
      let greedy =
        match T.Optimize.run ~solver:T.Optimize.Greedy spec with
        | Ok { design; _ } -> Printf.sprintf "$%d" (T.Design.cost design)
        | Error _ -> "-"
      in
      let search =
        match T.Optimize.run spec with
        | Ok { design; quality; _ } ->
            Printf.sprintf "$%d%s" (T.Design.cost design)
              (T.Optimize.quality_suffix quality)
        | Error _ -> "-"
      in
      Format.printf "  %-10s greedy %-8s search %s@." name greedy search)
    [ "polynom"; "diff2"; "dtmf"; "mof2" ];
  (* (4) the literal paper ILP vs the licence search, on the Fig. 5
     problem in both modes.  The det+rec ILP is given a bounded node
     budget; like the paper's hour-limited LINGO runs it may return an
     incumbent marked '*'. *)
  Format.printf "@.(4) literal ILP (eqs. 3-17) vs licence search on Fig. 5:@.";
  List.iter
    (fun (mode_label, mode, ilp_nodes) ->
      let spec =
        T.Spec.make ~mode ~dfg:(T.Benchmarks.motivational ())
          ~catalog:T.Catalog.table1 ~latency_detect:4 ~latency_recover:3
          ~area_limit:22_000 ()
      in
      List.iter
        (fun (label, solver) ->
          match T.Optimize.run ~solver ~per_call_nodes:ilp_nodes spec with
          | Ok { design; quality; seconds; _ } ->
              Format.printf "  %-14s %-16s $%d%s in %.2fs@." mode_label label
                (T.Design.cost design)
                (T.Optimize.quality_suffix quality)
                seconds
          | Error _ -> Format.printf "  %-14s %-16s failed@." mode_label label)
        [ ("licence search", T.Optimize.License_search); ("literal ILP", T.Optimize.Ilp) ])
    [
      ("det-only", T.Spec.Detection_only, 100_000);
      ("det+recovery", T.Spec.Detection_and_recovery, 3_000);
    ];
  (* (5) recovery endurance: how many further activations the purchased
     licences can absorb by repeated re-binding (the paper's
     "continue working correctly until they can be replaced") *)
  Format.printf
    "@.(5) recovery endurance: extra recovery rounds the purchased licences \
     support, as the designer adds spare licences per type (cheapest unused \
     vendors first):@.";
  List.iter
    (fun name ->
      let dfg = Option.get (T.Benchmarks.find name) in
      let cp = T.Dfg.critical_path dfg in
      let spec =
        spec_for ~mode:T.Spec.Detection_and_recovery ~dfg ~latency_detect:(cp + 1)
          ~latency_recover:cp ~frac:2.5
      in
      match T.Optimize.run spec with
      | Error _ -> Format.printf "  %-10s no design@." name
      | Ok { design; _ } ->
          let owned = T.Design.licences design in
          let spares k =
            (* k cheapest not-yet-owned licences of every used type *)
            List.concat_map
              (fun ty ->
                T.Catalog.cheapest_vendors catalog ty
                |> List.filter (fun v ->
                       not
                         (List.exists
                            (fun (v', ty') ->
                              T.Vendor.equal v v' && ty = ty')
                            owned))
                |> List.filteri (fun i _ -> i < k)
                |> List.map (fun v -> (v, ty)))
              (List.sort_uniq compare (List.map snd owned))
          in
          let cost_of ls =
            List.fold_left (fun acc (v, ty) -> acc + T.Catalog.cost catalog v ty) 0 ls
          in
          let cells =
            List.map
              (fun k ->
                let extra = spares k in
                Printf.sprintf "+%dsp:%d rounds(+$%d)" k
                  (T.Endurance.rounds_supported ~extra_licences:extra design)
                  (cost_of extra))
              [ 0; 1; 2 ]
          in
          Format.printf "  %-10s %s@." name (String.concat "  " cells))
    [ "polynom"; "diff2"; "dtmf"; "mof2" ]

(* ---------------------------- testtime ---------------------------- *)

(* The quantified version of the paper's Section 1 argument: sweep trigger
   rarity and measure how often each *test-time* method catches the Trojan
   before deployment, against the run-time NC/RC check that catches every
   activation. *)
let testtime () =
  Format.printf
    "@.== Test-time vs run-time detection (the paper's Section 1 argument) ==@.";
  let table =
    T.Tablefmt.create
      ~aligns:[ T.Tablefmt.Left; Right; Right; Right; Right; Right ]
      ~header:
        [ "host"; "rare bits"; "random test"; "MERO"; "side channel"; "run-time" ]
      ()
  in
  let prng = T.Prng.create ~seed:7 in
  let trials = 8 in
  List.iter
    (fun (kind, kind_name) ->
      List.iter
        (fun rare_bits ->
          let counts = Array.make 4 0 in
          for _ = 1 to trials do
            let pair = T.Testtime.make_pair ~prng ~kind ~rare_bits () in
            let o = T.Testtime.evaluate ~prng ~n_tests:256 pair in
            if o.T.Testtime.random_test then counts.(0) <- counts.(0) + 1;
            if o.T.Testtime.mero then counts.(1) <- counts.(1) + 1;
            if o.T.Testtime.side_channel then counts.(2) <- counts.(2) + 1;
            if o.T.Testtime.runtime_would_catch then counts.(3) <- counts.(3) + 1
          done;
          let cell i = Printf.sprintf "%d/%d" counts.(i) trials in
          T.Tablefmt.add_row table
            [ kind_name; string_of_int rare_bits; cell 0; cell 1; cell 2; cell 3 ])
        [ 2; 4; 6; 10 ])
    [ (T.Testtime.Adder, "adder"); (T.Testtime.Multiplier, "multiplier") ];
  Format.printf "%s" (T.Tablefmt.render table);
  Format.printf
    "Logic testing fades with trigger rarity; the power side channel only \
     sees Trojans that are large relative to their host; the run-time NC/RC \
     comparison catches every activation regardless — the paper's case for \
     designing recovery in.@."

(* -------------------------- campaign class ------------------------- *)

(* The designs behind rtl, sim, sat and journal: benchmark, catalogue,
   detection and recovery latency, area budget. *)
let campaign_class =
  [
    ("motivational", (T.Catalog.table1, 4, 3, 40_000));
    ("diff2", (T.Catalog.eight_vendors, 5, 4, 90_000));
    ("fir16", (T.Catalog.eight_vendors, 7, 5, 300_000));
  ]

(* the optimised design of one campaign-class benchmark, if any *)
let campaign_design name =
  let catalog, l_det, l_rec, area = List.assoc name campaign_class in
  let spec =
    T.Spec.make ~dfg:(Option.get (T.Benchmarks.find name)) ~catalog
      ~latency_detect:l_det ~latency_recover:l_rec ~area_limit:area ()
  in
  match T.Optimize.run spec with
  | Ok { design; _ } -> Some design
  | Error _ -> None

(* ------------------------------ rtl -------------------------------- *)

let rtl () =
  Format.printf "@.== RTL elaboration (structural netlists of the designs) ==@.";
  List.iter
    (fun (name, _) ->
      match campaign_design name with
      | None -> Format.printf "  %-12s no design@." name
      | Some design ->
          let r = T.Rtl.elaborate ~width:16 design in
          Format.printf "  %-12s %s@." name (T.Rtl.stats r);
          (* one clean vector through the silicon as a sanity check *)
          let dfg = design.T.Design.spec.T.Spec.dfg in
          let env = List.map (fun i -> (i, 5)) (T.Dfg.inputs dfg) in
          let golden = T.Dfg_eval.outputs dfg env in
          let res = T.Rtl.run r env in
          assert ((not res.T.Rtl.r_mismatch) && res.T.Rtl.r_nc = golden))
    campaign_class;
  Format.printf
    "(each netlist contains the shared functional units, operand muxes, \
     result registers, step counter and the NC/RC comparator)@."

(* ------------------------------- sim ------------------------------- *)

(* set from --min-speedup in [main]; 0 = report only, do not enforce *)
let min_speedup = ref 0.0

module P = T.Gate_packed

(* vectors/second of [f], repeating the whole batch until >= 0.25s of
   wall clock so small netlists aren't timed by clock granularity *)
let rate f n_vectors =
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  let elapsed = ref 0.0 in
  while !elapsed < 0.25 do
    f ();
    incr reps;
    elapsed := Unix.gettimeofday () -. t0
  done;
  float_of_int (!reps * n_vectors) /. !elapsed

type sim_row = {
  sim_bench : string;
  sim_nets : int;
  sim_mode : string;      (** scalar | strips | fault-packed *)
  sim_activity : float;   (** input toggle probability of the stimulus *)
  sim_vps : float;        (** vectors/s, one domain *)
}

let strip_words = 8

(* Bit-identity of every engine/mode before timing anything, including
   the concurrent-fault path (mutant lanes vs per-mutant scalar runs —
   the line below is what CI greps for in the cosim smoke). *)
let sim_verify name nl =
  let cycles = 4 in
  let prng = T.Prng.create ~seed:42 in
  let check = P.batch ~prng ~cycles 200 in
  let lazy_check = P.batch ~prng ~cycles ~activity:0.2 200 in
  let oracle = P.run_reference nl check in
  assert (P.equal_outputs (P.run_strips ~words:1 nl check) oracle);
  assert (P.equal_outputs (P.run_strips ~words:strip_words nl check) oracle);
  assert (
    P.equal_outputs
      (P.run_strips ~jobs:(max 2 !jobs) ~words:strip_words nl check)
      oracle);
  let lazy_oracle = P.run_reference nl lazy_check in
  assert (
    P.equal_outputs
      (P.run_strips ~words:strip_words nl lazy_check)
      lazy_oracle);
  (* mutant enables: force the first two inputs to distinct lane words *)
  let forced =
    match Array.to_list (P.tape_inputs (P.tape nl)) with
    | (a, _) :: (b, _) :: _ -> [ (a, 0x5555555555); (b, 0x3333333333) ]
    | [ (a, _) ] -> [ (a, 0x5555555555) ]
    | [] -> []
  in
  let mprng = T.Prng.create ~seed:7 in
  assert (
    P.equal_outputs
      (P.run_mutants ~cycles ~prng:mprng ~forced nl)
      (P.run_mutants_reference ~cycles ~prng:mprng ~forced nl));
  Format.printf
    "%s: all modes bit-identical (fault-packed lanes match per-mutant \
     scalar runs)@."
    name

let sim_measure name design =
  let nl = (T.Rtl.elaborate ~width:16 design).T.Rtl.netlist in
  let cycles = 4 in
  sim_verify name nl;
  let nets = T.Netlist.n_nets nl in
  let prng = T.Prng.create ~seed:42 in
  (* smaller batch for the scalar engine so one rep stays sub-second on
     the large netlists; rates are per-vector so they stay comparable *)
  let scalar_n = P.lanes * 4 in
  let strips_n = P.lanes * strip_words * 16 in
  let row mode activity vps =
    { sim_bench = name; sim_nets = nets; sim_mode = mode;
      sim_activity = activity; sim_vps = vps }
  in
  let batch n act = P.batch ~prng ~cycles ~activity:act n in
  let strips_rate act =
    let b = batch strips_n act in
    rate (fun () -> ignore (P.run_strips ~words:strip_words nl b)) strips_n
  in
  let forced =
    match Array.to_list (P.tape_inputs (P.tape nl)) with
    | (a, _) :: _ -> [ (a, 0x5555555555) ]
    | [] -> []
  in
  let mprng = T.Prng.create ~seed:7 in
  [
    row "scalar" 1.0
      (let b = batch scalar_n 1.0 in
       rate (fun () -> ignore (P.run_reference nl b)) scalar_n);
    row "strips" 1.0 (strips_rate 1.0);
    row "strips" 0.05 (strips_rate 0.05);
    (* one tape pass per cycle simulates [lanes] trojan on/off variants *)
    row "fault-packed" 1.0
      (rate
         (fun () -> ignore (P.run_mutants ~cycles ~prng:mprng ~forced nl))
         P.lanes);
  ]

let sim () =
  Format.printf
    "@.== Gate-simulation throughput (%d lanes, %d-word strips) ==@." P.lanes
    strip_words;
  let rows =
    List.concat_map
      (fun (name, _) ->
        match campaign_design name with
        | Some design -> sim_measure name design
        | None -> [])
      campaign_class
  in
  let scalar_of bench =
    List.find_map
      (fun r ->
        if r.sim_bench = bench && r.sim_mode = "scalar" then Some r.sim_vps
        else None)
      rows
  in
  let table =
    T.Tablefmt.create
      ~aligns:[ T.Tablefmt.Left; Right; Left; Right; Right; Right ]
      ~header:[ "Benchmark"; "nets"; "mode"; "activity"; "v/s"; "vs scalar" ]
      ()
  in
  List.iter
    (fun r ->
      T.Tablefmt.add_row table
        [
          r.sim_bench;
          string_of_int r.sim_nets;
          r.sim_mode;
          Printf.sprintf "%.2f" r.sim_activity;
          Printf.sprintf "%.3g" r.sim_vps;
          (match scalar_of r.sim_bench with
          | Some s when s > 0.0 -> Printf.sprintf "%.1fx" (r.sim_vps /. s)
          | _ -> "-");
        ])
    rows;
  Format.printf "%s" (T.Tablefmt.render table);
  Format.printf
    "(4-cycle random vectors, one domain; strips = %d words per \
     dispatch, %d vectors per tape pass; fault-packed = %d trojan \
     variants per pass; every mode verified bit-identical first)@."
    strip_words (P.lanes * strip_words) P.lanes;
  if !min_speedup > 0.0 then begin
    (* enforce on the largest netlist: the strip engine exists to
       amortise per-instruction dispatch and per-lane stimulus, which
       dominate there.  The reference point is the one-word packed
       engine as it stood before strips (fir16 single-domain; see
       EXPERIMENTS.md, sim), so the gate measures the strip
       engine itself rather than a same-run ratio that the shared fast
       stimulus path would flatten. *)
    let pre_strip_packed_vps = 24525.5 in
    match
      List.find_map
        (fun r ->
          if r.sim_bench = "fir16" && r.sim_mode = "strips"
             && r.sim_activity = 1.0
          then Some r.sim_vps
          else None)
        rows
    with
    | None ->
        Format.printf "--min-speedup: no fir16 strips row measured@.";
        exit 1
    | Some strips ->
        let s = strips /. pre_strip_packed_vps in
        Format.printf
          "fir16 strips: %.3g v/s = %.1fx the pre-strip packed engine \
           (%.3g v/s recorded)@."
          strips s pre_strip_packed_vps;
        if s < !min_speedup then begin
          Format.printf
            "FAIL: strips speedup %.1fx on fir16 below required %.1fx@." s
            !min_speedup;
          exit 1
        end
        else
          Format.printf "speedup gate: %.1fx >= %.1fx on fir16, ok@." s
            !min_speedup
  end

(* ------------------------------- ilp ------------------------------ *)

(* The CI speed gate for the literal ILP: one warm-started
   branch-and-bound solve, with the formulation's priority vars and at
   most [ilp_node_cap] nodes, per Table 3/4 row.  Rows above
   [ilp_var_gate] variables are skipped: their trees do not finish
   within the node cap (the tight elliptic ILP alone has ~10k
   variables).  test_ilp checks warm against cold; a traced perfbench
   `design` run times the solver layer by layer. *)

let ilp_var_gate = 800
let ilp_node_cap = 2_000

(* set from --max-ilp-warm-seconds in [main]; 0 = report only.  When
   positive, [ilp] fails (exit 1) if any measured row takes longer than
   this many seconds, or if no row was measured at all. *)
let max_ilp_warm_seconds = ref 0.0

(* set from --bench in [main]; empty = every Table 3/4 row.  Restricts
   [ilp] to the named benchmarks (comma-separated), so CI can gate on a
   small fast subset. *)
let bench_filter : string list ref = ref []

(* one row -> (label, table cells, seconds), or None above the gate *)
let ilp_row (table, mode, row) =
  let f = T.Ilp_formulation.build (spec_of_row ~mode row) in
  let nv = T.Ilp_model.n_vars f.T.Ilp_formulation.model in
  if nv > ilp_var_gate then None
  else begin
    let t0 = Unix.gettimeofday () in
    let outcome, st =
      T.Ilp_solve.solve ~max_nodes:ilp_node_cap
        ~priority:f.T.Ilp_formulation.priority_vars ~warm:true
        f.T.Ilp_formulation.model
    in
    let seconds = Unix.gettimeofday () -. t0 in
    let mc sol suffix =
      Printf.sprintf "$%d%s"
        (T.Design.cost (f.T.Ilp_formulation.read_design sol))
        suffix
    in
    Some
      ( Printf.sprintf "%s %s lambda=%d" table row.bench row.lambda,
        [
          table;
          row.bench;
          string_of_int row.lambda;
          string_of_int nv;
          (match outcome with
          | T.Ilp_solve.Optimal sol -> mc sol ""
          | T.Ilp_solve.Budget (Some sol) -> mc sol "*"
          | _ -> "-");
          string_of_int st.T.Ilp_solve.nodes;
          string_of_int (T.Ilp_solve.total_pivots st);
          Printf.sprintf "%.3fs" seconds;
        ],
        seconds )
  end

let ilp () =
  Format.printf "@.== Warm literal ILP (<= %d vars, %d nodes) ==@."
    ilp_var_gate ilp_node_cap;
  let keep r = !bench_filter = [] || List.mem r.bench !bench_filter in
  let work =
    List.map
      (fun r -> ("table3", T.Spec.Detection_only, r))
      (List.filter keep table3_rows)
    @ List.map
        (fun r -> ("table4", T.Spec.Detection_and_recovery, r))
        (List.filter keep table4_rows)
  in
  if work = [] then begin
    Format.printf "--bench matched no Table 3/4 rows@.";
    exit 1
  end;
  let results =
    List.filter_map Fun.id
      (T.Dpool.run ~jobs:!jobs (fun pool -> T.Dpool.map pool ilp_row work))
  in
  let table =
    T.Tablefmt.create
      ~aligns:[ T.Tablefmt.Left; Left; Right; Right; Right; Right; Right; Right ]
      ~header:
        [ "Table"; "Benchmark"; "lambda"; "vars"; "mc"; "nodes"; "pivots"; "time" ]
      ()
  in
  List.iter (fun (_, cells, _) -> T.Tablefmt.add_row table cells) results;
  Format.printf "%s" (T.Tablefmt.render table);
  let slowest =
    List.fold_left
      (fun acc (label, _, s) ->
        match acc with
        | Some (s0, _) when s0 >= s -> acc
        | _ -> Some (s, label))
      None results
  in
  (match slowest with
  | Some (s, label) ->
      Format.printf "slowest warm ILP row: %s at %.3fs@." label s
  | None -> ());
  if !max_ilp_warm_seconds > 0.0 then
    match slowest with
    | Some (s, label) when s > !max_ilp_warm_seconds ->
        Format.printf
          "--max-ilp-warm-seconds: %s took %.3fs, above the %.3fs budget@."
          label s !max_ilp_warm_seconds;
        exit 1
    | Some _ ->
        Format.printf "--max-ilp-warm-seconds: all rows within %.3fs@."
          !max_ilp_warm_seconds
    | None ->
        Format.printf "--max-ilp-warm-seconds: no ILP row measured@.";
        exit 1

(* ------------------------------- sat ------------------------------ *)

(* set from --max-inconclusive in [main]; negative = report only *)
let max_inconclusive = ref (-1)

let sat () =
  Format.printf
    "@.== SAT trigger reachability: prover portfolio vs sequential BMC \
     (bound %d, --jobs %d) ==@."
    T.Bmc.default_bound !jobs;
  let mutants design =
    [
      ("clean", []);
      ("trojan", [ T.Rtl.canned_injection ~width:16 design ]);
      ("trojan-seq", [ T.Rtl.canned_sequential_injection ~width:16 design ]);
      ("trojan-dud", [ T.Rtl.canned_dud_injection ~width:16 design ]);
    ]
  in
  (* the PR 7 shape of --prove: every candidate bounded-model-checked on
     its own solver, no cone sharing, no preprocessing, no induction *)
  let sequential_prover nl ~net ~value = T.Bmc.check_net nl ~net ~value in
  let metric snap name =
    match List.assoc_opt name snap with Some v -> v | None -> 0.0
  in
  let total_candidates = ref 0
  and total_certified = ref 0
  and total_inconclusive = ref 0 in
  List.iter
    (fun name ->
      match campaign_design name with
      | None -> Format.printf "  %-12s no design@." name
      | Some design ->
          List.iter
            (fun (mutant, injections) ->
              let rtl = T.Rtl.elaborate ~width:16 ~injections design in
              let nl = rtl.T.Rtl.netlist in
              (* collect the candidate batch once: a recording prover
                 sees exactly the nets --prove hands the portfolio *)
              let cands = ref [] in
              let recorder ~net ~value =
                cands := (net, value) :: !cands;
                T.Bmc.Inconclusive 1
              in
              ignore
                (T.Rtl.check ~prove:T.Bmc.default_bound ~prover:recorder rtl);
              let cands = Array.of_list (List.rev !cands) in
              (* time the prover cores head to head, stripped of the
                 elaboration / scoring / simulation work both sides
                 share; best of two passes per side since a single
                 1-core run is at the mercy of GC and scheduler noise *)
              let timed f =
                let t0 = Unix.gettimeofday () in
                let r = f () in
                (r, 1000.0 *. (Unix.gettimeofday () -. t0))
              in
              let best2 f =
                let r, m1 = timed f in
                let _, m2 = timed f in
                (r, Float.min m1 m2)
              in
              let seq_outcomes, base_ms =
                best2 (fun () ->
                    Array.map
                      (fun (net, value) -> sequential_prover nl ~net ~value)
                      cands)
              in
              let seq_inconclusive =
                Array.fold_left
                  (fun n o ->
                    match o with T.Bmc.Inconclusive _ -> n + 1 | _ -> n)
                  0 seq_outcomes
              in
              let snap0 = T.Metrics.snapshot () in
              let report =
                T.Rtl.check ~prove:T.Bmc.default_bound ~jobs:!jobs rtl
              in
              let snap1 = T.Metrics.snapshot () in
              let _, ms =
                best2 (fun () -> T.Induction.prove ~jobs:!jobs nl cands)
              in
              let delta n = metric snap1 n -. metric snap0 n in
              let clauses_in = delta "thr_sat_preprocess_clauses_in_total" in
              let clauses_out = delta "thr_sat_preprocess_clauses_out_total" in
              let shrink =
                if clauses_in > 0.0 then clauses_out /. clauses_in else 1.0
              in
              match report.T.Check.prove with
              | None ->
                  Format.printf "  %-12s %-10s no prove stats@." name mutant
              | Some s ->
                  let speedup =
                    if s.T.Check.prove_candidates = 0 then 1.0
                    else base_ms /. Float.max 1e-6 ms
                  in
                  total_candidates := !total_candidates + s.T.Check.prove_candidates;
                  total_certified := !total_certified + s.T.Check.prove_certified;
                  total_inconclusive :=
                    !total_inconclusive + s.T.Check.prove_inconclusive;
                  Format.printf
                    "  %-12s %-10s candidates=%-3d reachable=%-3d certified=%-3d \
                     bounded=%-3d inconclusive=%-3d exit=%d  shrink=%.2f  \
                     seq=%.1fms (inconclusive=%d)  portfolio=%.1fms  %.1fx@."
                    name mutant s.T.Check.prove_candidates
                    s.T.Check.prove_reachable s.T.Check.prove_certified
                    s.T.Check.prove_unreachable s.T.Check.prove_inconclusive
                    (T.Exit_code.code (T.Check.exit_code report))
                    shrink base_ms seq_inconclusive ms speedup)
            (mutants design))
    [ "motivational"; "diff2" ];
  let rate =
    float_of_int !total_certified /. float_of_int (max 1 !total_candidates)
  in
  Format.printf
    "(certificate rate %.2f over %d candidates; every verdict exact: a \
     witness replayed on the packed simulator, an unbounded k-induction or \
     combinational certificate, or bounded unreachability)@."
    rate !total_candidates;
  if !max_inconclusive >= 0 then
    if !total_inconclusive > !max_inconclusive then begin
      Format.printf
        "--max-inconclusive: %d inconclusive verdict(s), above the budget \
         of %d@."
        !total_inconclusive !max_inconclusive;
      exit 1
    end
    else
      Format.printf "--max-inconclusive: %d inconclusive within budget %d@."
        !total_inconclusive !max_inconclusive

(* ----------------------------- journal ---------------------------- *)

(* Cost of the runtime observability layer: the journal emit site when
   disabled (the price every simulation pays — one Atomic.get) and when
   enabled, the flight-recorder sampling rate, and the end-to-end
   overhead of a recorded run vs a plain one. *)
let journal () =
  Format.printf "@.== Runtime journal / flight recorder cost ==@.";
  let n = 1_000_000 in
  T.Journal.disable ();
  T.Journal.clear ();
  let disabled_rate =
    rate
      (fun () ->
        for c = 1 to n do
          T.Journal.emit ~cycle:c T.Journal.Trigger_candidate_active
        done)
      n
  in
  T.Journal.enable ();
  T.Journal.clear ();
  let enabled_rate =
    rate
      (fun () ->
        for c = 1 to n do
          T.Journal.emit ~cycle:c T.Journal.Trigger_candidate_active
        done)
      n
  in
  T.Journal.disable ();
  T.Journal.clear ();
  let signals = 64 in
  let words = Array.make signals 0 in
  let recorder =
    T.Recorder.create
      ~names:(Array.init signals (Printf.sprintf "n%d"))
      ~depth:256 ()
  in
  let pushes = 100_000 in
  let push_rate =
    rate
      (fun () ->
        for c = 1 to pushes do
          T.Recorder.push recorder ~cycle:c words
        done)
      pushes
  in
  let rtl =
    match campaign_design "motivational" with
    | Some design -> T.Rtl.elaborate ~width:16 design
    | None -> failwith "no netlist"
  in
  let env =
    List.map
      (fun i -> (i, 9))
      (T.Dfg.inputs rtl.T.Rtl.design.T.Design.spec.T.Spec.dfg)
  in
  let plain_rate = rate (fun () -> ignore (T.Rtl.run rtl env)) 1 in
  let recorded_rate =
    rate (fun () -> ignore (T.Rtl.run_recorded rtl env)) 1
  in
  let table =
    T.Tablefmt.create
      ~aligns:[ T.Tablefmt.Left; Right ]
      ~header:[ "Site"; "rate" ] ()
  in
  T.Tablefmt.add_row table
    [ "emit, disabled"; Printf.sprintf "%.3g events/s" disabled_rate ];
  T.Tablefmt.add_row table
    [ "emit, enabled"; Printf.sprintf "%.3g events/s" enabled_rate ];
  T.Tablefmt.add_row table
    [
      Printf.sprintf "recorder push (%d signals)" signals;
      Printf.sprintf "%.3g cycles/s" push_rate;
    ];
  T.Tablefmt.add_row table
    [ "Rtl.run (motivational)"; Printf.sprintf "%.3g runs/s" plain_rate ];
  T.Tablefmt.add_row table
    [ "Rtl.run_recorded"; Printf.sprintf "%.3g runs/s" recorded_rate ];
  Format.printf "%s" (T.Tablefmt.render table);
  Format.printf
    "(disabled emit is the always-on cost: one Atomic.get per site; \
     disabled/enabled ratio %.1fx; recorded run costs %.2fx a plain run)@."
    (disabled_rate /. enabled_rate)
    (plain_rate /. recorded_rate)

(* ------------------------------ main ------------------------------ *)

let experiments =
  [
    ("fig5", fig5);
    ("table3", table3);
    ("table4", table4);
    ("campaign", campaign);
    ("ablation", ablation);
    ("testtime", testtime);
    ("rtl", rtl);
    ("sim", sim);
    ("journal", journal);
    ("sat", sat);
    ("ilp", ilp);
  ]

let default_experiments =
  [ "fig5"; "table3"; "table4"; "campaign"; "ablation"; "testtime"; "rtl" ]

let () =
  jobs := T.Dpool.default_jobs ();
  let specs =
    [
      ( "--jobs",
        Arg.Int (fun n -> jobs := max 1 n),
        "N domains for independent work (default: cores - 1)" );
      ( "--trace",
        Arg.String
          (fun path ->
            T.Trace.enable ();
            at_exit (fun () -> T.Trace.write_file path)),
        "FILE write a Chrome trace_event profile of the run" );
      ( "--min-speedup",
        Arg.Set_float min_speedup,
        "X sim: fail if fir16 strips run below X times the pre-strip engine" );
      ( "--max-inconclusive",
        Arg.Int
          (fun n ->
            if n < 0 then
              raise (Arg.Bad "--max-inconclusive expects a non-negative integer");
            max_inconclusive := n),
        "N sat: fail above N inconclusive verdicts" );
      ( "--max-ilp-warm-seconds",
        Arg.Float
          (fun x ->
            if x <= 0.0 then
              raise (Arg.Bad "--max-ilp-warm-seconds expects a positive number");
            max_ilp_warm_seconds := x),
        "S ilp: fail if a row takes longer than S seconds, or none is measured" );
      ( "--bench",
        Arg.String
          (fun s ->
            bench_filter :=
              List.filter (fun b -> b <> "") (String.split_on_char ',' s)),
        "B1,B2 ilp: only the rows of these benchmarks" );
    ]
  in
  let usage =
    Printf.sprintf "main.exe [OPTION]... [EXPERIMENT]...\nexperiments: %s (default: %s)"
      (String.concat ", " (List.map fst experiments))
      (String.concat " " default_experiments)
  in
  let args = ref [] in
  (try Arg.parse_argv Sys.argv (Arg.align specs) (fun a -> args := a :: !args) usage
   with
  | Arg.Bad msg ->
      prerr_string msg;
      exit 1
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  let to_run = if !args = [] then default_experiments else List.rev !args in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Format.printf "unknown experiment %S (known: %s)@." name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    to_run
