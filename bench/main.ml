(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) plus the run-time campaign behind Figs. 1-4 and
   an ablation study, and times the solvers with Bechamel.

     dune exec bench/main.exe            # fig5 table3 table4 campaign ablation
     dune exec bench/main.exe -- table3  # a single experiment
     dune exec bench/main.exe -- timing  # Bechamel micro-benchmarks
     dune exec bench/main.exe -- json    # solver metrics -> BENCH_solvers.json

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

(* ------------------------------ rtl -------------------------------- *)

let rtl () =
  Format.printf "@.== RTL elaboration (structural netlists of the designs) ==@.";
  List.iter
    (fun (name, catalog, l_det, l_rec, area) ->
      let dfg = Option.get (T.Benchmarks.find name) in
      let spec =
        T.Spec.make ~dfg ~catalog ~latency_detect:l_det ~latency_recover:l_rec
          ~area_limit:area ()
      in
      match T.Optimize.run spec with
      | Error _ -> Format.printf "  %-12s no design@." name
      | Ok { design; _ } ->
          let r = T.Rtl.elaborate ~width:16 design in
          Format.printf "  %-12s %s@." name (T.Rtl.stats r);
          (* one clean vector through the silicon as a sanity check *)
          let env =
            List.map (fun i -> (i, 5)) (T.Dfg.inputs dfg)
          in
          let golden = T.Dfg_eval.outputs dfg env in
          let res = T.Rtl.run r env in
          assert ((not res.T.Rtl.r_mismatch) && res.T.Rtl.r_nc = golden))
    [
      ("motivational", T.Catalog.table1, 4, 3, 40_000);
      ("diff2", T.Catalog.eight_vendors, 5, 4, 90_000);
      ("fir16", T.Catalog.eight_vendors, 7, 5, 300_000);
    ];
  Format.printf
    "(each netlist contains the shared functional units, operand muxes, \
     result registers, step counter and the NC/RC comparator)@."

(* ------------------------------- sim ------------------------------- *)

(* set from --min-speedup in [main]; 0 = report only, do not enforce *)
let min_speedup = ref 0.0

(* set from --max-ilp-warm-seconds in [main]; 0 = report only.  When
   positive, [json] fails (exit 1) if any measured warm ILP row takes
   longer than this many seconds — the CI regression gate for the
   revised-simplex + cutting-plane solve path. *)
let max_ilp_warm_seconds = ref 0.0

(* set from --bench in [main]; empty = every Table 3/4 row.  Restricts
   the [json] experiment to the named benchmarks (comma-separated), so
   CI can gate on a small fast subset. *)
let bench_filter : string list ref = ref []

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

(* The campaign-class netlists of the [rtl] experiment, elaborated once. *)
let sim_netlists () =
  List.filter_map
    (fun (name, catalog, l_det, l_rec, area) ->
      let dfg = Option.get (T.Benchmarks.find name) in
      let spec =
        T.Spec.make ~dfg ~catalog ~latency_detect:l_det ~latency_recover:l_rec
          ~area_limit:area ()
      in
      match T.Optimize.run spec with
      | Error _ -> None
      | Ok { design; _ } -> Some (name, T.Rtl.elaborate ~width:16 design))
    [
      ("motivational", T.Catalog.table1, 4, 3, 40_000);
      ("diff2", T.Catalog.eight_vendors, 5, 4, 90_000);
      ("fir16", T.Catalog.eight_vendors, 7, 5, 300_000);
    ]

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

let sim_measure (name, rtl) =
  let nl = rtl.T.Rtl.netlist in
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

let sim_measurements () = List.concat_map sim_measure (sim_netlists ())

let sim () =
  Format.printf
    "@.== Gate-simulation throughput (%d lanes, %d-word strips) ==@." P.lanes
    strip_words;
  let rows = sim_measurements () in
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
       engine as it stood before strips (fir16 single-domain, recorded
       in BENCH_solvers.json schema 3), so the gate measures the strip
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

(* ------------------------------ json ------------------------------ *)

(* Machine-readable solver metrics, written to BENCH_solvers.json with
   Thr_util.Json: for every Table 3/4 row the licence search's answer and
   effort, plus — on rows whose literal ILP stays small enough to
   branch-and-bound in seconds — a warm- vs cold-start comparison of the
   same solve (identical optimum, fewer pivots).  Rows above
   [ilp_var_gate] variables get ["ilp": null]: even with the
   LU-factorised revised simplex their branch-and-bound trees are too
   deep to finish within the node cap (the tight elliptic ILP alone has
   ~10k variables).  A final section
   drives the same rows through the optimisation service twice and
   records the cache hit-rate and service-side p50/p95 of the warm
   second pass. *)

module J = T.Json

let ilp_var_gate = 800
let ilp_node_cap = 2_000

(* round to 6 significant digits so BENCH_solvers.json diffs stay small *)
let sig6 x =
  if x = 0.0 || not (Float.is_finite x) then x
  else
    let scale = 10.0 ** (5.0 -. Float.floor (Float.log10 (Float.abs x))) in
    Float.round (x *. scale) /. scale

let json_quality = function
  | T.Optimize.Optimal -> "optimal"
  | T.Optimize.Incumbent -> "incumbent"
  | T.Optimize.Heuristic -> "heuristic"

(* one warm or cold branch-and-bound run over a built formulation *)
let json_ilp_side ~warm (f : T.Ilp_formulation.t) =
  let t0 = Unix.gettimeofday () in
  let outcome, st =
    T.Ilp_solve.solve ~max_nodes:ilp_node_cap ~priority:f.T.Ilp_formulation.priority_vars
      ~warm f.T.Ilp_formulation.model
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let mc =
    match outcome with
    | T.Ilp_solve.Optimal sol | T.Ilp_solve.Budget (Some sol) ->
        J.Int (T.Design.cost (f.T.Ilp_formulation.read_design sol))
    | _ -> J.Null
  in
  let sx = st.T.Ilp_solve.simplex in
  (* share of node LPs answered from a revived basis; lp_solves can be 0
     when the node budget is 0, hence the guard *)
  let hit =
    float_of_int sx.T.Simplex.warm_solves
    /. float_of_int (max 1 st.T.Ilp_solve.lp_solves)
  in
  ( J.Obj
      [ ("mc", mc);
        ("nodes", J.Int st.T.Ilp_solve.nodes);
        ("lp_solves", J.Int st.T.Ilp_solve.lp_solves);
        ("pivots", J.Int (T.Ilp_solve.total_pivots st));
        ("warm_solves", J.Int sx.T.Simplex.warm_solves);
        ("cold_solves", J.Int sx.T.Simplex.cold_solves);
        ("refactorizations", J.Int sx.T.Simplex.refactorizations);
        ("eta_updates", J.Int sx.T.Simplex.eta_updates);
        ("cover_cuts", J.Int st.T.Ilp_solve.cover_cuts);
        ("clique_cuts", J.Int st.T.Ilp_solve.clique_cuts);
        ("cut_rounds", J.Int st.T.Ilp_solve.cut_rounds);
        ("warm_hit_rate", J.Float (sig6 hit));
        ("seconds", J.Float (sig6 seconds)) ],
    (T.Ilp_solve.total_pivots st, seconds) )

(* Per-row deltas of the process-wide metrics registry (simplex pivots,
   B&B and CSP nodes, licence candidates).  Registry counters are global,
   so with --jobs > 1 concurrent rows bleed into each other's deltas;
   with --jobs 1 they are exact.  Readers of schema 1 ignore the extra
   field. *)
let registry_deltas before after =
  let v l name = match List.assoc_opt name l with Some x -> x | None -> 0.0 in
  List.map
    (fun name -> (name, J.Int (int_of_float (v after name -. v before name))))
    [
      "simplex_pivots_total";
      "simplex_warm_solves_total";
      "simplex_cold_solves_total";
      "bb_nodes_total";
      "csp_nodes_total";
      "license_candidates_total";
    ]

(* one row -> (json object, (warm, cold) pivots when compared) *)
let json_row ~table ~mode row =
  let snap0 = T.Metrics.snapshot () in
  let spec = spec_of_row ~mode row in
  let ls =
    match
      T.Optimize.run ~per_call_nodes:150_000 ~max_candidates:300_000
        ~time_limit:30.0 spec
    with
    | Ok { design; quality; seconds; candidates; _ } ->
        [
          ("mc", J.Int (T.Design.cost design));
          ("quality", J.String (json_quality quality));
          ("seconds", J.Float (sig6 seconds));
          ("candidates", J.Int candidates);
        ]
    | Error e ->
        [
          ("mc", J.Null);
          ( "quality",
            J.String
              (match e with
              | T.Optimize.Infeasible_proven -> "infeasible"
              | T.Optimize.Infeasible_budget -> "budget") );
          ("seconds", J.Null);
          ("candidates", J.Null);
        ]
  in
  let f = T.Ilp_formulation.build spec in
  let nv = T.Ilp_model.n_vars f.T.Ilp_formulation.model in
  let ilp, pivots =
    if nv > ilp_var_gate then (J.Null, None)
    else begin
      let warm_json, (warm_piv, warm_secs) = json_ilp_side ~warm:true f in
      let cold_json, (cold_piv, _) = json_ilp_side ~warm:false f in
      let label = Printf.sprintf "%s %s lambda=%d" table row.bench row.lambda in
      ( J.Obj
          [ ("vars", J.Int nv);
            ("max_nodes", J.Int ilp_node_cap);
            ("warm", warm_json);
            ("cold", cold_json);
            ( "pivot_ratio",
              J.Float
                (sig6 (float_of_int cold_piv /. float_of_int (max 1 warm_piv)))
            ) ],
        Some (warm_piv, cold_piv, warm_secs, label) )
    end
  in
  let metrics = registry_deltas snap0 (T.Metrics.snapshot ()) in
  ( J.Obj
      ([
         ("table", J.String table);
         ("bench", J.String row.bench);
         ("lambda", J.Int row.lambda);
         ("l_det", J.Int row.l_det);
         ("l_rec", J.Int row.l_rec);
         ("frac", J.Float row.frac);
         ("paper_mc", J.String row.paper_mc);
       ]
      @ ls
      @ [ ("ilp", ilp); ("metrics", J.Obj metrics) ]),
    pivots )

(* Drive every Table 3/4 row through the optimisation service twice: a
   cold pass that populates the content-addressed solve cache and a warm
   pass answered from it.  Stats come from the service's own "stats"
   request, so the recorded hit-rate and p50/p95 are exactly what a
   client would observe.  Hard rows that degrade to the greedy incumbent
   within the deadline are (by design) not cached, so the hit-rate also
   documents how many of the paper's rows are service-cacheable within
   the per-request budget. *)
let json_service_pass () =
  let module S = Thr_server.Service in
  let config =
    { S.default_config with S.default_deadline_ms = Some 10_000 }
  in
  let service = S.create ~config () in
  let request ~mode row =
    let spec = spec_of_row ~mode row in
    J.to_string
      (J.Obj
         [ ("op", J.String "solve");
           ("dfg", J.String (T.Dfg_parse.to_string spec.T.Spec.dfg));
           ("catalog", J.String "eight");
           ( "mode",
             J.String
               (match mode with
               | T.Spec.Detection_only -> "detection"
               | T.Spec.Detection_and_recovery -> "detection_and_recovery") );
           ("latency_detect", J.Int spec.T.Spec.latency_detect);
           ("latency_recover", J.Int spec.T.Spec.latency_recover);
           ("area", J.Int spec.T.Spec.area_limit) ])
  in
  let work =
    List.map (fun r -> (T.Spec.Detection_only, r)) table3_rows
    @ List.map (fun r -> (T.Spec.Detection_and_recovery, r)) table4_rows
  in
  let lines = List.map (fun (mode, row) -> request ~mode row) work in
  let pass () =
    List.fold_left
      (fun hits line ->
        match S.handle_line service line with
        | J.Obj fields ->
            if List.assoc_opt "cache_hit" fields = Some (J.Bool true) then
              hits + 1
            else hits
        | _ -> hits)
      0 lines
  in
  let t0 = Unix.gettimeofday () in
  let cold_hits = pass () in
  let t_cold = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  let warm_hits = pass () in
  let t_warm = Unix.gettimeofday () -. t1 in
  let stats =
    match S.stats_json service with
    | J.Obj fields -> (
        match List.assoc_opt "stats" fields with Some s -> s | None -> J.Null)
    | _ -> J.Null
  in
  let n = List.length lines in
  Format.printf
    "service: %d rows, cold pass %.1fs (%d hits), warm pass %.3fs (%d/%d \
     hits)@."
    n t_cold cold_hits t_warm warm_hits n;
  J.Obj
    [ ("rows", J.Int n);
      ("deadline_ms", J.Int 10_000);
      ("cold_seconds", J.Float t_cold);
      ("warm_seconds", J.Float t_warm);
      ( "warm_hit_rate",
        J.Float (float_of_int warm_hits /. float_of_int (max 1 n)) );
      ( "warm_speedup",
        J.Float (t_cold /. Float.max 1e-9 t_warm) );
      ("stats", stats) ]

let json () =
  Format.printf "@.== Solver metrics -> BENCH_solvers.json ==@.";
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
    T.Dpool.run ~jobs:!jobs (fun pool ->
        T.Dpool.map pool
          (fun (table, mode, row) -> json_row ~table ~mode row)
          work)
  in
  let warm_total, cold_total, compared, slowest =
    List.fold_left
      (fun (w, c, n, sl) (_, p) ->
        match p with
        | Some (pw, pc, secs, label) ->
            let sl =
              match sl with
              | Some (s0, _) when s0 >= secs -> sl
              | _ -> Some (secs, label)
            in
            (w + pw, c + pc, n + 1, sl)
        | None -> (w, c, n, sl))
      (0, 0, 0, None) results
  in
  let ratio = float_of_int cold_total /. float_of_int (max 1 warm_total) in
  let service = json_service_pass () in
  let doc =
    J.Obj
      [ (* 5: the "packed" and "incremental" sim modes are gone with
           their engines; rows are scalar / strips / fault-packed.
           4: "sim" becomes per-mode rows (scalar / packed / strips /
           incremental / fault-packed) with an activity column, replacing
           the scalar/packed/sharded triple.
           3: ILP sides gain LU/cut counters, warm_hit_rate is the share
           of node LPs warm-started (was warm/(warm+cold) solve mix), and
           floats are rounded to 6 significant digits.
           2: per-row "metrics" registry deltas; 1: no such field *)
        ("schema", J.Int 5);
        ("rows", J.List (List.map fst results));
        ( "summary",
          J.Obj
            [ ("rows_compared", J.Int compared);
              ("warm_pivots", J.Int warm_total);
              ("cold_pivots", J.Int cold_total);
              ( "max_warm_seconds",
                match slowest with
                | Some (s, _) -> J.Float (sig6 s)
                | None -> J.Null );
              ("pivot_ratio", J.Float (sig6 ratio)) ] );
        ("service", service);
        ( "sim",
          J.List
            (List.map
               (fun r ->
                 J.Obj
                   [ ("bench", J.String r.sim_bench);
                     ("nets", J.Int r.sim_nets);
                     ("mode", J.String r.sim_mode);
                     ("activity", J.Float r.sim_activity);
                     ("vps", J.Float (sig6 r.sim_vps)) ])
               (sim_measurements ())) );
        ("jobs", J.Int !jobs) ]
  in
  let oc = open_out "BENCH_solvers.json" in
  output_string oc (J.to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc;
  Format.printf
    "wrote BENCH_solvers.json (%d rows, %d with warm/cold ILP comparison; \
     cold/warm pivot ratio %.2fx)@."
    (List.length results) compared ratio;
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

(* ----------------------------- timing ----------------------------- *)

let timing () =
  let open Bechamel in
  let open Toolkit in
  Format.printf "@.== Timing (Bechamel, monotonic clock) ==@.";
  let solve ~mode ~name ~frac () =
    let dfg = Option.get (T.Benchmarks.find name) in
    let cp = T.Dfg.critical_path dfg in
    let spec =
      spec_for ~mode ~dfg ~latency_detect:(cp + 1) ~latency_recover:cp ~frac
    in
    match T.License_search.search spec with
    | T.License_search.Solved _, _ -> ()
    | _ -> ()
  in
  let engine_design =
    let spec =
      T.Spec.make ~dfg:(T.Benchmarks.motivational ()) ~catalog:T.Catalog.table1
        ~latency_detect:4 ~latency_recover:3 ~area_limit:40_000 ()
    in
    match T.Optimize.run spec with
    | Ok { design; _ } -> design
    | Error _ -> assert false
  in
  let env =
    List.map (fun i -> (i, 9)) (T.Dfg.inputs engine_design.T.Design.spec.T.Spec.dfg)
  in
  let simplex () =
    let p = T.Simplex.create ~n_vars:6 in
    T.Simplex.set_objective p [ (0, -3.0); (1, -5.0); (2, 1.0); (3, -2.0) ];
    T.Simplex.add_constraint p [ (0, 1.0); (2, 2.0) ] T.Simplex.Le 4.0;
    T.Simplex.add_constraint p [ (1, 2.0); (3, 1.0) ] T.Simplex.Le 12.0;
    T.Simplex.add_constraint p [ (0, 3.0); (1, 2.0); (4, 1.0) ] T.Simplex.Le 18.0;
    T.Simplex.add_constraint p [ (3, 1.0); (5, -1.0) ] T.Simplex.Ge 1.0;
    ignore (T.Simplex.solve p)
  in
  let tests =
    Test.make_grouped ~name:"thls"
      [
        (* one Test per regenerated table/figure *)
        Test.make ~name:"fig5:motivational"
          (Staged.stage (fun () ->
               let spec =
                 T.Spec.make ~dfg:(T.Benchmarks.motivational ())
                   ~catalog:T.Catalog.table1 ~latency_detect:4 ~latency_recover:3
                   ~area_limit:22_000 ()
               in
               ignore (T.License_search.search spec)));
        Test.make ~name:"table3:diff2-row"
          (Staged.stage (solve ~mode:T.Spec.Detection_only ~name:"diff2" ~frac:2.5));
        Test.make ~name:"table4:diff2-row"
          (Staged.stage
             (solve ~mode:T.Spec.Detection_and_recovery ~name:"diff2" ~frac:2.5));
        Test.make ~name:"campaign:engine-run"
          (Staged.stage (fun () -> ignore (T.Engine.run engine_design env)));
        Test.make ~name:"substrate:simplex" (Staged.stage simplex);
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with
        | Some [ est ] -> est
        | Some _ | None -> nan
      in
      if ns >= 1e9 then Format.printf "  %-28s %8.2f s/run@." name (ns /. 1e9)
      else if ns >= 1e6 then Format.printf "  %-28s %8.2f ms/run@." name (ns /. 1e6)
      else Format.printf "  %-28s %8.2f us/run@." name (ns /. 1e3))
    (List.sort compare rows);
  (* branch-and-bound / simplex effort counters on one representative
     warm-started solve (polynom, tight area, detection only) *)
  let row = List.nth table3_rows 1 in
  let spec = spec_of_row ~mode:T.Spec.Detection_only row in
  let f = T.Ilp_formulation.build spec in
  let _, st =
    T.Ilp_solve.solve ~priority:f.T.Ilp_formulation.priority_vars
      f.T.Ilp_formulation.model
  in
  Format.printf
    "@.B&B effort on %s lambda=%d (tight): nodes=%d lp_solves=%d@.  %a@."
    row.bench row.lambda st.T.Ilp_solve.nodes st.T.Ilp_solve.lp_solves
    T.Simplex.pp_stats st.T.Ilp_solve.simplex

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
  let rows = ref [] in
  let total_candidates = ref 0
  and total_certified = ref 0
  and total_inconclusive = ref 0 in
  List.iter
    (fun (name, catalog, l_det, l_rec, area) ->
      let dfg = Option.get (T.Benchmarks.find name) in
      let spec =
        T.Spec.make ~dfg ~catalog ~latency_detect:l_det ~latency_recover:l_rec
          ~area_limit:area ()
      in
      match T.Optimize.run spec with
      | Error _ -> Format.printf "  %-12s no design@." name
      | Ok { design; _ } ->
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
              let certs = delta "thr_sat_certificates_total" in
              let clauses_in = delta "thr_sat_preprocess_clauses_in_total" in
              let clauses_out = delta "thr_sat_preprocess_clauses_out_total" in
              let removed_vars = delta "thr_sat_preprocess_removed_vars_total" in
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
                    shrink base_ms seq_inconclusive ms speedup;
                  rows :=
                    J.Obj
                      [
                        ("bench", J.String name);
                        ("mutant", J.String mutant);
                        ("candidates", J.Int s.T.Check.prove_candidates);
                        ("reachable", J.Int s.T.Check.prove_reachable);
                        ("certified", J.Int s.T.Check.prove_certified);
                        ("bounded_unreachable", J.Int s.T.Check.prove_unreachable);
                        ("inconclusive", J.Int s.T.Check.prove_inconclusive);
                        ("exit", J.Int (T.Exit_code.code (T.Check.exit_code report)));
                        ("preprocess_shrink", J.Float (sig6 shrink));
                        ("preprocess_removed_vars", J.Int (int_of_float removed_vars));
                        ("certificates", J.Int (int_of_float certs));
                        ("sequential_ms", J.Float (sig6 base_ms));
                        ("portfolio_ms", J.Float (sig6 ms));
                        ("speedup", J.Float (sig6 speedup));
                      ]
                    :: !rows)
            (mutants design))
    [
      ("motivational", T.Catalog.table1, 4, 3, 40_000);
      ("diff2", T.Catalog.eight_vendors, 5, 4, 90_000);
    ];
  let rate =
    float_of_int !total_certified /. float_of_int (max 1 !total_candidates)
  in
  Format.printf
    "(certificate rate %.2f over %d candidates; every verdict exact: a \
     witness replayed on the packed simulator, an unbounded k-induction or \
     combinational certificate, or bounded unreachability)@."
    rate !total_candidates;
  (* merge the sat section into BENCH_solvers.json, preserving whatever
     `bench -- json` wrote there *)
  let existing =
    try
      let ic = open_in "BENCH_solvers.json" in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      match J.parse s with Ok (J.Obj fields) -> fields | _ -> []
    with Sys_error _ -> []
  in
  let sat_doc =
    J.Obj
      [
        ("bound", J.Int T.Bmc.default_bound);
        ("jobs", J.Int !jobs);
        ("rows", J.List (List.rev !rows));
        ("candidates", J.Int !total_candidates);
        ("certified", J.Int !total_certified);
        ("certificate_rate", J.Float (sig6 rate));
        ("inconclusive", J.Int !total_inconclusive);
      ]
  in
  let fields =
    ("sat", sat_doc) :: List.filter (fun (k, _) -> k <> "sat") existing
  in
  let oc = open_out "BENCH_solvers.json" in
  output_string oc (J.to_string ~pretty:true (J.Obj fields));
  output_char oc '\n';
  close_out oc;
  Format.printf "merged sat section into BENCH_solvers.json@.";
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
    match sim_netlists () with
    | (_, rtl) :: _ -> rtl
    | [] -> failwith "no netlist"
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
    ("timing", timing);
    ("json", json);
  ]

let () =
  jobs := T.Dpool.default_jobs ();
  let set_jobs s =
    match int_of_string_opt s with
    | Some n -> jobs := max 1 n
    | None ->
        Format.printf "--jobs expects an integer, got %S@." s;
        exit 1
  in
  let set_trace path =
    T.Trace.enable ();
    at_exit (fun () -> T.Trace.write_file path)
  in
  let set_min_speedup s =
    match float_of_string_opt s with
    | Some x -> min_speedup := x
    | None ->
        Format.printf "--min-speedup expects a number, got %S@." s;
        exit 1
  in
  let set_max_inconclusive s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> max_inconclusive := n
    | _ ->
        Format.printf
          "--max-inconclusive expects a non-negative integer, got %S@." s;
        exit 1
  in
  let set_max_ilp_warm s =
    match float_of_string_opt s with
    | Some x when x > 0.0 -> max_ilp_warm_seconds := x
    | _ ->
        Format.printf "--max-ilp-warm-seconds expects a positive number, got %S@." s;
        exit 1
  in
  let set_bench s =
    bench_filter :=
      List.filter (fun b -> b <> "") (String.split_on_char ',' s)
  in
  let rec parse acc = function
    | [] -> List.rev acc
    | [ "--jobs" ] ->
        Format.printf "--jobs expects an integer argument@.";
        exit 1
    | "--jobs" :: n :: rest ->
        set_jobs n;
        parse acc rest
    | a :: rest when String.length a > 7 && String.sub a 0 7 = "--jobs=" ->
        set_jobs (String.sub a 7 (String.length a - 7));
        parse acc rest
    | [ "--trace" ] ->
        Format.printf "--trace expects a file argument@.";
        exit 1
    | "--trace" :: path :: rest ->
        set_trace path;
        parse acc rest
    | a :: rest when String.length a > 8 && String.sub a 0 8 = "--trace=" ->
        set_trace (String.sub a 8 (String.length a - 8));
        parse acc rest
    | [ "--min-speedup" ] ->
        Format.printf "--min-speedup expects a number argument@.";
        exit 1
    | "--min-speedup" :: x :: rest ->
        set_min_speedup x;
        parse acc rest
    | a :: rest when String.length a > 14 && String.sub a 0 14 = "--min-speedup=" ->
        set_min_speedup (String.sub a 14 (String.length a - 14));
        parse acc rest
    | [ "--max-inconclusive" ] ->
        Format.printf "--max-inconclusive expects an integer argument@.";
        exit 1
    | "--max-inconclusive" :: n :: rest ->
        set_max_inconclusive n;
        parse acc rest
    | a :: rest
      when String.length a > 19 && String.sub a 0 19 = "--max-inconclusive=" ->
        set_max_inconclusive (String.sub a 19 (String.length a - 19));
        parse acc rest
    | [ "--max-ilp-warm-seconds" ] ->
        Format.printf "--max-ilp-warm-seconds expects a number argument@.";
        exit 1
    | "--max-ilp-warm-seconds" :: x :: rest ->
        set_max_ilp_warm x;
        parse acc rest
    | a :: rest
      when String.length a > 23 && String.sub a 0 23 = "--max-ilp-warm-seconds=" ->
        set_max_ilp_warm (String.sub a 23 (String.length a - 23));
        parse acc rest
    | [ "--bench" ] ->
        Format.printf "--bench expects a comma-separated benchmark list@.";
        exit 1
    | "--bench" :: b :: rest ->
        set_bench b;
        parse acc rest
    | a :: rest when String.length a > 8 && String.sub a 0 8 = "--bench=" ->
        set_bench (String.sub a 8 (String.length a - 8));
        parse acc rest
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let to_run =
    match args with
    | [] ->
        [
          "fig5"; "table3"; "table4"; "campaign"; "ablation"; "testtime"; "rtl";
          "timing";
        ]
    | l -> l
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> f ()
      | None ->
          Format.printf "unknown experiment %S (known: %s)@." name
            (String.concat ", " (List.map fst experiments));
          exit 1)
    to_run
