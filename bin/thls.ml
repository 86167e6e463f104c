(* thls — command-line front end for the Trojan-tolerant HLS library.

   Subcommands:
     list        benchmark DFGs with their stats
     show        print a benchmark DFG (text format or DOT)
     catalog     print a built-in vendor catalogue
     optimize    minimum-cost scheduling/binding for a benchmark
     simulate    run a Trojan-injection campaign on an optimised design
     serve       long-running optimisation service (socket or stdio)
     submit      send one request to a running `thls serve`
     lint        static analysis of an elaborated netlist

   Exit codes, uniform across the solving and checking commands
   (optimize, simulate, rtl, submit, lint) — the one table lives in
   Thr_util.Exit_code: 0 = solved/clean; 2 = proven infeasible;
   3 = search budget exhausted with no incumbent; 4 = lint findings;
   1 = usage or I/O errors. *)

open Cmdliner
module T = Trojan_hls
module Json = Thr_util.Json
module Exit_code = Thr_util.Exit_code

let exit_infeasible = Exit_code.code Exit_code.Infeasible
let exit_budget = Exit_code.code Exit_code.Budget

let find_dfg name =
  match T.Benchmarks.find name with
  | Some d -> Ok d
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %S (try: %s)" name
           (String.concat ", " T.Benchmarks.names))

let catalog_of_string = function
  | "table1" -> Ok T.Catalog.table1
  | "eight" -> Ok T.Catalog.eight_vendors
  | s -> Error (Printf.sprintf "unknown catalogue %S (table1 | eight)" s)

(* ------------------------------------------------------------------ *)

let list_cmd =
  let doc = "List the built-in benchmark DFGs." in
  let run () =
    List.iter
      (fun name ->
        match T.Benchmarks.find name with
        | None -> ()
        | Some d ->
            Printf.printf "%-12s  %2d ops, critical path %d, %2d muls\n" name
              (T.Dfg.n_ops d) (T.Dfg.critical_path d)
              (T.Dfg.count_kind d T.Op.Mul))
      T.Benchmarks.names
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let bench_arg =
  let doc = "Benchmark name (see $(b,thls list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let show_cmd =
  let doc = "Print a benchmark DFG as text or Graphviz DOT." in
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT instead of text.")
  in
  let run name dot =
    match find_dfg name with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok d ->
        if dot then print_string (T.Dfg.to_dot d)
        else print_string (T.Dfg_parse.to_string d)
  in
  Cmd.v (Cmd.info "show" ~doc) Term.(const run $ bench_arg $ dot)

let catalog_cmd =
  let doc = "Print a built-in vendor catalogue." in
  let which =
    Arg.(value & pos 0 string "eight" & info [] ~docv:"CATALOG" ~doc:"table1 | eight")
  in
  let run which =
    match catalog_of_string which with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok c -> Format.printf "%a@." T.Catalog.pp c
  in
  Cmd.v (Cmd.info "catalog" ~doc) Term.(const run $ which)

(* ------------------------------------------------------------------ *)

let catalog_flag =
  Arg.(
    value
    & opt string "eight"
    & info [ "catalog" ] ~docv:"CATALOG" ~doc:"Vendor catalogue: table1 | eight.")

let latency_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "latency"; "l" ] ~docv:"STEPS"
        ~doc:"Detection-phase latency constraint (default: critical path + 1).")

let latency_rec_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "latency-recover" ] ~docv:"STEPS"
        ~doc:"Recovery-phase latency constraint (default: critical path).")

let area_flag =
  Arg.(
    value
    & opt (some int) None
    & info [ "area"; "a" ] ~docv:"CELLS"
        ~doc:"Total area constraint (default: generous, 10x a multiplier per op).")

let detection_only_flag =
  Arg.(
    value & flag
    & info [ "detection-only" ]
        ~doc:"Optimise the Rajendran et al. detection-only baseline (Table 3).")

let jobs_flag =
  Arg.(
    value
    & opt int (T.Dpool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Domains used for parallel work: with N >= 2 $(b,optimize) races \
           the licence search against the literal ILP, $(b,simulate) \
           fans the injection trials out and $(b,lint --prove) spreads \
           independent candidate clusters (its verdicts do not depend on \
           N).  1 = fully sequential and deterministic (default: cores - \
           1).")

(* Dpool.create rejects jobs < 1; turn that into a clean CLI error. *)
let check_jobs jobs =
  if jobs < 1 then begin
    T.Log.error "invalid_jobs"
      [ ("jobs", string_of_int jobs); ("hint", "--jobs must be >= 1") ];
    exit 1
  end

(* Induction.prove rejects a bound < 1; the same clean CLI error. *)
let check_prove = function
  | Some k when k < 1 ->
      T.Log.error "invalid_prove"
        [ ("prove", string_of_int k); ("hint", "--prove must be >= 1") ];
      exit 1
  | _ -> ()

(* simulate --record's --width and --record-depth, checked before the
   optimiser runs *)
let check_record_flags ~width ~depth =
  if width < T.Rtl.min_width || width > T.Rtl.max_width || depth < 1 then begin
    T.Log.error "invalid_record_flags"
      [ ("width", string_of_int width); ("record_depth", string_of_int depth);
        ( "hint",
          Printf.sprintf "--width must be in [%d, %d], --record-depth >= 1"
            T.Rtl.min_width T.Rtl.max_width ) ];
    Exit_code.exit Exit_code.Usage
  end

(* Rtl.elaborate rejects a width or an injection that does not fit with
   Invalid_argument: a one-line usage error, not an uncaught exception. *)
let elaborated f =
  try f ()
  with Invalid_argument msg ->
    prerr_endline ("error: " ^ msg);
    Exit_code.exit Exit_code.Usage

let trace_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a Chrome trace_event JSON profile of the run to $(docv) \
           (open it in chrome://tracing or Perfetto).")

(* the file is written at exit so a trace survives exit 2/3 paths too *)
let setup_trace = function
  | None -> ()
  | Some path ->
      T.Trace.enable ();
      at_exit (fun () -> T.Trace.write_file path)

let solver_flag =
  let solver_conv =
    Arg.enum
      [
        ("search", T.Optimize.License_search);
        ("ilp", T.Optimize.Ilp);
        ("greedy", T.Optimize.Greedy);
      ]
  in
  Arg.(
    value
    & opt solver_conv T.Optimize.License_search
    & info [ "solver" ] ~docv:"SOLVER" ~doc:"search | ilp | greedy.")

let make_spec dfg catalog ~detection_only ~latency ~latency_recover ~area =
  let cp = T.Dfg.critical_path dfg in
  let latency_detect = match latency with Some l -> l | None -> cp + 1 in
  let area_limit =
    match area with Some a -> a | None -> 10 * 7000 * T.Dfg.n_ops dfg
  in
  T.Spec.make
    ~mode:
      (if detection_only then T.Spec.Detection_only
       else T.Spec.Detection_and_recovery)
    ?latency_recover ~dfg ~catalog ~latency_detect ~area_limit ()

let optimize_cmd =
  let doc = "Find a minimum-licence-cost Trojan-tolerant design." in
  let run name cat detection_only latency latency_recover area solver jobs
      trace =
    match (find_dfg name, catalog_of_string cat) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 1
    | Ok dfg, Ok catalog -> (
        check_jobs jobs;
        setup_trace trace;
        let spec =
          make_spec dfg catalog ~detection_only ~latency ~latency_recover ~area
        in
        match T.Optimize.run ~solver ~jobs spec with
        | Ok { design; quality; seconds; _ } ->
            Format.printf "%a" T.Design.report design;
            Format.printf "quality: %s, %.2fs@."
              (match quality with
              | T.Optimize.Optimal -> "proven optimal"
              | T.Optimize.Incumbent -> "incumbent (*)"
              | T.Optimize.Heuristic -> "heuristic")
              seconds
        | Error T.Optimize.Infeasible_proven ->
            print_endline "infeasible: no design satisfies the constraints";
            exit exit_infeasible
        | Error T.Optimize.Infeasible_budget ->
            print_endline "no design found within the search budget";
            exit exit_budget)
  in
  Cmd.v
    (Cmd.info "optimize" ~doc)
    Term.(
      const run $ bench_arg $ catalog_flag $ detection_only_flag $ latency_flag
      $ latency_rec_flag $ area_flag $ solver_flag $ jobs_flag $ trace_flag)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write_text path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* --record: a single recorded gate-level run with the flight recorder
   and journal on, frozen into a postmortem bundle.  The behavioural
   campaign is skipped on purpose: it injects a Trojan into *every*
   trial, so recording it would journal detections even for a clean
   design. *)
let record_run ~design ~mutant ~seed ~width ~depth dir =
  let spec = design.T.Design.spec in
  let dfg = spec.T.Spec.dfg in
  T.Journal.enable ();
  T.Journal.clear ();
  let prng = T.Prng.create ~seed in
  let cfg = T.Campaign.default_config in
  let env =
    List.map
      (fun nm -> (nm, T.Prng.int_in prng cfg.T.Campaign.input_lo cfg.T.Campaign.input_hi))
      (T.Dfg.inputs dfg)
  in
  let config =
    { cfg with T.Campaign.mask = (1 lsl min width 16) - 1 }
  in
  let injections, cls, mutant_name =
    match mutant with
    | `None -> ([], "", "none")
    | `Trojan -> ([ T.Campaign.armed_injection ~config design env ], "comb", "trojan")
    | `Trojan_seq ->
        ( [ T.Campaign.armed_injection ~config ~sequential:true design env ],
          "seq",
          "trojan-seq" )
  in
  let rtl = elaborated (fun () -> T.Rtl.elaborate ~width ~injections design) in
  (* static analysis feeds the rare-net candidates into the watch-list *)
  let report = T.Rtl.check rtl in
  let watch = T.Rtl.watchlist ~report rtl in
  let recorded = T.Rtl.run_recorded ~depth ~watch ~cls rtl env in
  mkdir_p dir;
  T.Journal.write_file (Filename.concat dir "journal.json");
  let window = recorded.T.Rtl.rec_window in
  let wave =
    {
      T.Vcd.v_names = window.T.Recorder.w_names;
      v_cycles = window.T.Recorder.w_cycles;
      v_bits = T.Recorder.lane_bits window ~lane:0;
    }
  in
  T.Vcd.write_file (Filename.concat dir "wave.vcd") wave;
  write_text
    (Filename.concat dir "metrics.json")
    (Json.to_string ~pretty:true (T.Metrics.to_json ()) ^ "\n");
  let first = recorded.T.Rtl.rec_result.T.Rtl.r_first_detect in
  let summary =
    Json.Obj
      [
        ("bench", Json.String (T.Dfg.name dfg));
        ("mutant", Json.String mutant_name);
        ("seed", Json.Int seed);
        ("width", Json.Int width);
        ("cycles", Json.Int rtl.T.Rtl.total_cycles);
        ("latency_detect", Json.Int spec.T.Spec.latency_detect);
        ("latency_recover", Json.Int spec.T.Spec.latency_recover);
        ("detected", Json.Bool (first <> None));
        ( "first_detect_cycle",
          match first with Some c -> Json.Int c | None -> Json.Null );
        ("signals", Json.Int (Array.length window.T.Recorder.w_names));
        ("window_cycles", Json.Int (Array.length window.T.Recorder.w_cycles));
        ("env", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) env));
      ]
  in
  write_text
    (Filename.concat dir "summary.json")
    (Json.to_string ~pretty:true summary ^ "\n");
  Format.printf "recorded %d cycles of %d signals into %s@."
    rtl.T.Rtl.total_cycles
    (Array.length window.T.Recorder.w_names)
    dir;
  (match first with
  | Some c -> Format.printf "mismatch detected at cycle %d@." c
  | None -> Format.printf "no detection (comparator ended clean)@.");
  if mutant <> `None && first = None then begin
    prerr_endline "error: an injected mutant produced no detection";
    exit 1
  end

let simulate_cmd =
  let doc = "Optimise a design, then run a Trojan-injection campaign on it." in
  let runs_flag =
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N" ~doc:"Injection runs.")
  in
  let seed_flag =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let vectors_flag =
    Arg.(
      value & opt int 0
      & info [ "vectors" ] ~docv:"N"
          ~doc:
            "After the campaign, co-simulate $(docv) random input vectors \
             of the clean elaborated netlist against the behavioural model \
             on the bit-parallel gate engine (0 = skip).  Exits non-zero \
             on any disagreement.")
  in
  let record_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"DIR"
          ~doc:
            "Skip the campaign and instead run one recorded gate-level \
             simulation with the runtime journal and flight recorder on, \
             writing a postmortem bundle (journal.json, wave.vcd, \
             metrics.json, summary.json) to $(docv).  Render it with \
             $(b,thls postmortem).")
  in
  let mutant_flag =
    let mutant_conv =
      Arg.enum [ ("none", `None); ("trojan", `Trojan); ("trojan-seq", `Trojan_seq) ]
    in
    Arg.(
      value & opt mutant_conv `None
      & info [ "mutant" ] ~docv:"KIND"
          ~doc:
            "For --record: inject an armed Trojan (none | trojan | \
             trojan-seq) whose trigger pattern matches the operands the \
             recorded run actually computes, guaranteeing a runtime \
             detection.")
  in
  let width_flag =
    Arg.(
      value & opt int 16
      & info [ "width" ] ~docv:"BITS" ~doc:"Datapath width for --record.")
  in
  let depth_flag =
    Arg.(
      value & opt int 256
      & info [ "record-depth" ] ~docv:"CYCLES"
          ~doc:"Flight-recorder ring depth for --record.")
  in
  let mutants_flag =
    Arg.(
      value & flag
      & info [ "mutants" ]
          ~doc:
            "With --vectors: also run concurrent fault simulation — \
             elaborate the design once with the canned Trojan zoo behind \
             per-mutant arming gates and score the clean circuit plus \
             every mutant against each vector in single lane-strip \
             passes.  Exits non-zero if the clean lane diverges from the \
             behavioural model, any mutant escapes undetected, or the \
             decoy control fires.")
  in
  let run name cat latency latency_recover area runs seed vectors jobs trace
      record mutant width depth mutants =
    match (find_dfg name, catalog_of_string cat) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 1
    | Ok dfg, Ok catalog -> (
        check_jobs jobs;
        if record <> None then check_record_flags ~width ~depth;
        setup_trace trace;
        let spec =
          make_spec dfg catalog ~detection_only:false ~latency ~latency_recover
            ~area
        in
        match T.Optimize.run ~jobs spec with
        | Error T.Optimize.Infeasible_proven ->
            print_endline "infeasible: no design satisfies the constraints";
            exit exit_infeasible
        | Error T.Optimize.Infeasible_budget ->
            print_endline "no design found within the search budget";
            exit exit_budget
        | Ok { design; _ } -> (
            match record with
            | Some dir -> record_run ~design ~mutant ~seed ~width ~depth dir
            | None ->
                let prng = T.Prng.create ~seed in
                let config = { T.Campaign.default_config with n_runs = runs } in
                let result = T.Campaign.run ~config ~jobs ~prng design in
                Format.printf "%a@." T.Campaign.pp_result result;
                if vectors > 0 then begin
                  let cs =
                    T.Campaign.cosim ~config ~jobs ~prng ~vectors design
                  in
                  if T.Campaign.cosim_ok cs then
                    Format.printf
                      "cosim: %d vectors, netlist matches the behavioural \
                       model@."
                      cs.T.Campaign.cosim_vectors
                  else begin
                    Format.printf
                      "cosim: %d/%d vectors disagree with the behavioural \
                       model@."
                      cs.T.Campaign.cosim_mismatches cs.T.Campaign.cosim_vectors;
                    exit 1
                  end;
                  if mutants then begin
                    let mr =
                      T.Campaign.cosim_mutants ~config ~prng ~vectors design
                    in
                    Format.printf "fault simulation: %a@."
                      T.Campaign.pp_mutant_report mr;
                    if T.Campaign.mutant_report_ok mr then
                      Format.printf
                        "fault simulation: clean lane golden, no escapes, \
                         decoy silent@."
                    else begin
                      prerr_endline
                        "error: concurrent fault simulation failed (clean \
                         lane diverged, a mutant escaped, or the decoy \
                         fired)";
                      exit 1
                    end
                  end
                end))
  in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const run $ bench_arg $ catalog_flag $ latency_flag $ latency_rec_flag
      $ area_flag $ runs_flag $ seed_flag $ vectors_flag $ jobs_flag
      $ trace_flag $ record_flag $ mutant_flag $ width_flag $ depth_flag
      $ mutants_flag)

let postmortem_cmd =
  let doc = "Render a postmortem bundle written by simulate --record." in
  let dir_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Bundle directory.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the merged bundle as JSON instead.")
  in
  let read_json path =
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> Error e
    | text -> Json.parse text
  in
  let run dir json =
    let journal_path = Filename.concat dir "journal.json" in
    let summary_path = Filename.concat dir "summary.json" in
    let vcd_path = Filename.concat dir "wave.vcd" in
    let journal = read_json journal_path in
    let summary = read_json summary_path in
    let wave =
      match In_channel.with_open_text vcd_path In_channel.input_all with
      | exception Sys_error e -> Error e
      | text -> T.Vcd.parse text
    in
    match journal with
    | Error e ->
        Printf.eprintf "cannot read %s: %s\n" journal_path e;
        exit 1
    | Ok j -> (
        match T.Journal.events_of_json j with
        | Error e ->
            Printf.eprintf "malformed journal %s: %s\n" journal_path e;
            exit 1
        | Ok events ->
            if json then
              print_endline
                (Json.to_string ~pretty:true
                   (Json.Obj
                      [
                        ( "summary",
                          match summary with Ok s -> s | Error _ -> Json.Null );
                        ("journal", j);
                      ]))
            else begin
              (match summary with
              | Ok s ->
                  let str k =
                    match Json.mem_str k s with Some v -> v | None -> "?"
                  in
                  let intf k =
                    match Json.mem_int k s with
                    | Some v -> string_of_int v
                    | None -> "?"
                  in
                  Printf.printf "bench %s, mutant %s, seed %s, %s cycles\n"
                    (str "bench") (str "mutant") (intf "seed") (intf "cycles");
                  (match Json.mem_int "first_detect_cycle" s with
                  | Some c -> Printf.printf "detected at cycle %d\n" c
                  | None -> print_endline "no detection recorded")
              | Error _ -> ());
              let tbl =
                T.Tablefmt.create
                  ~aligns:
                    [
                      T.Tablefmt.Right; T.Tablefmt.Right; T.Tablefmt.Right;
                      T.Tablefmt.Left; T.Tablefmt.Left;
                    ]
                  ~header:[ "seq"; "cycle"; "lane"; "event"; "context" ] ()
              in
              List.iter
                (fun (ev : T.Journal.event) ->
                  T.Tablefmt.add_row tbl
                    [
                      string_of_int ev.T.Journal.seq;
                      string_of_int ev.T.Journal.cycle;
                      string_of_int ev.T.Journal.lane;
                      T.Journal.kind_name ev.T.Journal.kind;
                      String.concat " "
                        (List.map
                           (fun (k, v) -> Printf.sprintf "%s=%s" k v)
                           ev.T.Journal.ctx);
                    ])
                events;
              if events = [] then print_endline "journal: no events"
              else print_string (T.Tablefmt.render tbl);
              (match wave with
              | Ok w ->
                  let n = Array.length w.T.Vcd.v_cycles in
                  Printf.printf
                    "waveform: %d signals over %d cycles (%d..%d) — %s\n"
                    (Array.length w.T.Vcd.v_names)
                    n
                    (if n > 0 then w.T.Vcd.v_cycles.(0) else 0)
                    (if n > 0 then w.T.Vcd.v_cycles.(n - 1) else 0)
                    vcd_path
              | Error e -> Printf.printf "waveform: unreadable (%s)\n" e)
            end)
  in
  Cmd.v (Cmd.info "postmortem" ~doc) Term.(const run $ dir_arg $ json_flag)

let export_ilp_cmd =
  let doc =
    "Write the paper's ILP (eqs. 3-17) for a benchmark as a CPLEX LP file."
  in
  let out_flag =
    Arg.(
      value
      & opt string "-"
      & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Output path ('-' for stdout).")
  in
  let run name cat detection_only latency latency_recover area out =
    match (find_dfg name, catalog_of_string cat) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 1
    | Ok dfg, Ok catalog ->
        let spec =
          make_spec dfg catalog ~detection_only ~latency ~latency_recover ~area
        in
        let f = T.Ilp_formulation.build spec in
        let text = T.Lp_format.to_string f.T.Ilp_formulation.model in
        if out = "-" then print_string text
        else begin
          T.Lp_format.write f.T.Ilp_formulation.model out;
          Printf.printf "wrote %s (%d variables, %d constraints)\n" out
            (T.Ilp_model.n_vars f.T.Ilp_formulation.model)
            (T.Ilp_model.n_constraints f.T.Ilp_formulation.model)
        end
  in
  Cmd.v
    (Cmd.info "export-ilp" ~doc)
    Term.(
      const run $ bench_arg $ catalog_flag $ detection_only_flag $ latency_flag
      $ latency_rec_flag $ area_flag $ out_flag)

let pareto_cmd =
  let doc = "Sweep latency/area constraints and print the Pareto frontier." in
  let run name cat detection_only =
    match (find_dfg name, catalog_of_string cat) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 1
    | Ok dfg, Ok catalog ->
        let cp = T.Dfg.critical_path dfg in
        let mode =
          if detection_only then T.Spec.Detection_only
          else T.Spec.Detection_and_recovery
        in
        let base = if detection_only then cp else 2 * cp in
        let latencies = List.init 4 (fun i -> base + (i * 2)) in
        let unit_area = 7000 * T.Dfg.n_ops dfg in
        let area_limits = [ unit_area / 8; unit_area / 4; unit_area ] in
        let points =
          T.Pareto.sweep ~mode ~dfg ~catalog ~latencies ~area_limits ()
        in
        Format.printf "frontier of %d points:@." (List.length points);
        List.iter
          (fun p -> Format.printf "  %a@." T.Pareto.pp_point p)
          (T.Pareto.frontier points)
  in
  Cmd.v
    (Cmd.info "pareto" ~doc)
    Term.(const run $ bench_arg $ catalog_flag $ detection_only_flag)

let rtl_cmd =
  let doc = "Elaborate an optimised design to a gate-level netlist." in
  let width_flag =
    Arg.(value & opt int 16 & info [ "width" ] ~docv:"BITS" ~doc:"Datapath width.")
  in
  let verilog_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "verilog" ] ~docv:"FILE" ~doc:"Also write structural Verilog.")
  in
  let run name cat latency latency_recover area width verilog =
    match (find_dfg name, catalog_of_string cat) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 1
    | Ok dfg, Ok catalog -> (
        let spec =
          make_spec dfg catalog ~detection_only:false ~latency ~latency_recover
            ~area
        in
        match T.Optimize.run spec with
        | Error T.Optimize.Infeasible_proven ->
            print_endline "infeasible: no design satisfies the constraints";
            exit exit_infeasible
        | Error T.Optimize.Infeasible_budget ->
            print_endline "no design found within the search budget";
            exit exit_budget
        | Ok { design; _ } ->
            let rtl = elaborated (fun () -> T.Rtl.elaborate ~width design) in
            Printf.printf "%s\n" (T.Rtl.stats rtl);
            match verilog with
            | None -> ()
            | Some path ->
                T.Verilog.write rtl.T.Rtl.netlist path;
                Printf.printf "wrote %s\n" path)
  in
  Cmd.v
    (Cmd.info "rtl" ~doc)
    Term.(
      const run $ bench_arg $ catalog_flag $ latency_flag $ latency_rec_flag
      $ area_flag $ width_flag $ verilog_flag)

let lint_cmd =
  let doc = "Statically analyse an elaborated design's netlist." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Optimises the benchmark, elaborates it to gates and runs the \
         $(b,thr_check) analyser: structural lint, vendor-taint \
         verification (every primary output must be dominated by the \
         mismatch comparator) and rare-net Trojan-trigger scoring.  \
         Exits 0 when the netlist is clean and 4 when any warning or \
         error is reported.";
      `P
        "$(b,--mutant) seeds a known-bad netlist for exercising the \
         analyser: $(b,bypass) drops the first output pair from the \
         mismatch comparator (caught by the taint pass), $(b,trojan) \
         injects a combinational Trojan on a bound core (caught by the \
         rare-net pass), $(b,trojan-seq) injects a sequential \
         consecutive-match counter Trojan, and $(b,trojan-dud) injects a \
         decoy trigger chain that provably can never fire — the canned \
         false positive that $(b,--prove) must discharge with unbounded \
         certificates (exit 0).";
      `P
        "$(b,--prove) escalates every rare-net finding to an exact \
         verdict via the shared-cone prover portfolio (a BMC sweep to \
         the bound, then strengthened k-induction for the survivors; \
         independent candidate clusters spread over $(b,--jobs) domains \
         without changing any verdict): proved reachable (with the concrete \
         activating input sequence, replayed on the packed simulator; \
         exit 4), certified unreachable at $(i,any) depth (a k-induction \
         or combinational-cone certificate, reported with its method and \
         depth), proved unreachable within the bound only (downgraded to \
         Info), or inconclusive when the solver budget runs out (exit 5 \
         when nothing else blocks).";
    ]
  in
  let width_flag =
    Arg.(value & opt int 16 & info [ "width" ] ~docv:"BITS" ~doc:"Datapath width.")
  in
  let threshold_flag =
    Arg.(
      value
      & opt (some float) None
      & info [ "threshold" ] ~docv:"P"
          ~doc:
            "Rare-net activation-probability threshold (default: the \
             calibrated 1e-8).")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the report as JSON instead of a table.")
  in
  let mutant_flag =
    let mutant_conv =
      Arg.enum
        [
          ("none", `None);
          ("bypass", `Bypass);
          ("trojan", `Trojan);
          ("trojan-seq", `Trojan_seq);
          ("trojan-dud", `Trojan_dud);
        ]
    in
    Arg.(
      value & opt mutant_conv `None
      & info [ "mutant" ] ~docv:"KIND"
          ~doc:"none | bypass | trojan | trojan-seq | trojan-dud.")
  in
  let prove_flag =
    Arg.(
      value
      & opt ~vopt:(Some T.Bmc.default_bound) (some int) None
      & info [ "prove" ] ~docv:"K"
          ~doc:
            "Bounded-model-check every rare-net finding up to $(docv) \
             cycles (default 8 when given without a value).")
  in
  let prove_budget_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "prove-budget" ] ~docv:"STEPS"
          ~doc:
            "Solver steps (decisions + propagations + conflicts) each \
             candidate's proof may spend before going inconclusive \
             (default 400000).")
  in
  let empirical_flag =
    Arg.(
      value & opt int 0
      & info [ "empirical" ] ~docv:"N"
          ~doc:
            "Cross-check the rare-net scores against a Monte-Carlo \
             estimate over $(docv) packed simulation vectors (0 = skip).  \
             Reports Info findings only; never changes the exit code.")
  in
  let run name cat detection_only latency latency_recover area width threshold
      mutant empirical prove prove_budget json jobs trace =
    match (find_dfg name, catalog_of_string cat) with
    | Error e, _ | _, Error e ->
        prerr_endline e;
        exit 1
    | Ok dfg, Ok catalog -> (
        check_jobs jobs;
        check_prove prove;
        setup_trace trace;
        let spec =
          make_spec dfg catalog ~detection_only ~latency ~latency_recover ~area
        in
        match T.Optimize.run spec with
        | Error T.Optimize.Infeasible_proven ->
            print_endline "infeasible: no design satisfies the constraints";
            exit exit_infeasible
        | Error T.Optimize.Infeasible_budget ->
            print_endline "no design found within the search budget";
            exit exit_budget
        | Ok { design; _ } ->
            let rtl =
              elaborated @@ fun () ->
              match mutant with
              | `None -> T.Rtl.elaborate ~width design
              | `Bypass ->
                  T.Rtl.elaborate ~width ~seeded_bug:T.Rtl.Comparator_skip
                    design
              | `Trojan ->
                  T.Rtl.elaborate ~width
                    ~injections:[ T.Rtl.canned_injection ~width design ]
                    design
              | `Trojan_seq ->
                  T.Rtl.elaborate ~width
                    ~injections:
                      [ T.Rtl.canned_sequential_injection ~width design ]
                    design
              | `Trojan_dud ->
                  T.Rtl.elaborate ~width
                    ~injections:[ T.Rtl.canned_dud_injection ~width design ]
                    design
            in
            let report =
              T.Rtl.check ?rare_threshold:threshold
                ?empirical:(if empirical > 0 then Some empirical else None)
                ?prove ?prove_budget ~jobs rtl
            in
            if json then
              print_endline (Json.to_string ~pretty:true (T.Check.to_json report))
            else print_string (T.Check.render report);
            Exit_code.exit (T.Check.exit_code report))
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(
      const run $ bench_arg $ catalog_flag $ detection_only_flag $ latency_flag
      $ latency_rec_flag $ area_flag $ width_flag $ threshold_flag
      $ mutant_flag $ empirical_flag $ prove_flag $ prove_budget_flag
      $ json_flag $ jobs_flag $ trace_flag)

(* ------------------------------------------------------------------ *)
(* serve / submit: the optimisation service and its line client.       *)

(* Default persistence directory, in precedence order:
   $THLS_CACHE_DIR, $XDG_CACHE_HOME/thls, $HOME/.cache/thls. *)
let default_persist_dir () =
  match Sys.getenv_opt "THLS_CACHE_DIR" with
  | Some d when d <> "" -> Some d
  | _ -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Some (Filename.concat d "thls")
      | _ -> (
          match Sys.getenv_opt "HOME" with
          | Some h when h <> "" ->
              Some (Filename.concat (Filename.concat h ".cache") "thls")
          | _ -> None))

let serve_cmd =
  let doc = "Run the optimisation service (Unix socket or stdio)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Serves the line-delimited JSON protocol: one request object per \
         line, one response object per line.  Requests are \
         $(b,{\"op\":\"solve\",\"dfg\":...}), $(b,{\"op\":\"stats\"}), \
         $(b,{\"op\":\"metrics\"}) and $(b,{\"op\":\"shutdown\"}).  Solved designs are kept in a \
         content-addressed cache keyed on the canonicalised problem \
         instance, so repeated or renumbered submissions of the same DFG \
         are answered without re-solving.";
    ]
  in
  let socket_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix-domain socket.")
  in
  let stdio_flag =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve one client over stdin/stdout instead of a socket.")
  in
  let cache_size_flag =
    Arg.(
      value & opt int 64
      & info [ "cache-size" ] ~docv:"N" ~doc:"In-memory solve-cache entries.")
  in
  let persist_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "persist" ] ~docv:"DIR"
          ~doc:
            "On-disk cache directory (default: \\$THLS_CACHE_DIR, else \
             \\$XDG_CACHE_HOME/thls, else ~/.cache/thls).")
  in
  let no_persist_flag =
    Arg.(
      value & flag
      & info [ "no-persist" ] ~doc:"Keep the solve cache in memory only.")
  in
  let max_queue_flag =
    Arg.(
      value & opt int 16
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Admission limit: max solves in flight before queue_full.")
  in
  let deadline_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-solve budget applied when a request names none; \
             on expiry the solve degrades to the greedy incumbent.")
  in
  let run socket stdio cache_size persist no_persist max_queue deadline_ms jobs
      trace =
    check_jobs jobs;
    setup_trace trace;
    if cache_size < 1 then begin
      prerr_endline "--cache-size must be >= 1";
      exit 1
    end;
    if max_queue < 1 then begin
      prerr_endline "--max-queue must be >= 1";
      exit 1
    end;
    let persist_dir =
      if no_persist then None
      else match persist with Some _ as p -> p | None -> default_persist_dir ()
    in
    let config =
      {
        Thr_server.Service.capacity = cache_size;
        persist_dir;
        max_queue;
        default_deadline_ms = deadline_ms;
      }
    in
    let service = Thr_server.Service.create ~config () in
    match (socket, stdio) with
    | Some _, true ->
        prerr_endline "--socket and --stdio are mutually exclusive";
        exit 1
    | None, true -> Thr_server.Server.serve_stdio service
    | Some path, false ->
        T.Log.info "listening" [ ("socket", path) ];
        Thr_server.Server.serve_unix service ~socket_path:path ~jobs ()
    | None, false ->
        prerr_endline "serve needs --socket PATH or --stdio";
        exit 1
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ socket_flag $ stdio_flag $ cache_size_flag $ persist_flag
      $ no_persist_flag $ max_queue_flag $ deadline_flag $ jobs_flag
      $ trace_flag)

let submit_cmd =
  let doc = "Send one request to a running $(b,thls serve)." in
  let bench_opt_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"BENCH"
          ~doc:"Benchmark to solve (omit with --dfg, --stats or --shutdown).")
  in
  let socket_flag =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Socket of the running server.")
  in
  let dfg_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "dfg" ] ~docv:"FILE"
          ~doc:"Solve a DFG from a file ('-' for stdin) instead of a benchmark.")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Request the service counters.")
  in
  let lint_flag =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Request static analysis of the elaborated design instead of \
             the solve result (exit 4 when not clean).")
  in
  let lint_width_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "width" ] ~docv:"BITS" ~doc:"Datapath width for --lint.")
  in
  let lint_mutant_flag =
    Arg.(
      value
      & opt (some string) None
      & info [ "mutant" ] ~docv:"KIND"
          ~doc:
            "Seeded mutant for --lint: none | bypass | trojan | trojan-seq \
             | trojan-dud.")
  in
  let lint_prove_flag =
    Arg.(
      value
      & opt ~vopt:(Some T.Bmc.default_bound) (some int) None
      & info [ "prove" ] ~docv:"K"
          ~doc:
            "For --lint: bounded-model-check every rare-net finding up to \
             $(docv) cycles (default 8 when given without a value).")
  in
  let lint_prove_budget_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "prove-budget" ] ~docv:"STEPS"
          ~doc:"For --lint: per-candidate solver step budget.")
  in
  let lint_jobs_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "For --lint: domains the server's prover spreads independent \
             candidate clusters over (verdicts do not depend on it).")
  in
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Request the metrics registry (Prometheus text format).")
  in
  let shutdown_flag =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the server to stop.")
  in
  let events_flag =
    Arg.(
      value
      & opt ~vopt:(Some (-1)) (some int) None
      & info [ "events" ] ~docv:"N"
          ~doc:
            "Request the server's runtime journal — the newest $(docv) \
             events, or all buffered events when given without a value.")
  in
  let deadline_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-request solve budget.")
  in
  let solver_name_flag =
    Arg.(
      value & opt string "search"
      & info [ "solver" ] ~docv:"SOLVER" ~doc:"search | ilp | greedy.")
  in
  let read_file = function
    | "-" -> In_channel.input_all stdin
    | path -> In_channel.with_open_text path In_channel.input_all
  in
  let run bench socket dfg stats metrics shutdown events lint lint_width
      lint_mutant lint_prove lint_prove_budget lint_jobs cat detection_only
      latency latency_recover area solver deadline_ms =
    let request =
      if stats then Ok (Json.Obj [ ("op", Json.String "stats") ])
      else if metrics then Ok (Json.Obj [ ("op", Json.String "metrics") ])
      else if events <> None then
        Ok
          (Json.Obj
             (("op", Json.String "events")
             ::
             (match events with
             | Some n when n >= 0 -> [ ("n", Json.Int n) ]
             | _ -> [])))
      else if shutdown then Ok (Json.Obj [ ("op", Json.String "shutdown") ])
      else
        let dfg_text =
          match (bench, dfg) with
          | _, Some path -> (
              try Ok (read_file path)
              with Sys_error e -> Error e)
          | Some name, None ->
              Result.map T.Dfg_parse.to_string (find_dfg name)
          | None, None ->
              Error
                "submit needs BENCH, --dfg FILE, --stats, --metrics, \
                 --events or --shutdown"
        in
        Result.map
          (fun text ->
            let opt name v f = Option.map (fun x -> (name, f x)) v in
            let fields =
              [
                Some ("op", Json.String (if lint then "lint" else "solve"));
                Some ("dfg", Json.String text);
                Some ("catalog", Json.String cat);
                (if detection_only then
                   Some ("mode", Json.String "detection")
                 else None);
                opt "latency_detect" latency (fun i -> Json.Int i);
                opt "latency_recover" latency_recover (fun i -> Json.Int i);
                opt "area" area (fun i -> Json.Int i);
                Some ("solver", Json.String solver);
                opt "deadline_ms" deadline_ms (fun i -> Json.Int i);
                (if lint then opt "width" lint_width (fun i -> Json.Int i)
                 else None);
                (if lint then opt "mutant" lint_mutant (fun s -> Json.String s)
                 else None);
                (if lint then opt "prove" lint_prove (fun i -> Json.Int i)
                 else None);
                (if lint then
                   opt "prove_budget" lint_prove_budget (fun i -> Json.Int i)
                 else None);
                (if lint then opt "jobs" lint_jobs (fun i -> Json.Int i)
                 else None);
              ]
            in
            Json.Obj (List.filter_map Fun.id fields))
          dfg_text
    in
    match request with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok req -> (
        let reply =
          try
            Thr_server.Client.with_connection ~socket_path:socket (fun c ->
                Thr_server.Client.rpc c req)
          with Unix.Unix_error (e, _, _) ->
            Error
              (Printf.sprintf "cannot reach server at %s: %s" socket
                 (Unix.error_message e))
        in
        match reply with
        | Error e ->
            prerr_endline e;
            exit 1
        | Ok j -> (
            print_endline (Json.to_string ~pretty:true j);
            match Json.mem_str "status" j with
            | Some "ok" -> (
                (* a lint reply exits like `thls lint`: the report carries
                   its own exit code (4 findings / 5 inconclusive) *)
                match Json.mem_int "exit_code" j with
                | Some 0 -> ()
                | Some c -> Stdlib.exit c
                | None -> (
                    match Json.mem_bool "clean" j with
                    | Some false -> Exit_code.exit Exit_code.Lint
                    | _ -> ()))
            | _ -> (
                match Json.mem_str "code" j with
                | Some "infeasible" -> exit exit_infeasible
                | Some "budget" -> exit exit_budget
                | _ -> exit 1)))
  in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      const run $ bench_opt_arg $ socket_flag $ dfg_flag $ stats_flag
      $ metrics_flag $ shutdown_flag $ events_flag $ lint_flag $ lint_width_flag
      $ lint_mutant_flag $ lint_prove_flag $ lint_prove_budget_flag
      $ lint_jobs_flag $ catalog_flag $ detection_only_flag $ latency_flag $ latency_rec_flag
      $ area_flag $ solver_name_flag $ deadline_flag)

let main =
  let doc = "Trojan-tolerant high-level synthesis (DAC'14 reproduction)" in
  Cmd.group
    (Cmd.info "thls" ~version:"1.0.0" ~doc)
    [
      list_cmd; show_cmd; catalog_cmd; optimize_cmd; simulate_cmd;
      postmortem_cmd; export_ilp_cmd; pareto_cmd; rtl_cmd; lint_cmd; serve_cmd;
      submit_cmd;
    ]

let () = exit (Cmd.eval main)
