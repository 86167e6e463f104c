(* The repository benchmark: the paper's three-stage flow, timed end to
   end and, in a separate traced run, layer by layer.

     main.exe --workload design|verify|serve --seed N --seconds S --trace 0|1
     main.exe --self-test

   Every run executes all three stages, because every run reports every
   end-to-end metric:

   - design: Optimize.run over the 24 Table 3/4 rows, ~solver:Ilp on the
     rows whose model has at most 800 variables, and seeded Generator
     DFGs in both modes under a loose area bound.  Solves stop on node and
     candidate budgets only, never on a wall-clock limit, so costs and
     qualities repeat exactly.
   - verify: designs solved during set-up (motivational, polynom, diff2,
     two seeded add/sub/mul DFGs, and in the verify workload fir16 and
     elliptic) go through elaborate + check ~prove:8 on the clean netlist
     and three canned mutants, Campaign.cosim, Campaign.cosim_mutants and
     Campaign.run.
   - serve: one open-loop schedule at a fixed offered rate into
     Service.handle_line of an in-process service (capacity 64, disk tier
     in a fresh directory), restarted cold for each replay of the request
     sequence.  Solve requests are drawn with Zipf popularity from a pool
     of more than 64 instances, each re-sent with its ops in a new
     topological order.

   The workload names the stage that repeats its operations most (see
   [plan]).  The stages run interleaved, in whole passes fixed by
   --seconds.  Every time is scaled by the host's speed around it,
   measured with a fixed calibration loop (see [scaler]), and an
   operation's time is the median of its scaled repeats.  The seed only
   shapes the generated inputs.  Every output is
   checked, and a failed check counts the operation as failed.  The last
   stdout line is the JSON result: with --trace 0 the end-to-end
   metrics, with --trace 1 the per-layer ones, from spans the benchmark
   records around its own calls into each layer (see span.ml). *)

module T = Trojan_hls
module J = T.Json
module Service = Thr_server.Service
module Cache = Thr_server.Cache
module Key = Thr_server.Key

let now = Unix.gettimeofday

(* ----------------------------- samples ----------------------------- *)

(* named sample series; a metric is computed from a series at the end *)
let series : (string, float list ref) Hashtbl.t = Hashtbl.create 64

let add name v =
  match Hashtbl.find_opt series name with
  | Some l -> l := v :: !l
  | None -> Hashtbl.replace series name (ref [ v ])

let samples name =
  match Hashtbl.find_opt series name with
  | Some l -> Array.of_list !l
  | None -> [||]

let sum name = Array.fold_left ( +. ) 0.0 (samples name)

(* the middle value, or the mean of the two middle ones *)
let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* nearest-rank percentile *)
let percentile a q =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* ---------------------------- host speed --------------------------- *)

(* A fixed piece of work that does not call the program: a dependent walk
   around one 4096-long cycle (32 KB) interleaved with integer mixing.
   It allocates nothing, so no collection runs inside it, and a short
   untimed walk first brings the cycle into the cache, so the timed walk
   does not depend on what ran before. *)
let calib_cycle =
  let n = 4_096 in
  let a = Array.init n Fun.id in
  let prng = T.Prng.create ~seed:77 in
  (* Sattolo's shuffle: one cycle through every slot *)
  for i = n - 1 downto 1 do
    let j = T.Prng.int prng i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let calibration_work steps =
  let x = ref 0 and acc = ref 1 in
  for _ = 1 to steps do
    x := Array.unsafe_get calib_cycle !x;
    acc := (!acc * 31) + (!x lxor (!acc lsr 7))
  done;
  Sys.opaque_identity !acc

(* The work's time on an unloaded 2-vCPU 2.1 GHz Xeon VM, in seconds. *)
let calib_ref = 0.5e-3

(* The host this runs on shares its cores: for seconds to minutes at a
   time it runs everything 20-40% slower, with no steal time to show for
   it, so even the best of a run's repeats can be 30% slower than another
   run's.  The calibration work is therefore timed all through the run:
   before every unit of work (at most every 50 ms), in the serve stage's
   idle gaps between requests (at most every 10 ms) and around every
   set-up.  Each timed sample is scaled by the host's speed around it:
   the reference time over the median of the five calibrations nearest
   to it.  A change to the program moves its times and not the
   calibration's. *)
let calib_at : float list ref = ref []
let calib_dur : float list ref = ref []
let calib_last = ref neg_infinity

let calibrate () =
  ignore (calibration_work 10_000);
  let t0 = Unix.gettimeofday () in
  ignore (calibration_work 300_000);
  let t1 = Unix.gettimeofday () in
  calib_last := t1;
  calib_at := t1 :: !calib_at;
  calib_dur := (t1 -. t0) :: !calib_dur

let maybe_calibrate ~every =
  if Unix.gettimeofday () -. !calib_last >= every then calibrate ()

(* [scaler ()] maps a sample timed over [t0, t1] to its scaled value *)
let scaler () =
  let at = Array.of_list (List.rev !calib_at) in
  let dur = Array.of_list (List.rev !calib_dur) in
  let n = Array.length at in
  let k = min 5 n in
  fun ~t0 ~t1 v ->
    let dist j = if at.(j) < t0 then t0 -. at.(j) else Float.max 0.0 (at.(j) -. t1) in
    (* first calibration at or after t0, then widen to the k nearest *)
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if at.(mid) < t0 then lo := mid + 1 else hi := mid
    done;
    let l = ref (!lo - 1) and r = ref !lo in
    let picked = Array.make k 0.0 in
    for m = 0 to k - 1 do
      let take_left = !r >= n || (!l >= 0 && dist !l <= dist !r) in
      if take_left then (picked.(m) <- dur.(!l); decr l)
      else (picked.(m) <- dur.(!r); incr r)
    done;
    v *. calib_ref /. percentile picked 0.5

(* the host's speed over the run: reference time over median calibration *)
let host_speed () = calib_ref /. percentile (Array.of_list !calib_dur) 0.5

(* Timed samples, scaled at the end of the run when the calibrations
   after them are known too. *)
type sample = { key : string; idx : int; value : float; t0 : float; t1 : float }

let pending : sample list ref = ref []

(* a sample of [name] for operation [i], timed over the last [secs] *)
let add_sample name i ~secs v =
  let t1 = Unix.gettimeofday () in
  pending := { key = name; idx = i; value = v; t0 = t1 -. secs; t1 } :: !pending

(* Per operation, the median scaled time over the passes that repeat
   it: robust both to a stall the calibration missed and to a
   calibration that caught a stall the operation missed. *)
let bests : (string * int, float) Hashtbl.t = Hashtbl.create 256

(* every scaled sample of a name, in the order they were taken *)
let scaled_all : (string, float array) Hashtbl.t = Hashtbl.create 16

let resolve_bests () =
  let sc = scaler () in
  let by_op = Hashtbl.create 256 and by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let v = sc ~t0:s.t0 ~t1:s.t1 s.value in
      let k = (s.key, s.idx) in
      Hashtbl.replace by_op k (v :: Option.value ~default:[] (Hashtbl.find_opt by_op k));
      Hashtbl.replace by_name s.key
        (v :: Option.value ~default:[] (Hashtbl.find_opt by_name s.key)))
    (List.rev !pending);
  Hashtbl.reset scaled_all;
  Hashtbl.iter (fun k vs -> Hashtbl.replace scaled_all k (Array.of_list (List.rev vs))) by_name;
  Hashtbl.reset bests;
  Hashtbl.iter (fun k vs -> Hashtbl.replace bests k (median (Array.of_list vs))) by_op

let best_of name =
  Hashtbl.fold (fun (k, _) v acc -> if k = name then v :: acc else acc) bests []
  |> Array.of_list

(* counters keyed by name, for deterministic per-layer counts *)
let counts : (string, float) Hashtbl.t = Hashtbl.create 16

let count name v =
  Hashtbl.replace counts name
    (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let count_of name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

(* ----------------------------- failures ---------------------------- *)

let attempted = ref 0
let failed = ref 0

(* one checked operation: [ok] is the verdict of every check on its
   outputs *)
let record label ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "FAILED: %s\n%!" label
  end

(* ----------------------------- helpers ----------------------------- *)

(* major collections the benchmark forces itself, left out of
   gc.major_collections *)
let forced_majors = ref 0

(* Finish the major cycle other operations left running before a verify
   operation: each stands for a command that runs in a process of its
   own and does not pay for the rest of the run's garbage.  (A full major
   collection would keep peak RSS lower, at two more seconds a run.) *)
let settle_heap () =
  let before = (Gc.quick_stat ()).Gc.major_collections in
  Gc.major ();
  forced_majors := !forced_majors + (Gc.quick_stat ()).Gc.major_collections - before

let metric_delta before after name =
  let v l = Option.value ~default:0.0 (List.assoc_opt name l) in
  v after -. v before

let catalog = T.Catalog.eight_vendors

let area_lb spec =
  let inst = T.Opt_instance.make spec in
  let allowed = Array.make_matrix inst.T.Opt_instance.n_vendors 3 true in
  match T.Csp.area_lower_bound inst ~allowed with
  | Some lb -> lb
  | None -> invalid_arg "area_lb: catalogue misses a type"

let spec_for ~mode ~dfg ~latency_detect ~latency_recover ~frac () =
  let probe =
    T.Spec.make ~mode ~dfg ~catalog ~latency_detect ~latency_recover
      ~area_limit:max_int ()
  in
  let area_limit = int_of_float (float_of_int (area_lb probe) *. frac) in
  T.Spec.make ~mode ~dfg ~catalog ~latency_detect ~latency_recover ~area_limit ()

let generated ~prng ~other_ratio ~lo ~hi =
  let n_ops = T.Prng.int_in prng lo hi in
  let n_layers = max 2 (n_ops / 4) in
  T.Dfg_generator.generate
    ~config:{ T.Dfg_generator.n_ops; n_layers; mul_ratio = 0.4; other_ratio }
    ~prng ()

(* [passes] whole passes over [ops] as units of work; [f ~pass i op] runs
   one operation, unless [skip ~pass i] leaves it out of that pass.
   Whole passes give every run the same sample mix, so a percentile
   always lands on the same operation. *)
let units ?(skip = fun ~pass:_ _ -> false) ~passes ops f =
  List.concat
    (List.init passes (fun pass ->
         List.mapi (fun i op () -> if not (skip ~pass i) then f ~pass i op) ops))

(* [k] repeats at the reference 20 s window, scaled to [seconds] and at
   least [at_least].  Repeat counts are fixed by the arguments, not by a
   clock, so a slow run does the same work as a fast one.  Every
   operation runs at least twice in a traced run, which counts on a plain
   first pass and traces the rest. *)
let scaled ~seconds ?(at_least = 2) k =
  max at_least (int_of_float (Float.round (float_of_int k *. seconds /. 20.0)))

(* Run the stages' units interleaved, always advancing the stage that is
   least far through its list, so each stage's samples spread over the
   whole run rather than one stretch of it: this host's speed drifts by
   tens of percent over a few seconds.  The host's speed is sampled
   before each unit. *)
let interleave stages =
  let stages = Array.of_list (List.map Array.of_list stages) in
  let next = Array.make (Array.length stages) 0 in
  let busy = Array.make (Array.length stages) 0.0 in
  let progress i = float_of_int next.(i) /. float_of_int (Array.length stages.(i)) in
  let rec go () =
    let pick = ref (-1) in
    Array.iteri
      (fun i s ->
        if next.(i) < Array.length s && (!pick < 0 || progress i < progress !pick)
        then pick := i)
      stages;
    if !pick >= 0 then begin
      let i = !pick in
      maybe_calibrate ~every:0.05;
      let t0 = now () in
      stages.(i).(next.(i)) ();
      busy.(i) <- busy.(i) +. (now () -. t0);
      next.(i) <- next.(i) + 1;
      go ()
    end
  in
  go ();
  busy

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let out_dir = Filename.concat "perfbench" "out"

let temp_dirs = ref 0

(* a fresh directory under the benchmark's output dir, removed at exit *)
let fresh_dir tag =
  incr temp_dirs;
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755;
  let d =
    Filename.concat out_dir
      (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !temp_dirs)
  in
  remove_tree d;
  Unix.mkdir d 0o755;
  at_exit (fun () -> try remove_tree d with _ -> ());
  d

(* --------------------------- the design stage ---------------------- *)

type solver = Search | Ilp

type design_item = {
  d_label : string;
  d_spec : T.Spec.t;
  d_solver : solver;
  d_nodes : int;  (** CSP nodes per call, or B&B nodes for the ILP *)
  d_cands : int;  (** licence candidates (search only) *)
  d_pair : int option;  (** the search item solving the same spec *)
}

type row = { bench : string; l_det : int; l_rec : int; frac : float }

let r bench l_det l_rec frac = { bench; l_det; l_rec; frac }

let table3_rows =
  [ r "polynom" 3 0 2.5; r "polynom" 6 0 1.5; r "diff2" 4 0 2.5; r "diff2" 14 0 1.5;
    r "dtmf" 4 0 2.5; r "dtmf" 8 0 1.5; r "mof2" 7 0 2.5; r "mof2" 14 0 1.5;
    r "elliptic" 8 0 2.5; r "elliptic" 16 0 1.5; r "fir16" 6 0 2.5; r "fir16" 12 0 1.5 ]

let table4_rows =
  [ r "polynom" 3 3 2.5; r "polynom" 9 3 1.5; r "diff2" 4 4 2.5; r "diff2" 10 4 1.5;
    r "dtmf" 4 4 2.5; r "dtmf" 11 4 1.5; r "mof2" 8 6 2.5; r "mof2" 18 6 1.5;
    r "elliptic" 8 8 2.5; r "elliptic" 16 8 1.5; r "fir16" 7 5 2.5; r "fir16" 11 5 1.5 ]

let ilp_var_gate = 800
let ilp_node_cap = 2_000

(* enough generated instances that the stage's percentiles do not hinge
   on which few the seed draws *)
let gen_dfgs = 100

let design_items ~prng =
  let items = ref [] in
  let push it = items := it :: !items; List.length !items - 1 in
  let search label spec ~nodes ~cands =
    push { d_label = label; d_spec = spec; d_solver = Search; d_nodes = nodes;
           d_cands = cands; d_pair = None }
  in
  let rows mode tag table =
    List.iter
      (fun row ->
        let dfg = Option.get (T.Benchmarks.find row.bench) in
        let spec =
          spec_for ~mode ~dfg ~latency_detect:row.l_det
            ~latency_recover:(max row.l_rec 1) ~frac:row.frac ()
        in
        let label = Printf.sprintf "%s %s %d+%d" tag row.bench row.l_det row.l_rec in
        let i = search label spec ~nodes:150_000 ~cands:300_000 in
        let f = T.Ilp_formulation.build spec in
        if T.Ilp_model.n_vars f.T.Ilp_formulation.model <= ilp_var_gate then
          ignore
            (push { d_label = label ^ " ilp"; d_spec = spec; d_solver = Ilp;
                    d_nodes = ilp_node_cap; d_cands = 0; d_pair = Some i }))
      table
  in
  rows T.Spec.Detection_only "table3" table3_rows;
  rows T.Spec.Detection_and_recovery "table4" table4_rows;
  (* A generated DFG is kept when both of its solves prove their optimum
     within the budgets the stage gives them; the rest are left out, so
     no generated solve ends on a budget.  The sizes sweep 8 to 40 ops
     evenly, and a rejected DFG is redrawn at the same size, so every
     seed solves the same mix of sizes and only their shapes differ. *)
  let gen_nodes = 10_000 and gen_cands = 20 in
  let kept = ref 0 in
  while !kept < gen_dfgs do
    let n_ops = 8 + (!kept * 33 / gen_dfgs) in
    let dfg = generated ~prng ~other_ratio:0.1 ~lo:n_ops ~hi:n_ops in
    let cp = T.Dfg.critical_path dfg in
    let specs =
      List.map
        (fun (mode, tag) ->
          ( tag,
            spec_for ~mode ~dfg ~latency_detect:(cp + 1) ~latency_recover:cp
              ~frac:2.5 () ))
        [ (T.Spec.Detection_only, "det"); (T.Spec.Detection_and_recovery, "det+rec") ]
    in
    let proven (_, spec) =
      match
        T.Optimize.run ~per_call_nodes:gen_nodes ~max_candidates:gen_cands ~jobs:1 spec
      with
      | Ok { T.Optimize.quality = T.Optimize.Optimal; _ } -> true
      | _ -> false
    in
    if List.for_all proven specs then begin
      incr kept;
      List.iter
        (fun (tag, spec) ->
          ignore
            (search
               (Printf.sprintf "gen%d/%d ops %s" !kept (T.Dfg.n_ops dfg) tag)
               spec ~nodes:gen_nodes ~cands:gen_cands))
        specs
    end
  done;
  List.rev !items

(* Optimize.run as the plain run calls it. *)
let solve_plain it =
  let solver =
    match it.d_solver with Search -> T.Optimize.License_search | Ilp -> T.Optimize.Ilp
  in
  match
    T.Optimize.run ~solver ~per_call_nodes:it.d_nodes ~max_candidates:it.d_cands
      ~jobs:1 it.d_spec
  with
  | Ok { T.Optimize.design; quality; ilp_stats; _ } ->
      (Some (design, quality = T.Optimize.Optimal), ilp_stats)
  | Error _ -> (None, None)

(* The same solve made through the layers Optimize.run wraps, each call
   in its own span. *)
let solve_traced ~op it =
  match it.d_solver with
  | Search -> (
      match
        Span.with_ "opt.search" ~op (fun () ->
            T.License_search.search ~per_call_nodes:it.d_nodes
              ~max_candidates:it.d_cands it.d_spec)
      with
      | T.License_search.Solved { design; quality }, _ ->
          Some (design, quality = T.License_search.Proven_optimal)
      | T.License_search.No_design _, _ -> None)
  | Ilp -> (
      let f =
        Span.with_ "ilp.build" ~op (fun () -> T.Ilp_formulation.build it.d_spec)
      in
      match
        Span.with_ "ilp.solve" ~op (fun () ->
            T.Ilp_solve.solve ~max_nodes:it.d_nodes
              ~priority:f.T.Ilp_formulation.priority_vars f.T.Ilp_formulation.model)
      with
      | T.Ilp_solve.Optimal sol, _ -> Some (f.T.Ilp_formulation.read_design sol, true)
      | T.Ilp_solve.Budget (Some sol), _ ->
          Some (f.T.Ilp_formulation.read_design sol, false)
      | _ -> None)

(* A solve slower than this in its first pass lies far above the stage's
   p90 (a few ms), so it repeats only as often as a traced run needs;
   the cheap solves that decide the percentiles take the other passes. *)
let heavy_ms = 12.0

let design_units ~traced ~passes items =
  let first = Array.make (List.length items) None in
  let heavy = Array.of_list (List.map (fun it -> it.d_solver = Ilp) items) in
  let heavy_passes = if traced then 2 else 1 in
  units ~passes items
    ~skip:(fun ~pass i -> pass >= heavy_passes && heavy.(i))
    (fun ~pass i it ->
      let op = (pass * 1000) + i in
      Span.enabled := false;
      let snap0 = if traced && pass = 0 then T.Metrics.snapshot () else [] in
      let (result, ilp_stats), ms = Span.timed "design.solve" ~op (fun () -> solve_plain it) in
      add "optimize_ms" ms;
      add_sample "optimize_ms" i ~secs:(ms /. 1000.0) ms;
      if pass = 0 && ms > heavy_ms then heavy.(i) <- true;
      if traced && pass = 0 then begin
        let snap1 = T.Metrics.snapshot () in
        count "opt.csp_nodes" (metric_delta snap0 snap1 "csp_nodes_total");
        count "opt.candidates" (metric_delta snap0 snap1 "license_candidates_total");
        Option.iter
          (fun st ->
            count "ilp.nodes" (float_of_int st.T.Ilp_solve.nodes);
            count "lp.pivots" (float_of_int (T.Ilp_solve.total_pivots st));
            count "lp.refactorizations"
              (float_of_int st.T.Ilp_solve.simplex.T.Simplex.refactorizations))
          ilp_stats
      end;
      (* in its second pass, a traced run repeats each solve through the
         layers it wraps, right after the plain solve, so the pair gives
         the tracing overhead *)
      if traced && pass = 1 then begin
        Span.enabled := true;
        let _, traced_ms =
          Span.timed "design.solve.traced" ~op (fun () -> solve_traced ~op it)
        in
        Span.enabled := false;
        add "overhead.plain" ms;
        add "overhead.traced" traced_ms
      end;
      let ok =
        match result with
        | None -> false
        | Some (design, optimal) ->
            let valid = T.Design.validate design = [] in
            let cost = T.Design.cost design in
            if pass = 0 then begin
              first.(i) <- Some (cost, optimal);
              if it.d_solver = Search then add "design_cost" (float_of_int cost);
              add "design_optimal" (if optimal then 1.0 else 0.0)
            end;
            (* licence search and the ILP agree wherever both are optimal *)
            let agrees =
              match (it.d_pair, first.(i)) with
              | Some j, Some (c, true) when optimal -> (
                  match first.(j) with
                  | Some (c', true) -> c = c'
                  | _ -> true)
              | _ -> true
            in
            valid && agrees
      in
      record (Printf.sprintf "design %s" it.d_label) ok)

(* --------------------------- the verify stage ---------------------- *)

(* Light designs lint in a few hundred ms, heavy ones in half a second to
   two seconds.  A seeded design's lint time swings fivefold with the
   seed (a trojan-seq lint of an 8-op DFG takes 0.1 s or 1 s), so the
   seeded designs are linted and checked once per run and left out of
   the lint percentiles, which then compare the same netlists on every
   seed. *)
type kind = Light | Heavy | Seeded

type verify_design = { v_name : string; v_design : T.Design.t; v_kind : kind }

(* motivational, polynom, diff2 and two seeded DFGs; [full] adds fir16
   and elliptic, whose eight lints take about seven seconds *)
let verify_designs ~full ~prng =
  let solve kind name spec =
    match T.Optimize.run ~jobs:1 spec with
    | Ok { T.Optimize.design; _ } -> { v_name = name; v_design = design; v_kind = kind }
    | Error _ -> failwith ("set-up: no design for " ^ name)
  in
  let loose kind name ~l_det ~l_rec =
    let dfg = Option.get (T.Benchmarks.find name) in
    solve kind name
      (spec_for ~mode:T.Spec.Detection_and_recovery ~dfg ~latency_detect:l_det
         ~latency_recover:l_rec ~frac:2.5 ())
  in
  (* add/sub/mul only: Dfg_eval computes lt and shr on full ints, the
     netlist modulo 2^16, so cosim would flag them as mismatches.  Eight
     ops with three multipliers each, so the netlist sizes do not swing
     with the seed. *)
  let rec eight_ops () =
    let dfg = generated ~prng ~other_ratio:0.0 ~lo:8 ~hi:8 in
    if T.Dfg.count_kind dfg T.Op.Mul = 3 then dfg else eight_ops ()
  in
  let seeded g =
    let dfg = eight_ops () in
    let cp = T.Dfg.critical_path dfg in
    solve Seeded
      (Printf.sprintf "gen%d/%d ops" (g + 1) (T.Dfg.n_ops dfg))
      (spec_for ~mode:T.Spec.Detection_and_recovery ~dfg ~latency_detect:(cp + 1)
         ~latency_recover:cp ~frac:2.5 ())
  in
  let light =
    [ solve Light "motivational"
        (T.Spec.make
           ~dfg:(Option.get (T.Benchmarks.find "motivational"))
           ~catalog:T.Catalog.table1 ~latency_detect:4 ~latency_recover:3
           ~area_limit:40_000 ());
      loose Light "polynom" ~l_det:3 ~l_rec:3;
      loose Light "diff2" ~l_det:4 ~l_rec:4 ]
  in
  let heavy () =
    let dfg = T.Benchmarks.elliptic () in
    let cp = T.Dfg.critical_path dfg in
    [ loose Heavy "fir16" ~l_det:7 ~l_rec:5;
      solve Heavy "elliptic"
        (spec_for ~mode:T.Spec.Detection_and_recovery ~dfg ~latency_detect:(cp + 1)
           ~latency_recover:cp ~frac:2.5 ()) ]
  in
  light @ List.init 2 seeded @ if full then heavy () else []

type variant = Clean | Trojan | Trojan_seq | Dud | Bypass

let variant_name = function
  | Clean -> "clean"
  | Trojan -> "trojan"
  | Trojan_seq -> "trojan-seq"
  | Dud -> "dud"
  | Bypass -> "bypass"

let elaborate variant design =
  let inj f = [ f ~width:16 design ] in
  match variant with
  | Clean -> T.Rtl.elaborate ~width:16 design
  | Trojan -> T.Rtl.elaborate ~width:16 ~injections:(inj T.Rtl.canned_injection) design
  | Trojan_seq ->
      T.Rtl.elaborate ~width:16
        ~injections:(inj T.Rtl.canned_sequential_injection) design
  | Dud -> T.Rtl.elaborate ~width:16 ~injections:(inj T.Rtl.canned_dud_injection) design
  | Bypass -> T.Rtl.elaborate ~width:16 ~seeded_bug:T.Rtl.Comparator_skip design

type expect = Expect_clean | Expect_certified | Expect_proved

(* The lint verdict checks.  Inconclusive candidates are not failures
   (they lower prove_decided_share), but nothing may be shown wrong. *)
let lint_ok expect (report : T.Check.report) =
  match report.T.Check.prove with
  | None -> false
  | Some s ->
      let code = T.Check.exit_code report in
      let settled_clean =
        code = T.Exit_code.Ok
        || (code = T.Exit_code.Inconclusive && s.T.Check.prove_inconclusive > 0)
      in
      s.T.Check.prove_replay_failed = 0
      &&
      match expect with
      | Expect_clean -> settled_clean && s.T.Check.prove_reachable = 0
      | Expect_certified ->
          settled_clean && s.T.Check.prove_reachable = 0
          && s.T.Check.prove_certified + s.T.Check.prove_inconclusive
             = s.T.Check.prove_candidates
      | Expect_proved -> code = T.Exit_code.Lint && s.T.Check.prove_reachable > 0

let expect_of = function
  | Clean | Bypass -> Expect_clean
  | Dud -> Expect_certified
  | Trojan | Trojan_seq -> Expect_proved

(* the candidate set Rtl.check escalated, read back off its findings *)
let escalated nl (report : T.Check.report) =
  let by_idx = Array.make (T.Netlist.n_nets nl) None in
  Array.iter
    (fun net -> by_idx.(T.Netlist.net_index net) <- Some net)
    (T.Netlist.nets_in_order nl);
  List.filter_map
    (fun f ->
      match (f.T.Finding.rule, f.T.Finding.net) with
      | ( ( "rare-net" | "proved-reachable" | "unreachable-unbounded"
          | "rare-unreachable" | "rare-inconclusive" ),
          Some i ) ->
          Some i
      | _ -> None)
    report.T.Check.findings
  |> List.sort_uniq compare
  |> List.filter_map (fun i ->
         Option.map (fun net -> (net, report.T.Check.probs.(i) < 0.5)) by_idx.(i))
  |> Array.of_list

let sat_counters =
  [ ("sat.conflicts", "thr_sat_conflicts_total");
    ("sat.propagations", "thr_sat_propagations_total");
    ("sat.certificates", "thr_sat_certificates_total");
    ("sat.clauses_in", "thr_sat_preprocess_clauses_in_total");
    ("sat.clauses_out", "thr_sat_preprocess_clauses_out_total") ]

(* Each check layer called on its own, on the netlist the lint just
   checked. *)
let lint_layers ~op design (rtl : T.Rtl.t) report =
  let nl = rtl.T.Rtl.netlist in
  let fresh = Span.with_ "probe.elaborate" ~op (fun () -> T.Rtl.elaborate ~width:16 design) in
  ignore
    (Span.with_ "gates.tape" ~op (fun () -> T.Gate_packed.strip ~words:8 fresh.T.Rtl.netlist));
  ignore (Span.with_ "check.lint" ~op (fun () -> T.Lint.analyse nl));
  let ts = T.Rtl.taint_spec rtl in
  ignore
    (Span.with_ "check.taint" ~op (fun () ->
         T.Taint.analyse ~vendor_of:ts.T.Check.vendor_of ~mismatch:ts.T.Check.mismatch
           ~min_vendors:ts.T.Check.min_vendors nl));
  ignore (Span.with_ "check.prob" ~op (fun () -> T.Prob.signal_probabilities nl));
  let cands = escalated nl report in
  if Array.length cands > 0 then begin
    let snap0 = T.Metrics.snapshot () in
    let outcomes =
      Span.with_ "sat.prove" ~op (fun () ->
          T.Induction.prove ~bound:8 ~budget:T.Check.default_prove_budget ~jobs:1 nl
            cands)
    in
    let snap1 = T.Metrics.snapshot () in
    List.iter (fun (k, m) -> count k (metric_delta snap0 snap1 m)) sat_counters;
    Array.iter
      (function
        | T.Bmc.Reachable w ->
            let ok = Span.with_ "sat.replay" ~op (fun () -> T.Bmc.replay nl w) in
            if not ok then record "sat.replay witness" false
        | _ -> ())
      outcomes
  end

let random_envs ~prng ~n design =
  let cfg = T.Campaign.default_config in
  let inputs = T.Dfg.inputs design.T.Design.spec.T.Spec.dfg in
  List.init n (fun _ ->
      List.map
        (fun i -> (i, T.Prng.int_in prng cfg.T.Campaign.input_lo cfg.T.Campaign.input_hi))
        inputs)

(* Rtl.run_batch, Dfg_eval and the bare strip engine on cosim-sized
   batches. *)
let cosim_layers ~op ~prng ~vectors (rtl : T.Rtl.t) =
  let design = rtl.T.Rtl.design in
  let dfg = design.T.Design.spec.T.Spec.dfg in
  let envs = random_envs ~prng ~n:vectors design in
  let _, ms = Span.timed "rtl.batch" ~op (fun () -> T.Rtl.run_batch rtl envs) in
  add "rtl.batch_us" (ms *. 1000.0);
  add "rtl.batch_vectors" (float_of_int vectors);
  let _, ms =
    Span.timed "dfg.eval" ~op (fun () -> List.map (T.Dfg_eval.outputs dfg) envs)
  in
  add "dfg.eval_us" (ms *. 1000.0);
  let batch =
    T.Gate_packed.batch ~prng ~cycles:rtl.T.Rtl.total_cycles vectors
  in
  let _, ms =
    Span.timed "gates.strip_run" ~op (fun () ->
        T.Gate_packed.run_strips ~words:8 rtl.T.Rtl.netlist batch)
  in
  add "gates.strip_s" (ms /. 1000.0)

(* a netlist carrying the Trojan zoo behind arming gates, armed like
   Campaign.cosim_mutants arms it *)
let gated_rtl design env0 =
  let spec = design.T.Design.spec in
  let dfg = spec.T.Spec.dfg in
  let golden = T.Dfg_eval.run dfg env0 in
  let op = List.hd (T.Dfg.outputs dfg) in
  let nc = T.Copy.index spec { T.Copy.op; phase = T.Copy.NC } in
  let a, b = T.Dfg_eval.operand_values dfg env0 golden op in
  let mask = T.Campaign.default_config.T.Campaign.mask in
  let zoo = T.Trojan.zoo ~a_pattern:(a land mask) ~b_pattern:(b land mask) ~mask in
  let gated_injections =
    List.map
      (fun (nm, trojan) ->
        ( "mut_" ^ nm,
          { T.Engine.inj_vendor = T.Binding.vendor design.T.Design.binding nc;
            inj_type = T.Spec.iptype_of_op spec op; trojan } ))
      zoo
  in
  T.Rtl.elaborate ~width:16 ~gated_injections design

let cosim_vectors = 8_192
let mutant_vectors = 1_024
let campaign_runs = 500

type verify_op = Lint of variant | Cosim | Mutants | Campaign_run

let verify_op_name = function
  | Lint v -> "lint " ^ variant_name v
  | Cosim -> "cosim"
  | Mutants -> "mutants"
  | Campaign_run -> "campaign"

(* operation-major: each design's clean lint, whose netlist the traced
   cosim probes reuse, comes before its other operations *)
let verify_ops designs =
  List.concat_map
    (fun o -> List.map (fun d -> (d, o)) designs)
    [ Lint Clean; Lint Trojan; Lint Trojan_seq; Lint Dud; Cosim; Mutants;
      Campaign_run ]

(* one lint: elaborate + check ~prove:8, then the verdict checks *)
let lint_op ~op variant design =
  let (rtl, report), ms =
    Span.timed "verify.lint" ~op (fun () ->
        let rtl = Span.with_ "rtl.elaborate" ~op (fun () -> elaborate variant design) in
        (rtl, Span.with_ "rtl.check" ~op (fun () -> T.Rtl.check ~prove:8 rtl)))
  in
  (rtl, report, ms, lint_ok (expect_of variant) report)

(* Lints of the light designs make [lint_passes] passes, those of the
   heavy ones [heavy_lint_passes], those of the seeded ones one (two when
   traced), the other operations [passes].  An operation with fewer runs
   than the stage has passes skips passes spread evenly over them; its
   second run is the traced one. *)
let verify_units ~traced ~seed ~passes ~lint_passes ~heavy_lint_passes designs =
  let clean_rtl = Hashtbl.create 8 in
  let ops = verify_ops designs in
  let reps =
    Array.of_list
      (List.map
         (function
           | { v_kind = Light; _ }, Lint _ -> lint_passes
           | { v_kind = Heavy; _ }, Lint _ -> heavy_lint_passes
           | { v_kind = Seeded; _ }, Lint _ -> if traced then 2 else 1
           | _ -> passes)
         ops)
  in
  let all = Array.fold_left max 0 reps in
  let runs = Array.make (Array.length reps) 0 in
  units ~passes:all ops
    ~skip:(fun ~pass i -> (pass + 1) * reps.(i) / all = pass * reps.(i) / all)
    (fun ~pass i (d, vop) ->
      let op = 100_000 + (pass * 1000) + i in
      let first = runs.(i) = 0 in
      let trace_this = traced && runs.(i) = 1 in
      runs.(i) <- runs.(i) + 1;
      settle_heap ();
      Span.enabled := trace_this;
      let prng = T.Prng.create ~seed:((seed * 7919) + (pass * 131) + i) in
      let design = d.v_design in
      let label = Printf.sprintf "verify %s %s" d.v_name (verify_op_name vop) in
      match vop with
      | Lint variant ->
          let rtl, report, ms, ok = lint_op ~op variant design in
          if d.v_kind <> Seeded then begin
            add "lint_ms" ms;
            add_sample "lint_ms" i ~secs:(ms /. 1000.0) ms
          end;
          if variant = Clean then Hashtbl.replace clean_rtl d.v_name rtl;
          if first then
            Option.iter
              (fun s ->
                count "prove.candidates" (float_of_int s.T.Check.prove_candidates);
                count "prove.inconclusive" (float_of_int s.T.Check.prove_inconclusive))
              report.T.Check.prove;
          if trace_this then
            Span.with_ "verify.lint.layers" ~op (fun () ->
                lint_layers ~op design rtl report);
          record label ok
      | Cosim ->
          let r, ms =
            Span.timed "campaign.cosim" ~op (fun () ->
                T.Campaign.cosim ~prng ~vectors:cosim_vectors design)
          in
          add "cosim_s" (ms /. 1000.0);
          add_sample "cosim_s" i ~secs:(ms /. 1000.0) (ms /. 1000.0);
          if trace_this then
            Span.with_ "verify.cosim.layers" ~op (fun () ->
                cosim_layers ~op ~prng ~vectors:cosim_vectors
                  (match Hashtbl.find_opt clean_rtl d.v_name with
                  | Some rtl -> rtl
                  | None -> elaborate Clean design));
          record label
            (T.Campaign.cosim_ok r && r.T.Campaign.cosim_detections = 0
            && r.T.Campaign.cosim_vectors = cosim_vectors)
      | Mutants ->
          let r, ms =
            Span.timed "campaign.cosim_mutants" ~op (fun () ->
                T.Campaign.cosim_mutants ~prng ~vectors:mutant_vectors design)
          in
          add "mutant_s" (ms /. 1000.0);
          add_sample "mutant_s" i ~secs:(ms /. 1000.0) (ms /. 1000.0);
          if trace_this then
            Span.with_ "verify.mutants.layers" ~op (fun () ->
                let envs = random_envs ~prng ~n:mutant_vectors design in
                let g = Span.with_ "probe.elaborate" ~op (fun () -> gated_rtl design (List.hd envs)) in
                let _, ms =
                  Span.timed "rtl.mutant_batch" ~op (fun () -> T.Rtl.run_mutant_batch g envs)
                in
                add "rtl.mutant_us" (ms *. 1000.0);
                add "rtl.mutant_vectors" (float_of_int mutant_vectors));
          record label (T.Campaign.mutant_report_ok r)
      | Campaign_run ->
          let config = { T.Campaign.default_config with n_runs = campaign_runs } in
          let r, ms =
            Span.timed "campaign.run" ~op (fun () -> T.Campaign.run ~config ~prng design)
          in
          add "campaign_s" (ms /. 1000.0);
          add_sample "campaign_s" i ~secs:(ms /. 1000.0) (ms /. 1000.0);
          if trace_this then
            Span.with_ "verify.campaign.layers" ~op (fun () ->
                List.iter
                  (fun env ->
                    let injections = [ T.Campaign.armed_injection design env ] in
                    let _, ms =
                      Span.timed "engine.run" ~op (fun () ->
                          T.Engine.run ~injections design env)
                    in
                    add "engine.run_us" (ms *. 1000.0))
                  (random_envs ~prng ~n:50 design));
          record label
            (r.T.Campaign.runs = campaign_runs
            && r.T.Campaign.detected <= r.T.Campaign.activated
            && r.T.Campaign.rebind_recovered <= r.T.Campaign.detected))

(* --------------------------- the serve stage ----------------------- *)

type instance = {
  i_spec : T.Spec.t;
  i_mc : int;  (** cost of a direct Optimize.run of the same instance *)
  i_design : T.Design.t;
}

(* the same DFG with its ops renumbered in a random topological order *)
let reordered ~prng dfg =
  let n = T.Dfg.n_ops dfg in
  let deps i =
    Array.to_list (T.Dfg.node dfg i).T.Dfg.operands
    |> List.filter_map (function T.Dfg.Node j -> Some j | _ -> None)
    |> List.sort_uniq compare
  in
  let missing = Array.init n (fun i -> List.length (deps i)) in
  let users = Array.make n [] in
  for i = 0 to n - 1 do
    List.iter (fun j -> users.(j) <- i :: users.(j)) (deps i)
  done;
  let b = T.Dfg.Builder.create ~name:(T.Dfg.name dfg) in
  List.iter (fun i -> ignore (T.Dfg.Builder.input b i)) (T.Dfg.inputs dfg);
  let fresh = Array.make n (T.Dfg.Builder.const 0) in
  let ready = ref (List.filter (fun i -> missing.(i) = 0) (List.init n Fun.id)) in
  while !ready <> [] do
    let arr = Array.of_list !ready in
    let i = arr.(T.Prng.int prng (Array.length arr)) in
    ready := List.filter (fun j -> j <> i) !ready;
    let node = T.Dfg.node dfg i in
    let operands =
      Array.to_list node.T.Dfg.operands
      |> List.map (function
           | T.Dfg.Node j -> fresh.(j)
           | T.Dfg.Input s -> T.Dfg.Builder.input b s
           | T.Dfg.Const c -> T.Dfg.Builder.const c)
    in
    fresh.(i) <- T.Dfg.Builder.add_op b node.T.Dfg.kind operands;
    List.iter
      (fun u ->
        missing.(u) <- missing.(u) - 1;
        if missing.(u) = 0 then ready := u :: !ready)
      users.(i)
  done;
  T.Dfg.Builder.build b

let pool_size = 160

(* The design of a solve that proves its optimum within a small CSP
   effort.  The small budgets bound the set-up's cost; a proof reached
   under them is the same search the service's larger defaults make. *)
let pool_csp_nodes = 5_000

let cheap_optimum spec =
  let snap0 = T.Metrics.snapshot () in
  let result =
    T.Optimize.run ~per_call_nodes:pool_csp_nodes ~max_candidates:20 ~jobs:1 spec
  in
  let nodes = metric_delta snap0 (T.Metrics.snapshot ()) "csp_nodes_total" in
  match result with
  | Ok { T.Optimize.design; quality = T.Optimize.Optimal; _ }
    when nodes <= float_of_int pool_csp_nodes ->
      Some design
  | _ -> None

(* More than the cache's 64 entries, so evictions send later hits to the
   disk tier.  Only instances with a cheap optimum are kept: a miss then
   stays short, and its cost does not depend on op numbering.  The pool
   comes from a fixed seed, so every run's misses solve the same
   instances; the run's seed draws their popularity, the request sequence
   and each request's op order. *)
let pool_seed = 2024

let serve_pool () =
  let prng = T.Prng.create ~seed:pool_seed in
  let seen = Hashtbl.create 128 in
  let pool = ref [] in
  while List.length !pool < pool_size do
    (* the eight combinations of mode, latency slack and area bound take
       turns, so every seed's pool has the same mix *)
    let j = List.length !pool in
    let dfg = generated ~prng ~other_ratio:0.1 ~lo:10 ~hi:10 in
    let cp = T.Dfg.critical_path dfg in
    let mode =
      if j land 1 = 0 then T.Spec.Detection_only else T.Spec.Detection_and_recovery
    in
    let spec =
      spec_for ~mode ~dfg ~latency_detect:(cp + 1 + ((j lsr 1) land 1))
        ~latency_recover:cp ~frac:(if j land 4 = 0 then 2.0 else 3.0) ()
    in
    let key = Key.of_spec ~solver:T.Optimize.License_search spec in
    if not (Hashtbl.mem seen key.Key.content) then begin
      Hashtbl.replace seen key.Key.content ();
      Option.iter
        (fun design ->
          pool := { i_spec = spec; i_mc = T.Design.cost design; i_design = design } :: !pool)
        (cheap_optimum spec)
    end
  done;
  Array.of_list (List.rev !pool)

let request_line inst dfg =
  let spec = inst.i_spec in
  let mode, recover =
    match spec.T.Spec.mode with
    | T.Spec.Detection_only -> ("detection", [])
    | T.Spec.Detection_and_recovery ->
        ("detection_and_recovery", [ ("latency_recover", J.Int spec.T.Spec.latency_recover) ])
  in
  J.to_string
    (J.Obj
       ([ ("op", J.String "solve");
          ("dfg", J.String (T.Dfg_parse.to_string dfg));
          ("catalog", J.String "eight");
          ("mode", J.String mode);
          ("latency_detect", J.Int spec.T.Spec.latency_detect);
          ("area", J.Int spec.T.Spec.area_limit) ]
       @ recover))

(* Zipf popularity over a seeded ranking of the pool *)
let zipf_draws ~prng ~s ~n pool_n =
  let rank = Array.init pool_n Fun.id in
  T.Prng.shuffle prng rank;
  let cdf = Array.make pool_n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to pool_n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !acc
  done;
  Array.init n (fun _ ->
      let u = T.Prng.float prng !acc in
      let lo = ref 0 and hi = ref (pool_n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      rank.(!lo))

(* The offered rate is a tenth of the service's capacity on a 2-vCPU
   2.1 GHz x86 VM (serve_max_rps, about 5000 req/s there), so the server
   is busy about a tenth of the time: the fixed-rate latencies read
   service time plus the queueing behind an occasional miss, and
   serve_max_rps covers the saturated side.  At twice the rate a miss
   (about 1 ms) delays the requests behind it, and p99 swung by 25-70%
   between seeds. *)
let serve_rate = 500.0

(* requests in one replay: p99 has ten requests beyond it *)
let serve_requests = 1_000

(* Zipf exponent of request popularity: the top of the 0.64-0.83 range
   Breslau et al. measured for web proxy traces ("Web caching and
   Zipf-like distributions", INFOCOM 1999).  At 0.8 nearly every pool
   instance is requested at least once per schedule, so which instances
   miss, and with them p99, hardly depends on the seed. *)
let zipf_s = 0.8

(* The p99 a rate must meet to count towards serve_max_rps: 0.1 s, the
   usual limit for a response to feel immediate to the person at the
   command line (`thls submit`). *)
let p99_limit_ms = 100.0

(* the response must carry the direct solve's cost and no error *)
let response_ok inst resp =
  J.mem_str "status" resp = Some "ok"
  &&
  match J.member "result" resp with
  | Some res -> J.mem_int "mc" res = Some inst.i_mc
  | None -> false

(* Each service layer called on its own, on the request just served. *)
let serve_layers ~op ~dir service inst line ~miss ~disk_hit =
  let parsed = Span.with_ "json.parse" ~op (fun () -> J.parse line) in
  let text =
    match parsed with
    | Ok j -> Option.value ~default:"" (J.mem_str "dfg" j)
    | Error _ -> ""
  in
  (match Span.with_ "dfg.parse" ~op (fun () -> T.Dfg_parse.of_string text) with
  | Ok dfg ->
      ignore
        (Span.with_ "dfg.canon" ~op (fun () ->
             (Thr_dfg.Canon.perm dfg, Thr_dfg.Canon.fingerprint dfg)));
      let spec = { inst.i_spec with T.Spec.dfg } in
      let key =
        Span.with_ "server.key" ~op (fun () ->
            Key.of_spec ~solver:T.Optimize.License_search spec)
      in
      let sdir = Option.get (Service.cache service).Cache.persist_dir in
      if disk_hit then
        ignore
          (Span.with_ "cache.disk_load" ~op (fun () -> Cache.persist_load sdir key.Key.hash));
      if miss then
        Option.iter
          (fun entry ->
            Span.with_ "cache.persist" ~op (fun () ->
                Cache.persist_store dir key.Key.hash entry))
          (Cache.persist_load sdir key.Key.hash)
  | Error _ -> record "dfg.parse of a served request" false);
  ignore (Span.with_ "hls.validate" ~op (fun () -> T.Design.validate inst.i_design))

type serve_setup = { pool : instance array; lines : (int * string) array }

let serve_setup ~prng =
  let pool = serve_pool () in
  let draws = zipf_draws ~prng ~s:zipf_s ~n:serve_requests (Array.length pool) in
  let dfgs =
    Array.map
      (fun k ->
        let text = T.Dfg_parse.to_string (reordered ~prng pool.(k).i_spec.T.Spec.dfg) in
        match T.Dfg_parse.of_string text with
        | Ok dfg -> dfg
        | Error _ -> failwith "set-up: a reordered DFG does not parse")
      draws
  in
  (* The service solves an instance once, numbered as its first request
     sends it, and answers later requests from the cache.  An instance
     whose first renumbering does not reach the direct optimum is left
     out. *)
  let keep = Array.make (Array.length pool) true in
  let seen = Array.make (Array.length pool) false in
  Array.iteri
    (fun i k ->
      if not seen.(k) then begin
        seen.(k) <- true;
        let inst = pool.(k) in
        match cheap_optimum { inst.i_spec with T.Spec.dfg = dfgs.(i) } with
        | Some design when T.Design.cost design = inst.i_mc -> ()
        | _ -> keep.(k) <- false
      end)
    draws;
  let lines = ref [] in
  Array.iteri
    (fun i k -> if keep.(k) then lines := (k, request_line pool.(k) dfgs.(i)) :: !lines)
    draws;
  { pool; lines = Array.of_list (List.rev !lines) }

(* The generator spins rather than sleeps until a request is due: a
   sleeping process loses its core and its caches, and the wake-up would
   be charged to the service. *)
let sleep_until t = while now () < t do () done

(* the latencies a single server with these service times would give at
   [rate]: each request starts at its due time or when the previous one
   finishes, whichever is later *)
let replay_latencies ~rate service =
  let fin = ref 0.0 in
  Array.mapi
    (fun i s ->
      let due = float_of_int i /. rate in
      let start = Float.max due !fin in
      fin := start +. s;
      !fin -. due)
    service

(* highest offered rate whose replayed p99 stays within the limit; above
   1/mean(service) the backlog grows without bound *)
let max_rate service =
  let n = float_of_int (Array.length service) in
  let cap = n /. Array.fold_left ( +. ) 0.0 service in
  let ok rate =
    percentile (replay_latencies ~rate service) 0.99 *. 1000.0 <= p99_limit_ms
  in
  let lo = ref 1.0 and hi = ref cap in
  if ok !hi then !hi
  else begin
    for _ = 1 to 40 do
      let mid = (!lo +. !hi) /. 2.0 in
      if ok mid then lo := mid else hi := mid
    done;
    !lo
  end

(* The serve stage is one open-loop schedule at the offered rate.  It
   sends the request sequence [replays] times over; each replay goes to a
   fresh service with a fresh disk tier, as after a restart, so every
   replay has its cold misses.  The replays are units of their own, so
   other stages run between them, never inside one.  The schedule's clock
   stops while they run: when a replay resumes, its first request is due
   as long after the previous request's finish as it would have been
   without the pause, so a backlog carries over from replay to replay.  A
   request's latency runs from its due time to the end of printing its
   response.  Nothing is collected by force: the service pays for the
   garbage it finds.  The serve metrics are taken over every request of
   every replay, each scaled like the other stages' samples. *)
let served = ref 0

let serve_units ~traced ~replays setup =
  let probe_dir = fresh_dir "probe" in
  let n = Array.length setup.lines in

  (* request g of the schedule is due at [!offset + g / serve_rate] *)
  let offset = ref 0.0 and last_fin = ref 0.0 in
  let replay s () =
    let dir = fresh_dir "serve" in
    let service =
      Service.create ~config:{ Service.default_config with persist_dir = Some dir } ()
    in
    let cache = Service.cache service in
    let service_s = Array.make n 0.0 in
    let request i =
      let k, line = setup.lines.(i) in
      let inst = setup.pool.(k) in
      let g = (s * n) + i in
      let op = 200_000 + g in
      let due = !offset +. (float_of_int g /. serve_rate) in
      (* calibrate in the idle gap, if it ends well before the request is due *)
      if due -. now () > 0.0008 then maybe_calibrate ~every:0.01;
      if now () < due then begin
        sleep_until due;
        add "generator_late_ms" ((now () -. due) *. 1000.0)
      end;
      let before = Cache.counters cache in
      let start = now () in
      let resp, text =
        Span.with_ "serve.request" ~op (fun () ->
            let resp =
              Span.with_ "service.handle_line" ~op (fun () ->
                  Service.handle_line service line)
            in
            (resp, Span.with_ "json.print" ~op (fun () -> J.to_string resp)))
      in
      let fin = now () in
      last_fin := fin;
      add_sample "serve.latency_ms" i ~secs:(fin -. due) ((fin -. due) *. 1000.0);
      add_sample "serve.service_s" i ~secs:(fin -. start) (fin -. start);
      service_s.(i) <- fin -. start;
      incr served;
      let after = Cache.counters cache in
      let miss = after.Cache.misses > before.Cache.misses in
      let disk_hit = after.Cache.disk_hits > before.Cache.disk_hits in
      if miss then add "serve.miss_ms" ((fin -. start) *. 1000.0);
      if traced then begin
        if (not miss) && not disk_hit then add "cache.hit_ms" ((fin -. start) *. 1000.0);
        Span.with_ "serve.layers" ~op (fun () ->
            serve_layers ~op ~dir:probe_dir service inst line ~miss ~disk_hit);
        (* the probes are not the service's work: the clock stops for them *)
        offset := !offset +. (now () -. !last_fin);
        last_fin := now ()
      end;
      if response_ok inst resp then record "" true
      else
        record (Printf.sprintf "serve request %d: expected $%d, got %s" i inst.i_mc text) false
    in
    let resume = now () in
    if s = 0 then offset := resume +. 0.001
    else offset := !offset +. (resume -. !last_fin);
    Span.enabled := traced;
    for i = 0 to n - 1 do
      request i
    done;
    let elapsed = now () -. resume in
    Span.enabled := false;
    remove_tree dir;
    add "serve.utilisation" (Array.fold_left ( +. ) 0.0 service_s /. elapsed);
    (* the cache's path through the sequence is the same in every
       replay *)
    if s = 0 then begin
      let c = Cache.counters cache in
      let lookups = float_of_int (max 1 (c.Cache.hits + c.Cache.misses)) in
      count "cache.hit_share" (float_of_int c.Cache.hits /. lookups);
      count "cache.disk_hit_share" (float_of_int c.Cache.disk_hits /. lookups);
      count "cache.miss_share" (float_of_int c.Cache.misses /. lookups);
      count "cache.evictions" (float_of_int c.Cache.evictions)
    end
  in
  List.init replays replay

(* ------------------------------ set-up ----------------------------- *)

type setup = {
  items : design_item list;
  designs : verify_design list;
  serve : serve_setup;
}

(* How often each stage repeats its operations.  A cheap design solve or
   a lint of the light verify set takes a few ms to a few hundred, and
   this host's speed swings by up to 60% for seconds at a time, so these
   repeat most: their figures are medians of repeats.  The workload's own
   stage repeats more than the other two. *)
type plan = {
  design_passes : int;  (** cheap solves; heavy ones run once (twice traced) *)
  verify_passes : int;  (** cosim, mutants, campaign *)
  lint_passes : int;  (** lints of the light designs *)
  heavy_lint_passes : int;  (** lints of fir16 and elliptic (verify only) *)
  replays : int;  (** of the serve request sequence *)
}

let plan workload seconds =
  let sc = scaled ~seconds in
  match workload with
  | "design" ->
      { design_passes = sc 9; verify_passes = sc 3; lint_passes = sc 5;
        heavy_lint_passes = 0; replays = sc 3 }
  | "verify" ->
      { design_passes = sc 2; verify_passes = sc 2; lint_passes = sc 3;
        heavy_lint_passes = sc 2; replays = sc 4 }
  | "serve" ->
      { design_passes = sc 5; verify_passes = sc 3; lint_passes = sc 4;
        heavy_lint_passes = 0; replays = sc 5 }
  | w -> invalid_arg ("unknown workload " ^ w)

(* Inputs from the seed, plus one warm-up operation per stage so lazy
   initialisation lands here and not in the measured window. *)
let make_setup ~workload ~seed =
  let prng = T.Prng.create ~seed in
  let items = design_items ~prng:(T.Prng.split prng) in
  let designs =
    verify_designs ~full:(workload = "verify") ~prng:(T.Prng.split prng)
  in
  let serve = serve_setup ~prng:(T.Prng.split prng) in
  ignore (solve_plain (List.hd items));
  let d = (List.hd designs).v_design in
  ignore (lint_op ~op:0 Trojan d);
  ignore (T.Campaign.cosim ~prng ~vectors:64 d);
  let warm =
    Service.create
      ~config:{ Service.default_config with persist_dir = Some (fresh_dir "warm") } ()
  in
  Array.iteri
    (fun i (_, line) -> if i < 8 then ignore (J.to_string (Service.handle_line warm line)))
    serve.lines;
  { items; designs; serve }

(* ------------------------------ report ----------------------------- *)

(* the process's peak resident set (VmHWM), or None where the kernel
   does not report it *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let rec go () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                (fun kb -> Some (float_of_int kb /. 1024.0))
          | _ -> go ()
          | exception End_of_file -> None
        in
        go ())
  with Sys_error _ -> None

type metric = { name : string; value : float; unit : string; n : int }

let m name unit n value = { name; value; unit; n }

let med name = percentile (samples name) 0.5
let p name q = percentile (samples name) q
let n_of name = Array.length (samples name)

let share num den = if den = 0.0 then nan else num /. den

(* every request's scaled sample of [key], over all serve replays *)
let all_requests key = Option.value ~default:[||] (Hashtbl.find_opt scaled_all key)

(* each request's median sample of [key] over the replays, in request
   order *)
let per_request key =
  Hashtbl.fold (fun (k, i) v acc -> if k = key then (i, v) :: acc else acc) bests []
  |> List.sort compare |> List.map snd |> Array.of_list

(* over the best times of [resolve_bests] *)
let end_to_end ~rss =
  let design_n = n_of "design_optimal" in
  let best_p name q = percentile (best_of name) q in
  (* work per operation over the operations' best times *)
  let best_rate name key per_op =
    let b = best_of key in
    m name "1/s" (n_of key)
      (float_of_int (Array.length b * per_op) /. Array.fold_left ( +. ) 0.0 b)
  in

  [ m "setup_s" "s" (Array.length (best_of "setup_s")) (best_p "setup_s" 0.5);
    m "peak_rss_mb" "MB" 1 rss;
    m "ok_share" "share" !attempted
      (1.0 -. share (float_of_int !failed) (float_of_int !attempted));
    m "optimize_ms_p50" "ms" (n_of "optimize_ms") (best_p "optimize_ms" 0.5);
    m "optimize_ms_p90" "ms" (n_of "optimize_ms") (best_p "optimize_ms" 0.9);
    m "design_cost_usd" "USD" (n_of "design_cost") (sum "design_cost");
    m "optimal_share" "share" design_n
      (share (sum "design_optimal") (float_of_int design_n));
    m "lint_ms_p50" "ms" (n_of "lint_ms") (best_p "lint_ms" 0.5);
    m "lint_ms_p90" "ms" (n_of "lint_ms") (best_p "lint_ms" 0.9);
    m "prove_decided_share" "share" (int_of_float (count_of "prove.candidates"))
      (share
         (count_of "prove.candidates" -. count_of "prove.inconclusive")
         (count_of "prove.candidates"));
    best_rate "cosim_vectors_per_s" "cosim_s" cosim_vectors;
    best_rate "mutant_vectors_per_s" "mutant_s" mutant_vectors;
    best_rate "campaign_runs_per_s" "campaign_s" campaign_runs;
    (* The median over the requests of each one's median over the
       replays leaves out a stall that hit one replay.  The tail needs
       every sample: p99 over all requests served has 30 or more beyond
       it. *)
    m "serve_p50_ms" "ms" !served (percentile (per_request "serve.latency_ms") 0.5);
    m "serve_p99_ms" "ms" !served (percentile (all_requests "serve.latency_ms") 0.99);
    m "serve_max_rps" "req/s" !served (max_rate (per_request "serve.service_s")) ]

(* median duration of the spans of one layer, in ms *)
let span_ms name =
  List.filter_map
    (fun s -> if s.Span.name = name then Some (Span.dur s /. 1000.0) else None)
    !Span.spans
  |> Array.of_list

let probe_spans =
  [ "design.solve.traced"; "verify.lint.layers"; "verify.cosim.layers";
    "verify.mutants.layers"; "verify.campaign.layers"; "serve.layers" ]

let per_layer ~gc0 ~gc1 ~busy_s =
  let probe_s =
    List.fold_left
      (fun acc name -> acc +. (Array.fold_left ( +. ) 0.0 (span_ms name) /. 1000.0))
      0.0 probe_spans
  in
  (* mean per call: many layer calls are shorter than the clock's 1 µs
     step, so a median would read the same on every run *)
  let sp name =
    let a = span_ms name in
    m (name ^ "_ms") "ms" (Array.length a)
      (Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a))
  in
  let rate_us key vectors =
    sum key /. sum vectors
  in
  let c name unit = m name unit 1 (count_of name) in
  [ sp "opt.search";
    c "opt.csp_nodes" "count";
    c "opt.candidates" "count";
    sp "ilp.solve";
    c "ilp.nodes" "count";
    c "lp.pivots" "count";
    c "lp.refactorizations" "count";
    sp "hls.validate";
    sp "dfg.parse";
    sp "dfg.canon";
    m "dfg.eval_us_per_vector" "us" (n_of "dfg.eval_us")
      (rate_us "dfg.eval_us" "rtl.batch_vectors");
    sp "json.parse";
    sp "json.print";
    sp "server.key";
    m "cache.hit_ms" "ms" (n_of "cache.hit_ms") (med "cache.hit_ms");
    sp "cache.disk_load";
    sp "cache.persist";
    c "cache.hit_share" "share";
    c "cache.disk_hit_share" "share";
    c "cache.evictions" "count";
    sp "rtl.elaborate";
    m "rtl.batch_us_per_vector" "us" (n_of "rtl.batch_us")
      (rate_us "rtl.batch_us" "rtl.batch_vectors");
    m "rtl.mutant_us_per_vector" "us" (n_of "rtl.mutant_us")
      (rate_us "rtl.mutant_us" "rtl.mutant_vectors");
    m "engine.run_us" "us" (n_of "engine.run_us") (med "engine.run_us");
    sp "gates.tape";
    m "gates.strip_vectors_per_s" "1/s" (n_of "gates.strip_s")
      (sum "rtl.batch_vectors" /. sum "gates.strip_s");
    sp "check.lint";
    sp "check.taint";
    sp "check.prob";
    sp "sat.prove";
    sp "sat.replay";
    c "sat.conflicts" "count";
    c "sat.propagations" "count";
    c "sat.certificates" "count";
    m "sat.preprocess_shrink" "share" 1
      (share (count_of "sat.clauses_out") (count_of "sat.clauses_in"));
    m "serve.generator_late_ms" "ms" (n_of "generator_late_ms")
      (p "generator_late_ms" 0.99);
    c "cache.miss_share" "share";
    m "serve.miss_ms_p50" "ms" (n_of "serve.miss_ms") (med "serve.miss_ms");
    m "serve.miss_ms_p99" "ms" (n_of "serve.miss_ms") (p "serve.miss_ms" 0.99);
    m "serve.utilisation" "share" (n_of "serve.utilisation") (med "serve.utilisation");
    m "gc.minor_mb" "MB" 1
      ((gc1.Gc.minor_words -. gc0.Gc.minor_words) *. float_of_int (Sys.word_size / 8)
      /. 1048576.0);
    m "gc.major_collections" "count" 1
      (float_of_int
         (gc1.Gc.major_collections - gc0.Gc.major_collections - !forced_majors));
    (* each traced solve against the plain solve just before it *)
    m "trace.overhead_pct" "%" (n_of "overhead.plain")
      (100.0 *. ((sum "overhead.traced" /. sum "overhead.plain") -. 1.0));
    (* what the traced run does on top of the untraced run's work: the
       layer probes and the traced re-solves *)
    m "trace.probe_pct" "%" 1 (100.0 *. probe_s /. (busy_s -. probe_s)) ]

let print_table title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-28s %16.6g %-6s n=%d\n" x.name x.value x.unit x.n)
    ms

let result_json ~correct ms =
  J.to_string
    (J.Obj
       [ ("correct", J.Bool correct);
         ("attempted", J.Int !attempted);
         ("failed", J.Int !failed);
         ( "metrics",
           J.Obj
             (List.map
                (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.String x.unit) ]))
                ms) ) ])

(* ------------------------------- main ------------------------------ *)

let run ~workload ~seed ~seconds ~traced =
  let plan = plan workload seconds in
  let setup = ref None in
  for k = 0 to 2 do
    for _ = 1 to 4 do calibrate () done;
    let t0 = now () in
    setup := Some (make_setup ~workload ~seed);
    let secs = now () -. t0 in
    add_sample "setup_s" k ~secs secs;
    for _ = 1 to 4 do calibrate () done;
    Gc.compact ()
  done;
  let setup = Option.get !setup in
  Hashtbl.reset series;
  Hashtbl.reset counts;
  attempted := 0;
  failed := 0;
  Span.reset ();
  let gc0 = Gc.quick_stat () in
  let busy =
    interleave
      [ design_units ~traced ~passes:plan.design_passes setup.items;
        verify_units ~traced ~seed ~passes:plan.verify_passes
          ~lint_passes:plan.lint_passes ~heavy_lint_passes:plan.heavy_lint_passes
          setup.designs;
        serve_units ~traced ~replays:plan.replays setup.serve ]
  in
  Span.enabled := false;
  Printf.printf "stage seconds: design %.1f, verify %.1f, serve %.1f\n" busy.(0)
    busy.(1) busy.(2);
  Printf.printf "host speed %.3f of the reference (%d calibrations)\n" (host_speed ())
    (List.length !calib_dur);
  let gc1 = Gc.quick_stat () in
  let rss =
    match peak_rss_mb () with
    | Some mb -> mb
    | None ->
        prerr_endline "perfbench: no VmHWM in /proc/self/status";
        exit 1
  in
  let metrics =
    if traced then per_layer ~gc0 ~gc1 ~busy_s:(Array.fold_left ( +. ) 0.0 busy)
    else begin
      resolve_bests ();
      end_to_end ~rss
    end
  in
  print_table
    (Printf.sprintf "workload %s, seed %d, %.0f s (%s)" workload seed seconds
       (if traced then "traced" else "untraced"))
    metrics;
  if traced then begin
    let path =
      Filename.concat out_dir (Printf.sprintf "trace-%s-%d.json" workload seed)
    in
    Span.write_chrome path;
    Printf.printf "layer self time (ms):\n";
    List.iter
      (fun (name, n, total, self) ->
        Printf.printf "  %-28s n=%-6d total %10.1f  self %10.1f\n" name n
          (total /. 1000.0) (self /. 1000.0))
      (Span.by_layer ());
    Printf.printf "chrome trace: %s\n" path
  end;
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  Printf.printf "attempted %d, failed %d\n" !attempted !failed;
  print_endline (result_json ~correct:(!failed = 0 && finite) metrics);
  if not finite then exit 1

(* The failure accounting must see a deliberately wrong expectation: a
   netlist with its comparator skipped, checked as if clean, and a
   response checked against the wrong cost. *)
let self_test () =
  let prng = T.Prng.create ~seed:1 in
  let d = (List.hd (verify_designs ~full:false ~prng)).v_design in
  let _, clean_report, _, clean_ok = lint_op ~op:0 Clean d in
  record "clean lint expected clean" clean_ok;
  let _, _, _, bypass_ok = lint_op ~op:0 Bypass d in
  record "comparator-skip lint expected clean" bypass_ok;
  let after_lint = !failed in
  let inst = { i_spec = d.T.Design.spec; i_mc = T.Design.cost d + 1; i_design = d } in
  let service = Service.create () in
  let resp = Service.handle_line service (request_line inst d.T.Design.spec.T.Spec.dfg) in
  record "response against a wrong cost" (response_ok inst resp);
  let ok =
    clean_ok && clean_report.T.Check.prove <> None && after_lint = 1 && !failed = 2
    && !attempted = 3
  in
  Printf.printf "self-test: attempted %d, failed %d, failed_share %.3f -> %s\n"
    !attempted !failed
    (float_of_int !failed /. float_of_int !attempted)
    (if ok then "ok" else "WRONG");
  exit (if ok then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.0 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "design | verify | serve");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--seconds", Arg.Set_float seconds, "measured window");
      ("--trace", Arg.Set_int trace, "0 = end-to-end metrics, 1 = per-layer");
      ("--self-test", Arg.Set self, "check the failure accounting") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  (* exit through at_exit, which removes the temporary directories *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigterm; Sys.sigint ];
  if !self then self_test ()
  else begin
    (match plan !workload !seconds with
    | _ -> ()
    | exception Invalid_argument msg ->
        prerr_endline msg;
        exit 2);
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1)
  end
