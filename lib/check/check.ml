module Netlist = Thr_gates.Netlist
module Json = Thr_util.Json
module Tablefmt = Thr_util.Tablefmt
module Trace = Thr_obs.Trace
module Metrics = Thr_obs.Metrics
module Log = Thr_obs.Log
module Bmc = Thr_sat.Bmc

type taint_spec = {
  vendor_of : Netlist.net -> int option;
  mismatch : Netlist.net;
  min_vendors : int;
}

type prover = net:Netlist.net -> value:bool -> Bmc.outcome

type prove_stats = {
  prove_bound : int;
  prove_candidates : int;
  prove_reachable : int;
  prove_certified : int;
  prove_unreachable : int;
  prove_inconclusive : int;
  prove_replay_failed : int;
}

type report = {
  netlist_name : string;
  n_nets : int;
  n_gates : int;
  n_dffs : int;
  findings : Finding.t list;
  probs : float array;
  prove : prove_stats option;
}

let default_prove_budget = 400_000

let runs = Metrics.counter "thr_check_runs"

let c_error = Metrics.counter "thr_check_findings_error"

let c_warning = Metrics.counter "thr_check_findings_warning"

let c_info = Metrics.counter "thr_check_findings_info"

let count_severity fs sev =
  List.length (List.filter (fun f -> f.Finding.severity = sev) fs)

(* Cross-check the analytic rare-net candidates against a packed-engine
   Monte-Carlo estimate.  Everything reported here is Info: the
   empirical pass corroborates or questions the model, it never changes
   the exit code (sampling noise must not flake a CI lint). *)
let empirical_findings ~jobs ~vectors nl rare_findings =
  let q = Prob.empirical ~jobs ~seed:0x7105 ~vectors nl in
  let activation i = Float.min q.(i) (1.0 -. q.(i)) in
  let candidate_idx =
    List.filter_map
      (fun f ->
        if f.Finding.rule = "rare-net" then f.Finding.net else None)
      rare_findings
    |> List.sort_uniq Stdlib.compare
  in
  let corroborated = ref 0 and contradicted = ref 0 in
  let per_net =
    Netlist.nets_in_order nl
    |> Array.to_list
    |> List.filter_map (fun net ->
           let i = Netlist.net_index net in
           if not (List.mem i candidate_idx) then None
           else begin
             let a = activation i in
             (* a true trigger candidate should essentially never toggle
                in a few thousand vectors; anything past 1% is the model
                and the simulation disagreeing *)
             let agrees = a < 0.01 in
             if agrees then incr corroborated else incr contradicted;
             Some
               (Finding.make ~pass:Finding.Rare ~severity:Finding.Info
                  ~rule:"rare-empirical" ~net
                  (Printf.sprintf
                     "%s: empirical activation %.3g over %d packed vectors \
                      %s the analytic rare-net score"
                     (Finding.net_label nl net) a vectors
                     (if agrees then "corroborates" else "contradicts")))
           end)
  in
  let summary =
    Finding.make ~pass:Finding.Rare ~severity:Finding.Info ~rule:"empirical"
      (Printf.sprintf
         "empirical cross-check: %d vectors on the packed engine; %d/%d \
          rare-net candidate(s) corroborated"
         vectors !corroborated
         (!corroborated + !contradicted))
  in
  summary :: per_net

(* Escalate every rare-net Warning to an exact verdict, in one batch
   handed to the prover portfolio ({!Thr_sat.Induction} unless a custom
   [prover] was injected).  Reachable with a witness that replays on the
   packed simulator becomes a blocking Error carrying the concrete
   activating input sequence; an unbounded certificate (k-induction or a
   combinational cone) is downgraded to Info under its own rule carrying
   the certificate depth and method; proven unreachable merely within
   the bound is the weaker Info; a budget-exhausted check stays a
   Warning under its own rule so the exit code can say "inconclusive"
   rather than "infected".

   A Reachable witness that does {e not} replay is a prover bug — the
   original Warning is kept (never silently upgraded or dropped), an
   Info records the mismatch, and a [witness_replay_mismatch] log event
   fires for the operator. *)
let prove_findings ~bound ~batch nl probs rare_findings =
  Trace.with_span "check.prove"
    ~args:
      [ ("netlist", Netlist.name nl); ("bound", string_of_int bound) ]
    (fun () ->
      let net_by_idx = Array.make (Netlist.n_nets nl) None in
      Array.iter
        (fun net -> net_by_idx.(Netlist.net_index net) <- Some net)
        (Netlist.nets_in_order nl);
      let candidate_of f =
        if f.Finding.rule = "rare-net" then
          Option.bind f.Finding.net (fun i -> net_by_idx.(i))
        else None
      in
      let cands =
        Array.of_list
          (List.filter_map
             (fun f ->
               Option.map
                 (fun net ->
                   (net, probs.(Netlist.net_index net) < 0.5))
                 (candidate_of f))
             rare_findings)
      in
      let outcomes = batch cands in
      if Array.length outcomes <> Array.length cands then
        invalid_arg "Check.run: prover returned a short outcome array";
      let stats =
        ref
          {
            prove_bound = bound;
            prove_candidates = Array.length cands;
            prove_reachable = 0;
            prove_certified = 0;
            prove_unreachable = 0;
            prove_inconclusive = 0;
            prove_replay_failed = 0;
          }
      in
      (* walk the findings again in the same order, consuming outcomes *)
      let next = ref 0 in
      let escalate f =
        match candidate_of f with
        | None -> [ f ]
        | Some net ->
            let label = Finding.net_label nl net in
            let outcome = outcomes.(!next) in
            incr next;
            (match outcome with
            | Bmc.Reachable w when Bmc.replay nl w ->
                stats :=
                  { !stats with prove_reachable = !stats.prove_reachable + 1 };
                [
                  Finding.make ~pass:Finding.Rare ~severity:Finding.Error
                    ~rule:"proved-reachable" ~net
                    (Printf.sprintf
                       "%s: rare value proven reachable; activating sequence %s"
                       label (Bmc.describe w));
                ]
            | Bmc.Reachable w ->
                stats :=
                  {
                    !stats with
                    prove_replay_failed = !stats.prove_replay_failed + 1;
                  };
                Log.warn "witness_replay_mismatch"
                  [
                    ("netlist", Netlist.name nl);
                    ("net", label);
                    ("cycle", string_of_int w.Bmc.w_cycle);
                  ];
                [
                  f;
                  Finding.make ~pass:Finding.Rare ~severity:Finding.Info
                    ~rule:"witness-replay-mismatch" ~net
                    (Printf.sprintf
                       "%s: prover returned a %d-cycle witness that does not \
                        replay on the packed simulator; keeping the \
                        probabilistic finding"
                       label w.Bmc.w_cycle);
                ]
            | Bmc.Unreachable_unbounded c ->
                stats :=
                  { !stats with prove_certified = !stats.prove_certified + 1 };
                [
                  Finding.make ~pass:Finding.Rare ~severity:Finding.Info
                    ~rule:"unreachable-unbounded" ~net
                    (Printf.sprintf
                       "%s: rare value proven unreachable at any depth \
                        (%s, depth %d)"
                       label c.Bmc.c_method c.Bmc.c_depth);
                ]
            | Bmc.Unreachable k ->
                stats :=
                  {
                    !stats with
                    prove_unreachable = !stats.prove_unreachable + 1;
                  };
                [
                  Finding.make ~pass:Finding.Rare ~severity:Finding.Info
                    ~rule:"rare-unreachable" ~net
                    (Printf.sprintf
                       "%s: rare value proven unreachable within %d cycle(s)"
                       label k);
                ]
            | Bmc.Inconclusive frame ->
                stats :=
                  {
                    !stats with
                    prove_inconclusive = !stats.prove_inconclusive + 1;
                  };
                [
                  Finding.make ~pass:Finding.Rare ~severity:Finding.Warning
                    ~rule:"rare-inconclusive" ~net
                    (Printf.sprintf
                       "%s: prove budget exhausted at frame %d; reachability \
                        undecided"
                       label frame);
                ])
      in
      let escalated = List.concat_map escalate rare_findings in
      let s = !stats in
      let summary =
        Finding.make ~pass:Finding.Rare ~severity:Finding.Info ~rule:"prove"
          (Printf.sprintf
             "prover portfolio (bound %d): %d candidate(s): %d proved \
              reachable, %d certified unreachable-unbounded, %d unreachable \
              within bound, %d inconclusive%s"
             s.prove_bound s.prove_candidates s.prove_reachable
             s.prove_certified s.prove_unreachable s.prove_inconclusive
             (if s.prove_replay_failed > 0 then
                Printf.sprintf ", %d witness replay failure(s)"
                  s.prove_replay_failed
              else ""))
      in
      (summary :: escalated, s))

let run ?taint ?rare_threshold ?empirical ?prove ?prove_budget ?prover
    ?(jobs = 1) nl =
  Metrics.incr runs;
  let name = Netlist.name nl in
  let lint_findings =
    Trace.with_span "check.lint" ~args:[ ("netlist", name) ] (fun () ->
        Lint.analyse nl)
  in
  let taint_findings =
    match taint with
    | None -> []
    | Some { vendor_of; mismatch; min_vendors } ->
        Trace.with_span "check.taint" ~args:[ ("netlist", name) ] (fun () ->
            fst (Taint.analyse ~vendor_of ~mismatch ~min_vendors nl))
  in
  let rare_findings, probs =
    (* The mismatch comparator's reduction cone (up to the register
       boundary) is scored as near-constant because the NC/RC replicas
       it compares always agree — integrator-inserted checker logic the
       taint pass verifies structurally, so keep it out of the
       trigger-candidate scoring. *)
    let exclude =
      Option.map
        (fun { mismatch; _ } ->
          Netlist.in_cone nl ~through_dffs:false ~roots:[ mismatch ] ())
        taint
    in
    Trace.with_span "check.rare" ~args:[ ("netlist", name) ] (fun () ->
        Prob.analyse ?threshold:rare_threshold ?exclude nl)
  in
  let empirical_fs =
    match empirical with
    | None -> []
    | Some vectors ->
        Trace.with_span "check.empirical"
          ~args:[ ("netlist", name); ("vectors", string_of_int vectors) ]
          (fun () -> empirical_findings ~jobs ~vectors nl rare_findings)
  in
  let rare_findings, prove_stats =
    match prove with
    | None -> (rare_findings, None)
    | Some bound ->
        let budget =
          Option.value ~default:default_prove_budget prove_budget
        in
        let batch =
          match prover with
          | Some p ->
              fun cands -> Array.map (fun (net, value) -> p ~net ~value) cands
          | None -> Thr_sat.Induction.prove ~bound ~budget ~jobs nl
        in
        let fs, stats = prove_findings ~bound ~batch nl probs rare_findings in
        (fs, Some stats)
  in
  let findings =
    List.sort Finding.compare
      (lint_findings @ taint_findings @ rare_findings @ empirical_fs)
  in
  Metrics.add c_error (count_severity findings Finding.Error);
  Metrics.add c_warning (count_severity findings Finding.Warning);
  Metrics.add c_info (count_severity findings Finding.Info);
  {
    netlist_name = name;
    n_nets = Netlist.n_nets nl;
    n_gates = Netlist.n_gates nl;
    n_dffs = Netlist.n_dffs nl;
    findings;
    probs;
    prove = prove_stats;
  }

type watch_point = { wp_net : int; wp_rare_value : bool; wp_prob : float }

(* Hand the rare-net candidates to the runtime flight recorder: for each
   flagged net, which logic value is the rare one (the level a trigger
   would wait for) and how rare the analytic pass thinks it is. *)
let rare_watchlist r =
  List.filter_map
    (fun f ->
      match f.Finding.net with
      | Some i
        when f.Finding.rule = "rare-net" || f.Finding.rule = "proved-reachable"
        ->
          let p = if i < Array.length r.probs then r.probs.(i) else 0.5 in
          Some { wp_net = i; wp_rare_value = p < 0.5; wp_prob = p }
      | _ -> None)
    r.findings
  |> List.sort_uniq (fun a b -> compare a.wp_net b.wp_net)

let errors r =
  List.filter (fun f -> f.Finding.severity = Finding.Error) r.findings

let warnings r =
  List.filter (fun f -> f.Finding.severity = Finding.Warning) r.findings

let clean r = not (List.exists Finding.is_blocking r.findings)

(* A blocking finding means Lint — except when under [--prove] the only
   blocking findings left are budget-starved [rare-inconclusive]
   warnings, which deserve their own exit code: the design was not shown
   infected, the prover just ran out of budget. *)
let exit_code r =
  let blocking = List.filter Finding.is_blocking r.findings in
  if List.exists (fun f -> f.Finding.rule <> "rare-inconclusive") blocking
  then Thr_util.Exit_code.Lint
  else if blocking <> [] then Thr_util.Exit_code.Inconclusive
  else Thr_util.Exit_code.Ok

let to_json r =
  Json.Obj
    ([
       ("netlist", Json.String r.netlist_name);
       ("nets", Json.Int r.n_nets);
       ("gates", Json.Int r.n_gates);
       ("dffs", Json.Int r.n_dffs);
       ("clean", Json.Bool (clean r));
       ("exit_code", Json.Int (Thr_util.Exit_code.code (exit_code r)));
       ("errors", Json.Int (List.length (errors r)));
       ("warnings", Json.Int (List.length (warnings r)));
       ("findings", Json.List (List.map Finding.to_json r.findings));
     ]
    @
    match r.prove with
    | None -> []
    | Some s ->
        [
          ( "prove",
            Json.Obj
              [
                ("bound", Json.Int s.prove_bound);
                ("candidates", Json.Int s.prove_candidates);
                ("reachable", Json.Int s.prove_reachable);
                ("certified", Json.Int s.prove_certified);
                ("unreachable", Json.Int s.prove_unreachable);
                ("inconclusive", Json.Int s.prove_inconclusive);
                ("replay_failed", Json.Int s.prove_replay_failed);
              ] );
        ])

let render r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s: %d nets, %d gates, %d DFFs\n" r.netlist_name r.n_nets
       r.n_gates r.n_dffs);
  (match r.findings with
  | [] -> ()
  | fs ->
      let tbl =
        Tablefmt.create
          ~aligns:[ Tablefmt.Left; Tablefmt.Left; Tablefmt.Left; Tablefmt.Left ]
          ~header:[ "severity"; "pass"; "rule"; "detail" ]
          ()
      in
      List.iter
        (fun f ->
          Tablefmt.add_row tbl
            [
              Finding.severity_name f.Finding.severity;
              Finding.pass_name f.Finding.pass;
              f.Finding.rule;
              f.Finding.detail;
            ])
        fs;
      Buffer.add_string buf (Tablefmt.render tbl);
      Buffer.add_char buf '\n');
  (match r.prove with
  | None -> ()
  | Some s ->
      Buffer.add_string buf
        (Printf.sprintf
           "prove: bound %d, %d candidate(s): %d reachable, %d certified \
            unbounded, %d unreachable within bound, %d inconclusive\n"
           s.prove_bound s.prove_candidates s.prove_reachable s.prove_certified
           s.prove_unreachable s.prove_inconclusive));
  Buffer.add_string buf
    (if clean r then "clean: no blocking findings\n"
     else
       Printf.sprintf "NOT clean: %d error(s), %d warning(s)\n"
         (List.length (errors r))
         (List.length (warnings r)));
  Buffer.contents buf
