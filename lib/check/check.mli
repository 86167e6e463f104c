(** Static-analysis driver: run the lint, taint and rare-net passes over
    one netlist and package the results.

    Instrumented with {!Thr_obs}: spans [check.lint] / [check.taint] /
    [check.rare] / [check.empirical] / [check.prove] and counters
    [thr_check_runs] / [thr_check_findings_{error,warning,info}]. *)

type taint_spec = {
  vendor_of : Thr_gates.Netlist.net -> int option;
      (** provenance: which vendor's IP-core region built the net *)
  mismatch : Thr_gates.Netlist.net;  (** the comparator output *)
  min_vendors : int;  (** diversity the comparator must exhibit *)
}

type prover = net:Thr_gates.Netlist.net -> value:bool -> Thr_sat.Bmc.outcome
(** How a single rare-net candidate is decided when a custom prover is
    injected ([?prover] of {!run}); the default is the batch
    {!Thr_sat.Induction.prove} portfolio over all candidates at once.
    Tests inject broken provers to exercise the witness-replay gate. *)

type prove_stats = {
  prove_bound : int;          (** cycle/induction bound the candidates ran to *)
  prove_candidates : int;     (** rare-net findings escalated *)
  prove_reachable : int;      (** proved reachable, witness replayed *)
  prove_certified : int;
      (** certified unreachable at {e any} depth (k-induction or a
          combinational cone) *)
  prove_unreachable : int;    (** proved unreachable within the bound only *)
  prove_inconclusive : int;   (** budget exhausted *)
  prove_replay_failed : int;  (** witnesses the packed simulator rejected *)
}

type report = {
  netlist_name : string;
  n_nets : int;
  n_gates : int;
  n_dffs : int;
  findings : Finding.t list;  (** most severe first *)
  probs : float array;  (** per-net signal probabilities *)
  prove : prove_stats option;  (** present iff [run] was given [?prove] *)
}

val default_prove_budget : int
(** Solver steps (decisions + propagations + conflicts) each candidate's
    bounded model check may spend before going inconclusive. *)

val run :
  ?taint:taint_spec ->
  ?rare_threshold:float ->
  ?empirical:int ->
  ?prove:int ->
  ?prove_budget:int ->
  ?prover:prover ->
  ?jobs:int ->
  Thr_gates.Netlist.t ->
  report
(** Run every pass (taint only when [taint] is given).  The netlist must
    be finalised.

    [empirical] (off by default) additionally cross-checks the analytic
    rare-net candidates against a {!Prob.empirical} Monte-Carlo estimate
    over that many packed vectors, sharded over [jobs] (default 1)
    domains.  The cross-check reports Info findings only (rules
    [rare-empirical] per candidate and one [empirical] summary), so it
    never changes the exit code.

    [prove] (off by default) escalates every [rare-net] Warning to an
    exact verdict.  All candidates are handed as one batch to the
    {!Thr_sat.Induction.prove} portfolio — shared incremental cone
    encoding, a BMC sweep to depth [prove] and then strengthened
    k-induction steps for the survivors, independent candidate clusters
    spread over [jobs] domains without changing any verdict — spending
    at most [prove_budget] (default {!default_prove_budget}) solver
    steps per candidate.  A custom
    [prover] replaces the portfolio with a per-candidate callback:

    - {b proved reachable} — the Warning becomes an Error under rule
      [proved-reachable] carrying the concrete activating input
      sequence, but only after the witness replays on the packed
      simulator; a witness that fails replay keeps the original Warning,
      adds a [witness-replay-mismatch] Info and logs a
      [witness_replay_mismatch] warning event;
    - {b certified unreachable at any depth} (a k-induction proof, or a
      combinational cone decided by a single frame) — downgraded to Info
      under rule [unreachable-unbounded], the detail carrying the
      certificate method and depth;
    - {b proved unreachable} within the bound only — downgraded to Info
      under rule [rare-unreachable];
    - {b inconclusive} (budget exhausted) — stays a Warning under rule
      [rare-inconclusive], which {!exit_code} maps to
      {!Thr_util.Exit_code.Inconclusive} when nothing else blocks.

    One Info summary under rule [prove] records the tallies, also
    available structurally as [report.prove]. *)

type watch_point = {
  wp_net : int;  (** {!Thr_gates.Netlist.net_index} of the candidate *)
  wp_rare_value : bool;  (** the logic level the analyser deems rare *)
  wp_prob : float;  (** analytic P(net = 1) *)
}

val rare_watchlist : report -> watch_point list
(** The rare-net trigger candidates ([rare-net] Warnings and
    [proved-reachable] Errors) as watch points for the runtime flight
    recorder, net-sorted and deduplicated.  Empty on a clean design. *)

val errors : report -> Finding.t list

val warnings : report -> Finding.t list

val clean : report -> bool
(** No Warning or Error findings (Info is fine). *)

val exit_code : report -> Thr_util.Exit_code.t
(** {!Thr_util.Exit_code.Ok} when {!clean};
    {!Thr_util.Exit_code.Inconclusive} when the only blocking findings
    are [rare-inconclusive] Warnings (the prover ran out of budget,
    nothing was shown wrong); {!Thr_util.Exit_code.Lint} otherwise. *)

val to_json : report -> Thr_util.Json.t
(** [{"netlist": .., "nets": .., "gates": .., "dffs": .., "clean": ..,
    "exit_code": n, "errors": n, "warnings": n, "findings": [..]}] plus,
    under [--prove], a ["prove"] object with the {!prove_stats}
    tallies. *)

val render : report -> string
(** Human-readable report: a {!Thr_util.Tablefmt} table of findings and
    a one-line verdict (plus a prove-tally line when present). *)
