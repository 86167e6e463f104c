(** A prover portfolio: strengthened k-induction over the
    {!Cnf} unrolling, with {!Preprocess}-simplified frames and one
    shared incremental cone context per batch of candidates.

    Overlapping trigger-chain candidates (the lint pass typically hands
    over a dozen nets from the same counter cone) encode their {e union}
    fan-in cone once per time frame on two incremental solvers — a base
    solver (power-on initial state, plain BMC frames) and a step solver
    (free initial state, simple-path constraints) — and each candidate
    is asked as an assumption, so learnt clauses are shared across the
    whole batch.  Sharing is gated on the cones actually overlapping: a
    batch is first greedily clustered by cone similarity (Jaccard
    against the running cluster union) and each cluster gets its own
    context, so a wide shallow cone is never unrolled to the depth only
    some unrelated narrow candidate needs.

    At depth [k] a candidate [b] is decided by:

    - {b base}: frames [1..k] with assumption [b_k].  [Sat] is a
      concrete witness (extracted with {!Bmc.witness_of} and replayable
      on the packed simulator); [Unsat] means no activation within [k]
      cycles.
    - {b step}: frames [1..k+1] from an {e arbitrary} state, assumptions
      [¬b_1 .. ¬b_k ∧ b_{k+1}], plus pairwise-distinct state (loop-free
      path) constraints over the in-cone DFF variables.  [Unsat] here,
      together with the clean base case, closes the proof: any shortest
      counterexample deeper than [k] would contain exactly such a
      distinct-state window, so none exists at {e any} depth —
      {!Bmc.outcome.Unreachable_unbounded} with [c_method]
      ["k-induction"] and [c_depth = k].

    Candidates whose own cone is purely combinational skip the unrolling
    entirely: one frame decides reachability for all time and an
    [Unsat] is a depth-0 ["combinational"] certificate.

    Each cluster runs one way: the base sweep to [bound] first —
    reachable candidates are decided by the cheap pinned-init solver —
    then the step phase for the survivors only, so a step certificate
    always rests on a clean base case through its depth.  The step
    solver's first frame, whose clauses chain into every deeper
    induction query, goes in via {!Preprocess.simplify} with the frame
    boundary (inputs, state, next-state and target variables) frozen;
    every other frame, and all of the base solver's, goes in raw, which
    keeps witness extraction free of model reconstruction.

    With [jobs > 1] whole clusters fan out over a {!Thr_util.Dpool} of
    at most one domain per cluster; each keeps its own solvers, so
    outcomes (in input order) and solver-counter totals are the same
    for any [jobs], with or without a budget.  Runs under
    ["sat.induction"] trace spans, one per cluster, and bumps
    [thr_sat_certificates_total] per closed proof. *)

val prove :
  ?bound:int ->
  ?budget:int ->
  ?jobs:int ->
  Thr_gates.Netlist.t ->
  (Thr_gates.Netlist.net * bool) array ->
  Bmc.outcome array
(** [prove nl cands] decides, for every [(net, value)] candidate,
    whether some input sequence drives [net] to [value] — returning
    outcomes in input order.

    [bound] (default {!Bmc.default_bound}) caps both the BMC depth and
    the induction depth; a candidate neither witnessed nor certified by
    then degrades to the bounded [Unreachable bound] of plain BMC.
    [budget] is a {e per-candidate} solver-step allowance, metered by
    {!Solver.steps} deltas around each assumption solve on the shared
    solvers; a base-case exhaustion yields [Inconclusive] exactly as in
    {!Bmc.check_net}, while a step-case exhaustion merely abandons the
    induction attempt for that candidate and leaves its bounded verdict
    standing.  One meter covers both phases of a candidate.  [jobs]
    (default 1) caps the domains the clusters fan out over.

    Finalises the netlist if needed.
    @raise Invalid_argument if [bound < 1]. *)
