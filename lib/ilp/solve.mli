(** Branch-and-bound ILP solver.

    Depth-first branch-and-bound over the LP relaxation solved by
    {!Thr_lp.Simplex}.  Branching picks the most fractional integer
    variable; the child closer to the fractional value is explored first.
    Nodes are pruned against the incumbent with a small tolerance, so with
    an exhausted search the returned solution is optimal.

    Designed for the literal paper ILP (eqs. 3–17) on small instances — a
    few hundred binary variables — used to cross-validate the production
    licence-set search in {!Thr_opt}. *)

type solution = {
  objective : float;
  values : int array; (** indexed by {!Model.var_index} *)
}

val value : solution -> Model.var -> int

type outcome =
  | Optimal of solution    (** proven optimal *)
  | Infeasible             (** no integer point satisfies the constraints *)
  | Unbounded
  | Budget of solution option
      (** node budget exhausted; carries the best incumbent found *)

type stats = {
  nodes : int;
  lp_solves : int;
  cover_cuts : int;  (** cover cuts added during the root tightening loop *)
  clique_cuts : int;  (** clique cuts added during the root tightening loop *)
  cut_rounds : int;  (** separation/re-solve rounds actually run *)
  simplex : Thr_lp.Simplex.stats;
      (** cumulative simplex effort (pivots, warm/cold solve counts) over
          the node LPs of this solve *)
}

val total_pivots : stats -> int
(** Total simplex pivots (phase 1 + phase 2 + dual) across all node LPs. *)

val solve :
  ?max_nodes:int ->
  ?eps:float ->
  ?priority:Model.var list ->
  ?warm:bool ->
  ?cuts:bool ->
  ?dive:bool ->
  ?should_stop:(unit -> bool) ->
  Model.t ->
  outcome * stats
(** [solve m] minimises [m]'s objective.  [max_nodes] (default [100_000])
    bounds branch-and-bound nodes; [eps] (default [1e-6]) is the
    integrality tolerance.  When [priority] is given, branching always
    picks a fractional variable from that list first (most fractional
    within the list) — useful when a few variables drive the objective.

    [warm] (default [true]) re-solves node LPs warm from the basis of the
    previously explored node and prunes with an objective cutoff against
    the incumbent; [~warm:false] restores the cold-start baseline.

    [cuts] (default [true]) runs a root cutting-plane loop before
    branching: {!Cuts} clique and cover cuts violated by the fractional
    root optimum are appended to the relaxation and it is re-solved, for
    up to 8 separation rounds.  Cuts never exclude an integer-feasible
    point, so the optimum is unchanged.

    [dive] (default [true]) runs a rounding dive from the root optimum —
    repeatedly fixing the most fractional integer variable to its
    nearest feasible integer and re-solving — to plant an incumbent
    before the search starts, which arms the objective cutoff for the
    whole tree.  Dive LPs always solve cold so warm and cold runs dive
    identically; [~dive:false] isolates the pure branch-and-bound for
    benchmarking.

    [should_stop] is polled once per node; when it returns [true] the
    search stops as if the node budget were exhausted (outcome
    [Budget _]). *)

val pp_outcome : Format.formatter -> outcome -> unit
