(** Sparse revised simplex with an LU-factorised basis.

    A two-phase primal simplex over variables with explicit bounds
    [l_j <= x_j <= u_j] (finite lower bound required, upper bound may be
    infinite).  This is the LP relaxation engine under the 0–1 ILP
    branch-and-bound in {!Thr_ilp}.

    The basis is held as a sparse LU factorisation ({!Lu}:
    Gilbert–Peierls elimination with Markowitz-style pivoting for
    sparsity).  Tableau columns and rows are materialised on demand with
    FTRAN/BTRAN; each basis change appends a product-form eta, and the
    factors are rebuilt when the eta file reaches its budget or a
    row/column pivot-agreement check trips — so per-pivot cost scales
    with the nonzeros actually touched instead of m·ncols as in the
    former dense tableau (kept as a cross-checking oracle next to
    [test/test_lp.ml]).

    Minimisation only; negate the objective for maximisation.
    Anti-cycling: Dantzig pricing with a fallback to Bland's rule after a
    run of degenerate pivots.

    {b Warm starts.}  A successful [solve] caches its final basis (LU
    factors and eta file included) inside the problem.  A later [solve]
    after [set_bounds] changes revives that basis with the
    bounded-variable dual simplex — the basis is still dual feasible for
    the unchanged objective, so only primal feasibility needs restoring —
    instead of re-running both cold phases.  Leaving rows are priced by
    dual steepest edge (Forrest–Goldfarb weights from a unit reference
    frame).  [set_objective] and [add_constraint] invalidate the cache.

    {b Observability.}  Emits [lp.factorize]/[lp.ftran]/[lp.btran] spans
    via {!Thr_obs.Trace} and bumps the process-wide
    [thr_lp_refactorizations_total] / [thr_lp_eta_updates_total]
    counters. *)

type relation = Le | Ge | Eq

type problem
(** Mutable problem under construction. *)

val create : n_vars:int -> problem
(** Variables [x_0 .. x_(n_vars-1)], each defaulting to bounds [\[0, ∞)] and
    objective coefficient [0]. *)

val n_vars : problem -> int

val n_constraints : problem -> int

val set_bounds : problem -> int -> lo:float -> up:float -> unit
(** Keeps any cached basis (re-solves warm start).
    @raise Invalid_argument if [lo] is infinite or NaN, [up < lo], or the
    variable index is out of range. *)

val set_objective : problem -> (int * float) list -> unit
(** Sparse minimisation objective; unmentioned variables keep coefficient
    [0].  Replaces any previous objective.  Invalidates the warm-start
    cache. *)

val add_constraint : problem -> (int * float) list -> relation -> float -> unit
(** [add_constraint p terms rel rhs] adds [Σ c_i·x_i rel rhs].  Repeated
    variable indices within [terms] are summed.  Invalidates the
    warm-start cache. *)

type solution = {
  objective : float;
  values : float array;  (** one value per variable, within bounds *)
}

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit  (** iteration cap hit before convergence *)
  | Cutoff
      (** warm re-solve proved the optimum exceeds the given [?cutoff]
          before reaching it (only produced by warm starts) *)

val solve :
  ?eps:float -> ?max_iters:int -> ?cutoff:float -> ?warm:bool -> problem ->
  result
(** Solve the current problem.  [eps] (default [1e-7]) is the feasibility
    and pricing tolerance; [max_iters] (default [200_000]) bounds total
    pivots across both phases.  The problem may be solved again after
    further [add_constraint]/[set_bounds] calls.

    When [warm] (default [true]) and a cached basis from a previous
    optimal solve is still valid, the re-solve runs the dual simplex from
    that basis.  During such a warm re-solve the objective value rises
    monotonically from below, so if [cutoff] is given and the running
    objective exceeds it, the solve aborts with {!Cutoff} — the true
    optimum is provably above the cutoff.  Cold solves ignore [cutoff]. *)

val forget : problem -> unit
(** Drop the cached basis; the next [solve] runs cold. *)

type stats = {
  phase1_pivots : int;
  phase2_pivots : int;
  dual_pivots : int;  (** pivots spent in warm-start dual re-solves *)
  degenerate_pivots : int;
  bland_fallbacks : int;  (** times anti-cycling switched to Bland's rule *)
  warm_solves : int;
  cold_solves : int;
  refactorizations : int;  (** basis LU rebuilds (scheduled or stability) *)
  eta_updates : int;  (** product-form eta columns appended to the factors *)
}
(** Cumulative effort counters since [create]. *)

val zero_stats : stats

val stats : problem -> stats

val total_pivots : stats -> int

val pp_result : Format.formatter -> result -> unit
