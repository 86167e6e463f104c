(** Dense-tableau reference simplex (test oracle).

    The former LP engine, kept as an independent implementation of the
    exact same bounded-variable two-phase primal + warm dual-simplex
    semantics as {!Thr_lp.Simplex}, over a dense B⁻¹A tableau instead of
    LU factors.  It shares no solver code with {!Thr_lp.Simplex}, which
    makes it a meaningful cross-check: the qcheck equivalence property in
    test_lp requires both engines to agree on status and objective over
    random LPs, including warm re-solves after bound perturbations.

    Interface mirrors {!Thr_lp.Simplex} (minus the LU statistics).  It
    lives in the test directory: dense pivots are O(m·ncols) and this
    engine is what the revised simplex replaced. *)

type relation = Thr_lp.Simplex.relation = Le | Ge | Eq

type problem

val create : n_vars:int -> problem
val n_vars : problem -> int
val n_constraints : problem -> int
val set_bounds : problem -> int -> lo:float -> up:float -> unit
val set_objective : problem -> (int * float) list -> unit
val add_constraint : problem -> (int * float) list -> relation -> float -> unit

type solution = { objective : float; values : float array }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit
  | Cutoff

val solve :
  ?eps:float -> ?max_iters:int -> ?cutoff:float -> ?warm:bool -> problem ->
  result

val forget : problem -> unit

type stats = {
  phase1_pivots : int;
  phase2_pivots : int;
  dual_pivots : int;
  degenerate_pivots : int;
  bland_fallbacks : int;
  warm_solves : int;
  cold_solves : int;
}

val zero_stats : stats
val stats : problem -> stats
val total_pivots : stats -> int
