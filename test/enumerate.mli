(** Exhaustive ILP solving by enumeration.

    A brute-force oracle over the full integer box — exponential, intended
    only for cross-validating {!Thr_ilp.Solve} on tiny models in
    [test_ilp].

    @raise Invalid_argument if the search space exceeds [2^24] points. *)

val solve : Thr_ilp.Model.t -> Thr_ilp.Solve.solution option
(** The minimum-objective feasible assignment, or [None] if the model is
    infeasible.  Ties are broken by lexicographically smallest assignment,
    so the result is deterministic. *)
