(** A CDCL SAT solver over DIMACS-style integer literals.

    The classic conflict-driven clause-learning loop (MiniSat lineage),
    self-contained on the stdlib:

    - {b two-watched-literal} propagation — each clause is watched by
      two of its literals and only visited when a watch becomes false;
    - {b VSIDS} variable activities (bumped on conflict participation,
      geometrically decayed) driving decisions through an indexed
      max-heap, with phase saving for polarities;
    - {b first-UIP} conflict analysis producing one learnt (asserting)
      clause per conflict and a non-chronological backjump;
    - activity-driven {b learnt-clause deletion} and {b Luby restarts};
    - {b incremental solving under assumptions} — [solve] can be called
      repeatedly, with extra clauses added in between; assumption
      literals are decided first, so learnt clauses remain valid across
      calls.

    Literals are non-zero integers as in DIMACS: variable [v >= 1],
    negation [-v].  Variables must be allocated with {!new_var} before
    use.

    The clause database is one flat int arena: each clause is a header
    word (literal count, learnt and deleted flags) followed by its
    literals, and is named by its offset.  Reasons are offsets ([-1] for
    none), watch lists are int vectors created on a literal's first
    watch, learnt-clause activities sit in a parallel float array, and
    per-variable state grows in bulk.  Learnt-clause deletion marks
    headers; once deleted clauses hold a fifth of the arena it is
    compacted in place, every offset remapped and each watch list kept
    in order, so propagation visits clauses exactly as it would without
    compaction.  Adding a clause through {!add_clause_array} and
    propagating allocate nothing per clause or implication beyond the
    amortised growth of the arena and the watch lists.

    Each [solve] call runs under a ["sat.solve"] trace span and bumps
    the [thr_sat_{conflicts,decisions,propagations,learned_clauses}_total]
    counters and the [thr_sat_solve_ms] histogram (deltas for that call),
    all visible in the server's [{"op":"metrics"}] snapshot. *)

type t

type result =
  | Sat      (** a satisfying assignment was found; read it with {!value} *)
  | Unsat    (** unsatisfiable (under the given assumptions) *)
  | Unknown  (** the step budget ran out first *)

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable and return it as a positive DIMACS
    literal (1, 2, 3, ...). *)

val add_clause_array : t -> int array -> int -> unit
(** [add_clause_array t lits n] adds the clause (a disjunction of DIMACS
    literals) [lits.(0) .. lits.(n - 1)].  Duplicates are merged,
    tautologies and clauses already satisfied at the root dropped, and
    root-level false literals removed; the empty clause (or a root-level
    conflict) makes the solver permanently unsatisfiable ({!ok}).  The
    literals are copied, and [lits] is neither kept nor written.  Once
    {!ok} is false the call does nothing, not even check the literals.
    @raise Invalid_argument on 0 or an unallocated variable, before any
    change to the solver. *)

val add_clause : t -> int list -> unit
(** {!add_clause_array} on a list. *)

val solve :
  ?assumptions:int list ->
  ?phase:[ `Bmc | `Base | `Step ] ->
  ?max_steps:int ->
  t ->
  result
(** [solve ~assumptions ~max_steps t] decides the clause set with the
    assumption literals forced first (failing fast with [Unsat] if they
    conflict).  [max_steps] bounds this call's decisions + propagations
    + conflicts; on exhaustion the result is [Unknown].  The solver
    remains usable after any outcome.

    [phase] additionally routes the call's wall-clock into a sibling
    histogram ([thr_sat_solve_ms_bmc] / [_base] / [_step]) so the plain
    BMC sweep, the k-induction base case and the inductive step can be
    told apart; the aggregate [thr_sat_solve_ms] always fires. *)

val value : t -> int -> bool
(** Value of a literal in the model of the last [Sat] answer.
    Meaningless unless the previous {!solve} returned [Sat].
    @raise Invalid_argument on 0 or an unallocated variable. *)

val ok : t -> bool
(** [false] once the clause set is unsatisfiable even without
    assumptions; subsequent [solve] calls return [Unsat] immediately. *)

(** {1 Statistics} (cumulative across [solve] calls) *)

val n_vars : t -> int

val n_clauses : t -> int
(** Problem clauses currently attached (unit and satisfied root-level
    clauses are absorbed, not stored). *)

val n_learnts : t -> int

val conflicts : t -> int

val decisions : t -> int

val propagations : t -> int

val learned : t -> int
(** Learnt clauses recorded (including later-deleted ones). *)

val steps : t -> int
(** [decisions + propagations + conflicts] — the unit {!solve}'s
    [max_steps] budget is measured in. *)
