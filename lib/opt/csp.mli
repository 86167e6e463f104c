(** Feasibility oracle: joint scheduling and binding search.

    Given a spec and a set of purchased licences (vendors allowed per IP
    type), decide whether a valid design exists — every copy gets a step
    inside its phase window respecting dependences, and a vendor from the
    allowed set respecting every diversity conflict, with the summed
    instance area (peak per-step concurrency per licence × instance area)
    within the spec's limit.

    The search is a complete depth-first backtracking: most-constrained
    copy first (smallest vendor domain, then least step slack), forward
    checking on vendor domains, incremental ASAP/ALAP step windows, and
    area-increase pruning.  Exhausting the search space proves
    infeasibility; exceeding the node budget returns {!Unknown} (the
    licence search then marks its result with ["*"], like the paper's
    timed-out LINGO runs). *)

type verdict =
  | Feasible of Thr_hls.Schedule.t * Thr_hls.Binding.t
  | Infeasible
  | Unknown

type stats = { nodes : int }

type ctx
(** Precomputed per-instance state (ASAP/ALAP windows, minimum-instance
    bounds) plus the search's scratch arrays, reusable across many
    [solve_ctx] calls with different [allowed] sets.  The licence search
    probes thousands of candidate sets against one instance; building this
    once removes the dominant per-call setup cost.  A [ctx] is NOT safe to
    share across domains or use re-entrantly — each call overwrites the
    same scratch storage. *)

val make_ctx : Instance.t -> ctx

val solve_ctx :
  ?max_nodes:int -> ctx -> allowed:bool array array -> verdict * stats
(** [solve_ctx ctx ~allowed] with [allowed.(vendor_dense_index).(type_index)]
    marking purchased licences.  Licences the catalogue does not actually
    offer are ignored.  [max_nodes] defaults to [200_000] assignments. *)

val solve :
  ?max_nodes:int -> Instance.t -> allowed:bool array array -> verdict * stats
(** [solve inst ~allowed] is [solve_ctx (make_ctx inst) ~allowed] — one-shot
    convenience; use a [ctx] when probing many licence sets. *)

val area_lower_bound : Instance.t -> allowed:bool array array -> int option
(** A cheap lower bound on the instance area any design restricted to
    [allowed] must occupy (minimum instance counts forced by the latency
    windows × cheapest allowed instance areas), or [None] when some used
    type has no allowed vendor at all. *)
