(** Rare-net Trojan-trigger scoring (FANCI / SCOAP-lite).

    Static signal-probability propagation under an input-independence
    assumption: primary inputs are [p = 0.5], constants are exact, gates
    combine operand probabilities arithmetically, and register
    probabilities relax from their power-on value by damped iteration
    (so free-running counter bits settle at 0.5 instead of
    oscillating).

    Pure independence is refined with one {e conditioning literal} per
    net: a time-multiplexed datapath gates a whole core's cone with the
    same step-select net, and scoring those gates independently
    compounds the select's probability at every meet, pushing clean
    multiplier carry chains below any trigger threshold.  Tracking
    "this net is [sel AND x]" lets a meet of two nets conditioned on
    the same select pay that select's probability once.

    Registers get the sequential half of the same treatment: a hold-mux
    register [q' = mux en q new] samples [new] only when [en] fires, so
    its steady-state target is [P(new | en)] — computed by re-running
    the combinational sweep with [en] pinned to its loading value — not
    the select-crushed unconditional probability of [new].

    {b Evaluation.}  Each round is one sweep over the levelized
    {!Thr_gates.Packed} tape, then an in-place (Gauss-Seidel) register
    update in tape order.  Registers that share an enable and polarity
    share one conditional {e key}, and a key's pinned sweep runs only
    over the combinational fan-in cone of its registers' [new] arms:
    the cone's register, input and constant leaves are copied from the
    current values, [en] is pinned, and the cone's gates are swept.
    A key is evaluated lazily, when the update loop first reaches one
    of its registers, so it sees every register moved earlier in that
    round.  Laziness and order are part of the model: a key evaluated
    before the update, or a cone taken forward from [en] over the
    round's unconditional sweep, misses those moves and changes the
    probabilities.  The kernel keeps tags in parallel unboxed arrays
    and allocates nothing per net.

    A net's {e activation probability} is [min p (1 - p)] — how often
    the net leaves its resting value.  Nets whose activation is positive
    but below a threshold are almost-never-toggling logic: exactly the
    profile of a Trojan trigger comparing a wide operand pattern
    (Figs. 2-3 of the paper), and what FANCI calls nearly-unused logic.
    Statically-constant nets are excluded — dead logic is the lint
    pass's domain, not a trigger.

    The default threshold [1e-8] separates the designs this repo
    elaborates: a full-width combinational or sequential trigger
    condition has at least [2w] specified pattern bits and scores
    [<= 2^-32 ~ 2.3e-10] (a set-only trigger latch fed by it
    accumulates to roughly [iters/2] times that, [~3e-9]), while a
    clean design's rarest logic — wide equality comparators and
    step-gated arithmetic cones — stays above [~3e-7] under the
    select-conditioned model.  Designs much larger than the bundled
    benchmarks should tune the threshold ([thls lint --threshold]). *)

val default_threshold : float

val default_iters : int

val signal_probabilities : ?iters:int -> Thr_gates.Netlist.t -> float array
(** Per-net probability of being 1 (indexed by
    {!Thr_gates.Netlist.net_index}).  Requires a finalised netlist. *)

val empirical :
  ?cycles:int ->
  ?jobs:int ->
  seed:int ->
  vectors:int ->
  Thr_gates.Netlist.t ->
  float array
(** Monte-Carlo estimate of the same per-net P(1): simulate [vectors]
    independent random excitations of [cycles] (default 8) clock edges
    each on 8-word {!Thr_gates.Packed.strip}s, sampling every net
    after every edge.  Deterministic in [seed] — one generator per
    vector is split off up front and shard counts are plain sums, so
    the result is bit-identical for any [jobs] (lane-word-aligned
    {!Thr_util.Dpool} fan-out) and any strip packing.

    This is the cross-check behind [thls lint --empirical]: the analytic
    model above can be fooled in both directions (correlation it does
    not track, conditioning it cannot see), and a few thousand packed
    vectors are cheap — a net the model calls rare that toggles freely
    under simulation deserves a second look, and vice versa.

    @raise Invalid_argument if [vectors < 1] or [cycles < 1]. *)

val analyse :
  ?iters:int ->
  ?threshold:float ->
  ?exclude:bool array ->
  Thr_gates.Netlist.t ->
  Finding.t list * float array
(** Score every net and report a Warning (rule [rare-net]) for each
    trigger candidate, plus one Info finding with the rarest activation
    seen.  Returns the probability array for callers that want the raw
    scores.

    [exclude] (indexed by net) masks nets out of the scoring entirely.
    The check driver uses it for the mismatch comparator's own reduction
    cone: the NC and RC replicas compute identical values, so under the
    independence model the "all outputs equal" conjunction looks
    near-constant — a known false-positive class of probability-based
    detectors on redundancy checkers, and logic the taint pass already
    verifies by construction. *)
