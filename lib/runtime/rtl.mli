(** RTL elaboration: a design compiled to one gate-level netlist.

    This is the "synthesis" back end that a user of the paper's methodology
    would tape out: every core instance becomes a word-level functional
    unit ({!Thr_gates.Word}), shared across control steps through input
    multiplexers selected by a step counter; every operation copy gets a
    load-enabled result register; an equality comparator over the NC and RC
    output registers drives the [mismatch] flag (Fig. 1's checker), and the
    recovery copies execute on their re-bound cores in the recovery steps.

    Trojans are inserted {e structurally}: an infected licence's cores get
    the trigger/payload circuits of Figs. 2–3 wired onto their operand
    buses and output, with sequential trigger state advancing only on
    cycles where the core actually executes (matching the behavioural
    model, whose counter observes the operand stream).

    The test suite co-simulates this netlist against the behavioural
    {!Engine} cycle for cycle. *)

type t = {
  netlist : Thr_gates.Netlist.t;
  width : int;
  design : Thr_hls.Design.t;
  mismatch : Thr_gates.Netlist.net;
      (** high after the detection phase iff some NC/RC output pair differs *)
  nc_outputs : (int * Thr_gates.Bus.t) list;
      (** result registers of the NC copies of the DFG's primary outputs *)
  rc_outputs : (int * Thr_gates.Bus.t) list;
  rv_outputs : (int * Thr_gates.Bus.t) list;  (** empty for detection-only *)
  final_outputs : (int * Thr_gates.Bus.t) list;
      (** Fig. 1's output mux: recovery value when [mismatch] fired, NC
          value otherwise.  Empty for detection-only designs. *)
  vendor_regions : (int * int * int) list;
      (** gate->vendor provenance as [(lo, hi, vendor id)] net-index
          ranges: nets built while elaborating one core's datapath cone *)
  total_cycles : int;  (** cycles to clock before reading outputs *)
  mutant_gates : string list;
      (** primary-input names of the per-mutant arming gates, in the
          order the [gated_injections] were given to {!elaborate};
          empty for ordinary elaborations *)
  golden : Thr_dfg.Eval.program;
      (** the design's DFG compiled once: the golden model behind
          {!golden_agrees}, and the input order of every run *)
}

type seeded_bug = Comparator_skip
    (** Test-only mutant: elaborate with the first output pair dropped
        from the mismatch comparator, so an NC core output reaches the
        pins unobserved — the bug class the taint pass must catch. *)

val min_width : int

val max_width : int
(** The datapath widths {!elaborate} accepts: 6 to [Sys.int_size - 2]
    (61 on 64-bit), so [1 lsl width] stays a positive [int]. *)

val elaborate :
  ?width:int ->
  ?injections:Engine.injection list ->
  ?gated_injections:(string * Engine.injection) list ->
  ?seeded_bug:seeded_bug ->
  Thr_hls.Design.t ->
  t
(** [elaborate design] builds the netlist.  [width] (default 16, in
    [[min_width, max_width]]) is the datapath word size; DFG values are
    computed modulo [2^width].

    Each [gated_injections] entry [(name, inj)] inserts [inj] like an
    ordinary injection but ANDs its trigger with a fresh single-bit
    primary input [name] (the mutant's {e arming gate}): driving the
    gate high makes the circuit behave exactly as the plain injection,
    holding it low leaves the circuit behaviourally clean.  This is what
    lets {!run_mutant_batch} score the golden design and one armed
    mutant per simulation lane in a single pass.

    Unless [seeded_bug] is given, the elaborated netlist is re-verified
    with the {!Thr_check.Taint} pass: every primary output must be
    dominated by the mismatch comparator.

    @raise Invalid_argument if [width] is out of range, the design is
    invalid, an injection's
    trigger patterns/mask or payload mask do not fit in [width] bits, or
    more than [Thr_gates.Packed.lanes - 1] gated injections are given.
    @raise Failure if the post-elaboration taint check finds an
    unguarded output (an elaborator bug, not a user error). *)

val vendor_of : t -> Thr_gates.Netlist.net -> int option
(** Which vendor's core region built the net, from [vendor_regions].
    [vendor_of t] indexes the regions once, then looks nets up. *)

val taint_spec : t -> Thr_check.Check.taint_spec
(** Taint-pass input for this elaboration: provenance, the mismatch net
    and the Rule 1 minimum of 2 vendors. *)

val canned_injection : width:int -> Thr_hls.Design.t -> Engine.injection
(** A deterministic full-mask combinational Trojan on the core computing
    the design's first primary output: the canned "known bad" netlist
    behind [thls lint --mutant trojan] and the server's lint op. *)

val canned_sequential_injection :
  width:int -> Thr_hls.Design.t -> Engine.injection
(** A deterministic {e sequential} (consecutive-match counter) Trojan —
    [thls lint --mutant trojan-seq] — placed so that [lint --prove] can
    construct its activating input sequence within the default 8-cycle
    BMC bound: preferably a core executing two back-to-back copies whose
    operands are all distinct primary inputs (threshold 2), else a
    single such copy (threshold 1), else the first output's core. *)

val canned_dud_injection : width:int -> Thr_hls.Design.t -> Engine.injection
(** The canned {e false positive} — [thls lint --mutant trojan-dud]: a
    {!Thr_trojan.Trojan.trigger.Decoy} chain (the sequential trigger's
    condition tree, saturating counter and payload XOR, but comparing
    the same operand bus against two different patterns) on the first
    output's core.  Its condition is structurally unsatisfiable, so the
    design stays behaviourally clean and [lint --prove] must discharge
    every rare net it adds with an [unreachable-unbounded] certificate
    and exit 0. *)

val check :
  ?rare_threshold:float ->
  ?empirical:int ->
  ?prove:int ->
  ?prove_budget:int ->
  ?prover:Thr_check.Check.prover ->
  ?jobs:int ->
  t ->
  Thr_check.Check.report
(** Run the full static analyser ({!Thr_check.Check.run}) with
    {!taint_spec} wired in.  [empirical]/[jobs] enable the Info-only
    packed-simulation cross-check of the rare-net pass;
    [prove]/[prove_budget] escalate rare-net findings to exact bounded
    model-checking verdicts ([prover] overrides the decision procedure,
    for tests). *)

type result = {
  r_mismatch : bool;
  r_first_detect : int option;
      (** the cycle (1-based) at which the comparator's final high level
          began — the start of the trailing contiguous high run of
          [mismatch].  [None] when the run ended clean.  Transient
          mid-run comparator blips on clean designs (NC and RC copies
          complete at different steps) never count as a detection. *)
  r_nc : (int * int) list;  (** primary-output values, sign-extended *)
  r_rc : (int * int) list;
  r_rv : (int * int) list;
  r_final : (int * int) list;
      (** the output mux ([r_nc] for detection-only designs) *)
}

val golden_agrees : t -> Thr_dfg.Eval.env -> result -> bool
(** [golden_agrees t env r]: every [r_final] output equals the
    behavioural {!Thr_dfg.Eval.outputs} of [env] modulo [2^width] — the
    one golden comparison behind cosim, fault simulation and the
    recorded run's [Recovery_ok]. *)

(** {1 Lane-packed runs}

    {!run_batch}, {!run_mutant_batch} and {!run_recorded} share one
    runner on the gate engine ({!Thr_gates.Packed.strip}).  Each
    environment is resolved once to its input values (modulo
    [2^width]) and takes one {e lane group} of [g] lanes:
    [lanes / g] groups fill a lane word and a strip pass carries 1 or 8
    words.  Lane 0 of a group runs with every arming gate low (the clean
    circuit); lane [k + 1] raises only gate [k] of [mutant_gates].
    Inputs are held constant, so the clock is fused: one settle, then a
    latch and a settle per edge, bit-identical to {!Thr_gates.Sim.clock}
    under constant inputs.  Every environment is an independent
    power-on run of the netlist. *)

val run : t -> Thr_dfg.Eval.env -> result
(** Drive the primary inputs (values taken modulo [2^width]), clock through
    both phases and read the registers.  Equivalent to a one-element
    {!run_batch}: the netlist's compiled strip tape is cached, so
    repeated calls never re-walk the netlist. *)

val run_batch : ?jobs:int -> t -> Thr_dfg.Eval.env list -> result list
(** [run] over many environments at once, one lane per environment
    ([g = 1]), {!Thr_gates.Packed.lanes} to a lane word.  The strip
    width follows the batch: 1 word when it fits a single lane word, 8
    words otherwise.  With [jobs > 1], strip-aligned slices of the batch
    fan out across a {!Thr_util.Dpool} ({!Thr_gates.Packed.sharded}).
    Results are in input order and identical to mapping {!run}, for any
    [jobs].

    @raise Invalid_argument if an environment misses a primary input. *)

(** {1 Concurrent fault simulation} *)

type mutant_result = {
  m_clean : result;  (** lane 0: every arming gate held low *)
  m_mutants : (string * result) list;
      (** per gate, in [mutant_gates] order: the run with only that
          mutant armed *)
}

val run_mutant_batch : t -> Thr_dfg.Eval.env list -> mutant_result list
(** For an elaboration with [m] [gated_injections]: run every
    environment in a lane group of [g = m + 1] lanes, the clean circuit
    in lane 0 and mutant [k] armed in lane [k + 1].  A lane word holds
    [lanes / g] environments (12 for the four-mutant zoo on 63 lanes);
    the strip is 1 word when the batch fits one lane word, 8 otherwise —
    the whole trojan zoo is scored against many stimuli in a single
    simulation pass of one netlist.  [m_clean] is bit-identical to
    {!run} of the un-gated elaboration and each [m_mutants] entry to
    {!run} of the corresponding plain-injection elaboration.

    @raise Invalid_argument if the design has no gated injections or an
    environment misses a primary input. *)

(** {1 Recorded (flight-data) runs}

    A recorded run drives one environment cycle by cycle with the
    {!Thr_obs.Recorder} attached: a watch-list of nets is sampled every
    clock into a bounded ring, and runtime trojan events (trigger
    candidate going active, comparator tripping, recovery outcome) are
    emitted to the {!Thr_obs.Journal}.  This is the engine behind
    [thls simulate --record DIR]. *)

type watch = {
  w_name : string;  (** signal name as it appears in the VCD *)
  w_index : int;  (** {!Thr_gates.Netlist.net_index} *)
  w_rare : bool option;
      (** for rare-net trigger candidates, the rare logic level — first
          time the net reaches it, [Trigger_candidate_active] is
          journalled *)
}

val watchlist : ?report:Thr_check.Check.report -> t -> watch list
(** The default watch-list: every primary input bit, every declared
    output (including [mismatch] and the result buses), and — when a
    static-analysis [report] is given — the rare-net trigger candidates
    from {!Thr_check.Check.rare_watchlist} (named [rare_n<index>]). *)

type recorded = {
  rec_result : result;
  rec_window : Thr_obs.Recorder.window;
      (** the last [depth] cycles of the watched nets, oldest first *)
  rec_watch : watch list;
}

val run_recorded :
  ?depth:int -> ?watch:watch list -> ?cls:string -> t -> Thr_dfg.Eval.env -> recorded
(** [run_recorded t env] is {!run} with the flight recorder on — the
    same runner on a 1-word strip, one environment in lane 0, with a
    per-cycle hook: watched nets ([watch], default {!watchlist} without
    rare candidates) are sampled into a [depth]-cycle ring (default
    256) as whole lane words, journal events are
    emitted (one [Atomic.get] each when the journal is disabled), and a
    detection feeds the [thr_rt_detection_latency_cycles] /
    [thr_rt_recovery_latency_cycles] histograms, also per trojan class
    when [cls] is non-empty (e.g. ["comb"], ["seq"]).  [rec_result]
    equals {!run} [t env]; [Recovery_ok] is {!golden_agrees}.

    @raise Invalid_argument on an empty watch list, a [depth] the
    recorder rejects or a missing input. *)

val stats : t -> string
(** One-line netlist size summary (nets/gates/DFFs). *)
