(** Trojan-injection campaigns.

    The run-time reproduction of the paper's security claims (Figs. 1–4):
    inject Trojans into a design's IP cores, execute input vectors, and
    measure how often the NC/RC comparator detects the activation and how
    often each recovery strategy restores correct outputs.

    Each run picks an infected licence from the design, a random
    memory-less (or, with some probability, latched) payload, and a
    trigger pattern chosen {e adversarially}: it is derived from the
    operands an NC operation bound to the infected core actually sees, so
    the Trojan is guaranteed to activate during the detection phase —
    mirroring the paper's threat model where the trigger is rare but
    attacker-chosen.  Detection and recovery are then judged purely from
    the engine's outputs. *)

type config = {
  n_runs : int;            (** injection runs (default 200) *)
  sequential_ratio : float;(** fraction of counter-triggered Trojans *)
  latched_ratio : float;   (** fraction of latched (out-of-model) payloads *)
  mask : int;              (** trigger observation mask (default 0xFFFF) *)
  input_lo : int;
  input_hi : int;
}

val default_config : config

type result = {
  runs : int;
  activated : int;       (** runs where the Trojan corrupted NC or RC *)
  detected : int;        (** comparator mismatches among activated runs *)
  rebind_recovered : int;(** rule-based recovery restored golden outputs *)
  naive_recovered : int; (** same-binding re-execution restored outputs *)
  latched_runs : int;    (** runs using the out-of-model latched payload *)
  latched_recovered : int;
  mean_detection_latency : float; (** mean diagnostic latency, in steps *)
}

val run :
  ?config:config ->
  ?jobs:int ->
  prng:Thr_util.Prng.t ->
  Thr_hls.Design.t ->
  result
(** Requires a design with [mode = Detection_and_recovery].

    [jobs] (default [1]) is the number of domains used to execute the
    injection trials.  With [jobs = 1] every trial draws from [prng] on
    the caller — the stream (and hence the result) is bit-for-bit the
    historical sequential one.  With [jobs > 1] a per-trial generator is
    first split off [prng] for each trial (sequentially, so the split
    points are deterministic) and the independent trials are fanned out
    over a {!Thr_util.Dpool}; the tally is identical for a given [jobs]
    value but differs from the [jobs = 1] stream.

    The design is validated and laid out once ({!Engine.plan}), before
    any trial, and every trial (on any domain) runs on that plan.

    @raise Invalid_argument otherwise, or if the design is invalid
    (also when [n_runs = 0]); either is raised in the calling domain
    before anything is drawn from [prng]. *)

val pp_result : Format.formatter -> result -> unit

val armed_injection :
  ?config:config ->
  ?sequential:bool ->
  Thr_hls.Design.t ->
  Thr_dfg.Eval.env ->
  Engine.injection
(** An injection whose trigger pattern is the operand pair the design's
    first primary output's NC copy actually computes under [env] — so
    simulating the elaborated netlist over [env] is {e guaranteed} to
    activate the payload and trip the comparator.  With [sequential] the
    trigger is the counter variant, threshold chosen from the core's
    clean operand stream like campaign trials.  This powers
    [thls simulate --mutant trojan[-seq] --record]: the canned lint
    mutants' fixed 0xDEAD/0xBEEF patterns essentially never occur at run
    time, so they cannot produce a recordable detection.

    @raise Invalid_argument with [sequential] if the design is invalid. *)

(** {1 Gate-level co-simulation} *)

type cosim_result = {
  cosim_vectors : int;
  cosim_mismatches : int;
      (** environments where the elaborated netlist's final outputs (or
          its mismatch flag) disagree with the behavioural golden model *)
  cosim_detections : int;
      (** environments whose run ended with the comparator latched high
          ({!Rtl.result.r_first_detect}); 0 for a clean design *)
  cosim_first_detect : int option;
      (** earliest first-detection cycle over all vectors, if any *)
  cosim_first_bad : Thr_dfg.Eval.env option;  (** a witness, if any *)
}

val cosim_ok : cosim_result -> bool

val cosim :
  ?config:config ->
  ?jobs:int ->
  ?width:int ->
  prng:Thr_util.Prng.t ->
  vectors:int ->
  Thr_hls.Design.t ->
  cosim_result
(** Elaborate the (clean) design to gates ({!Rtl.elaborate}, [width]
    default 16) and co-simulate [vectors] random environments — drawn
    from [prng] with [config]'s input range, like campaign trials — on
    the gate engine via {!Rtl.run_batch} (which picks the strip width
    from the batch size), against {!Thr_dfg.Eval} reference outputs
    (compared modulo [2^width]).  A clean design must report zero
    mismatches and never raise the comparator flag; [jobs] shards the
    batch across domains without changing the result.  This backs
    [thls simulate --vectors].

    @raise Invalid_argument if the design is invalid. *)

(** {1 Concurrent fault co-simulation} *)

type mutant_stat = {
  ms_gate : string;  (** arming-gate input name, [mut_<zoo name>] *)
  ms_label : string;  (** {!Thr_trojan.Trojan.short_label} *)
  ms_detections : int;  (** vectors whose run ended comparator-high *)
  ms_divergent : int;
      (** vectors where the mutant's final outputs differ from the clean
          lane's (recovery may legitimately re-converge them) *)
  ms_escapes : int;  (** divergent yet undetected vectors *)
}

type mutant_report = {
  mr_vectors : int;
  mr_clean_ok : bool;
      (** the clean lane (all gates low) matched the behavioural golden
          outputs and never raised the comparator, on every vector *)
  mr_mutants : mutant_stat list;
}

val mutant_report_ok : mutant_report -> bool
(** Clean lane golden on every vector, no mutant escaped undetected, and
    the decoy control neither diverged nor fired the comparator. *)

val pp_mutant_report : Format.formatter -> mutant_report -> unit

val cosim_mutants :
  ?config:config ->
  ?width:int ->
  prng:Thr_util.Prng.t ->
  vectors:int ->
  Thr_hls.Design.t ->
  mutant_report
(** Concurrent fault simulation of the {!Thr_trojan.Trojan.zoo}: the
    design is elaborated once with one {e gated} injection per zoo
    variant (armed with the operand pair the first output's NC copy
    computes under the first vector, so the live variants really fire),
    and {!Rtl.run_mutant_batch} scores the clean circuit plus every
    mutant against each vector in single strip passes — lane 0 clean,
    lane [g + 1] running mutant [g].

    @raise Invalid_argument if the design is invalid or [vectors] is 0. *)
