(** Test-time Trojan detection by logic testing.

    The paper's introduction argues that logic testing cannot guarantee
    Trojan detection because triggers hide behind extremely rare input
    conditions; MERO (Chakraborty et al., CHES'09, the paper's [1]) is the
    canonical statistical counter-measure: bias a random test set until
    every {e rare node} of the circuit has taken its rare value at least
    [n] times, hoping a trigger input is among the rare nodes exercised.

    This module implements that pipeline on {!Thr_gates} netlists:
    signal-probability profiling, rare-node identification, an N-detect
    greedy test-set refinement in MERO's spirit, and black-box
    golden-vs-suspect comparison.  The [testtime] bench experiment uses it
    to quantify the escape probability that motivates the paper's run-time
    approach. *)

type vector = (string * bool) list
(** One assignment of the netlist's primary inputs. *)

val random_vectors :
  prng:Thr_util.Prng.t -> Thr_gates.Netlist.t -> int -> vector list
(** [n] uniform random input vectors for the netlist. *)

type profile = {
  nets : Thr_gates.Netlist.net array;   (** internal (gate-driven) nets *)
  one_probability : float array;        (** estimated P(net = 1) *)
}

val signal_probabilities :
  prng:Thr_util.Prng.t -> ?samples:int -> Thr_gates.Netlist.t -> profile
(** Monte-Carlo signal probabilities over [samples] (default 512) random
    vectors, clocking sequential netlists one cycle per vector.

    Combinational netlists are profiled on a 1-word
    {!Thr_gates.Packed.strip} ({!Thr_gates.Packed.lanes} samples per
    pass); sequential netlists keep the scalar walk because their state
    deliberately carries over from sample to sample.  Either way the
    bits drawn from [prng] (sample-major, inputs in declaration order)
    are identical, so seeded profiles do not depend on the engine. *)

val rare_nodes : profile -> theta:float -> (Thr_gates.Netlist.net * bool) list
(** Nets whose probability of being [1] (resp. [0]) is below [theta]; the
    bool is the rare value. *)

val n_detect_count :
  Thr_gates.Netlist.t -> (Thr_gates.Netlist.net * bool) list -> vector list ->
  int array
(** How many vectors of the set drive each rare node to its rare value.
    State is reset per vector, so vectors pack into lanes — the count is
    one popcount per rare node per {!Thr_gates.Packed.lanes} vectors. *)

val mero_refine :
  prng:Thr_util.Prng.t ->
  ?rounds:int ->
  ?n_target:int ->
  Thr_gates.Netlist.t ->
  (Thr_gates.Netlist.net * bool) list ->
  vector list ->
  vector list
(** Greedy N-detect refinement: repeatedly mutate random bits of random
    vectors and keep mutations that increase the summed (capped at
    [n_target], default 10) rare-value hit counts.  [rounds] (default
    2000) bounds mutation attempts.  Returns the improved test set
    (original vectors plus kept mutants). *)

val detect :
  golden:Thr_gates.Netlist.t ->
  suspect:Thr_gates.Netlist.t ->
  vector list ->
  bool
(** Black-box comparison: true iff some vector makes any primary output of
    [suspect] differ from [golden]'s.  The two netlists must have the same
    input and output names.  Sequential state is reset per vector, so both
    circuits run lane-packed, {!Thr_gates.Packed.lanes} vectors per pass,
    and a whole chunk is cleared by one XOR of the output words. *)
