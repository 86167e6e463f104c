(** Compiled bit-parallel netlist simulation: the one gate engine.

    {!Sim} interprets the driver ADT net by net; this engine instead
    compiles a finalised netlist {e once} into a flat, levelized
    instruction tape — parallel [int] arrays for opcode, operands and
    destination, in the topological order {!Netlist.finalise} already
    computed — and evaluates it with native [int] bitwise ops.  Each
    machine word carries {!lanes} independent input vectors, one per
    bit ([lnot]/[land]/[lor]/[lxor] evaluate all lanes at once; a mux
    is [ (t1 land sel) lor (t0 land lnot sel) ]).  The tape is then
    re-laid for a strip of [S ∈ {1, 8}] lane words per net (see
    {!strip}): 1 word for single runs and witness replays, 8 words for
    batches.

    Tapes are immutable and cached on {!Netlist.uid} (compile once, even
    across repeated simulator construction and worker domains); the
    mutable per-simulator state is just two [int] arrays, so fanning a
    batch out over a {!Thr_util.Dpool} costs one state allocation per
    domain.

    {b Determinism contract.}  A {!batch} fixes its stimulus up front,
    independently of any engine.  At full activity the stream is
    counter-based: the lane word driving input [k] at cycle [c] of
    global lane-word [w] is a stateless hash of [(w, c, k)] under the
    batch seed ({!Thr_util.Prng.mix63}), and vector [j] owns bit
    [j mod lanes] of word [j / lanes] — so driving {!lanes} vectors
    costs one hash, and the derivation never depends on how vectors are
    packed into lanes, strips or shards.  Below full activity the batch
    derives one generator per vector ({!Thr_util.Prng.split} in vector
    order) and each input redraws or holds per vector and cycle (see
    {!batch}).  [run_strips] (either width, any [jobs]) and the scalar
    oracle [run_reference] therefore return bit-identical outputs for
    the same batch.

    Scalar {!Sim} remains the reference semantics; the equivalence is
    enforced by qcheck properties over random netlists. *)

val lanes : int
(** Vectors carried per machine word: [Sys.int_size] (63 on 64-bit —
    the native OCaml [int] is unboxed in arrays, which beats boxed
    64-bit words in the inner loop; the last word of a batch simply
    runs partially full). *)

val lane_mask : int -> int
(** [lane_mask k] has the low [min k lanes] lane bits set — mask a lane
    word down to [k] active vectors before counting or comparing. *)

val popcount : int -> int
(** Set bits in a lane word (table-driven, no loop over lanes). *)

(** {1 Compilation} *)

type tape
(** A compiled netlist: immutable, shareable across domains. *)

val tape : Netlist.t -> tape
(** Compile (finalising first if needed).  Memoised on {!Netlist.uid}
    under a ["sim.compile"] trace span; cache hits are O(1). *)

(** {1 Tape introspection}

    Read-only views of the compiled instruction stream, in the same
    levelized order the simulator evaluates it.  [Thr_sat.Cnf] lowers
    netlist cones to CNF by walking these instead of re-deriving its own
    topological order.  Nets are {!Netlist.net_index} integers
    throughout; opcodes are the [op_*] values below. *)

val op_not : int

val op_and : int

val op_or : int

val op_xor : int

val op_nand : int

val op_nor : int

val op_mux : int
(** Operands: [a] = select, [b] = the [sel=0] arm, [c] = the [sel=1] arm. *)

val op_dff : int
(** Operand [a] is the DFF table index (see {!tape_dff_data}). *)

val tape_netlist : tape -> Netlist.t

val tape_length : tape -> int
(** Number of compiled instructions (inputs and constants are not
    instructions). *)

val tape_code : tape -> int -> int
(** Opcode of instruction [i]. *)

val tape_args : tape -> int -> int * int * int
(** [(a, b, c)] operand net indices of instruction [i] (unused slots
    are 0). *)

val tape_dst : tape -> int -> int
(** Destination net index of instruction [i]. *)

val tape_consts : tape -> (int * bool) array
(** The [D_const] nets as [(net index, value)] pairs. *)

val tape_dff_data : tape -> int -> int
(** Net index of the data input of DFF [k]. *)

val tape_dff_init : tape -> int -> bool
(** Power-on value of DFF [k]. *)

val tape_inputs : tape -> (string * int) array
(** Primary inputs as [(name, net index)], declaration order. *)

(** {1 Batches} *)

type batch
(** [n] vectors of random stimulus: per-vector generators split off the
    caller's generator, plus a cycle count.  Reusable: every run copies
    the generators. *)

val batch : prng:Thr_util.Prng.t -> ?cycles:int -> ?activity:float -> int -> batch
(** [batch ~prng ~cycles n] fixes the stimulus for [n] vectors: a
    counter-hash seed plus [n] per-vector generators, drawn from [prng]
    (one {!Thr_util.Prng.next_int64} then [n] splits).  [cycles]
    (default 1) clock edges are applied per vector, each driving every
    input with a fresh bit.

    [activity] (default [1.0]) models low-toggle stimulus: below 1.0,
    each input each cycle first draws a float and only redraws a fresh
    bool with probability [activity], otherwise holding its previous
    value (inputs power on at 0) — per vector, from that vector's
    generator.  At the default the stream comes from the allocation-free
    counter hash instead (see the determinism contract).  The derivation
    is part of the batch, so [run_strips] at either width and
    [run_reference] stay bit-identical for any activity.
    @raise Invalid_argument if [n < 0], [cycles < 1] or
    [activity] outside (0, 1]. *)

type outputs = {
  out_names : string array;          (** primary outputs, declaration order *)
  out_bits : bool array array;       (** [out_bits.(vector).(output)] *)
}

val run_reference : Netlist.t -> batch -> outputs
(** The same batch through scalar {!Sim}, one vector at a time (a single
    simulator reused with {!Sim.reset}) — the oracle for equivalence
    tests and the baseline for the [bench -- sim] speedup. *)

val equal_outputs : outputs -> outputs -> bool

(** {1 Lane strips}

    A strip tape re-lays the tape for a fixed strip width [S ∈ {1, 8}]:
    every net carries [S] consecutive lane words ([S * lanes] vectors
    per pass), and the instruction stream is stably sorted by
    (level, opcode) into homogeneous segments so the settle kernel
    dispatches on the opcode {e once per segment} and evaluates [S]
    unrolled words per instruction.  Strip tapes are cached under
    [(uid, S)], separately from the scalar tape cache; compiles bump
    [thr_sim_compiles_total] and [thr_sim_tape_bytes_total].

    A {!Sim.clock} edge is [strip_settle; strip_latch; strip_settle] on
    a strip.  Runners that hold or redrive inputs fuse it: one settle
    per cycle after the pokes, then latch, and one more settle before
    reading (bit-identical, nearly half the passes). *)

type strip
(** Mutable strip-simulator state: all DFFs at their init values, all
    inputs at 0, in every lane of every word. *)

val strip : ?words:int -> Netlist.t -> strip
(** [strip ~words nl] builds strip state over the cached [(uid, words)]
    strip tape.  [words] defaults to 8.
    @raise Invalid_argument if [words] is not 1 or 8. *)

val strip_words : strip -> int

val strip_netlist : strip -> Netlist.t

val strip_reset : strip -> unit
(** Power-on in every lane of every word: DFFs to init values, inputs
    (and all driven nets) to 0, constants to their values. *)

val strip_set_input : strip -> string -> int -> int -> unit
(** [strip_set_input st nm w v] drives lane word [w] (in [0, words)) of
    input [nm] with [v] (bit [k] = the value in lane [k]).
    @raise Invalid_argument on an unknown name. *)

val strip_poke : strip -> int -> int -> int -> unit
(** [strip_poke st net w v]: {!strip_set_input} by raw net index, for
    callers that pre-resolve names.  Must only be used on input nets —
    poking a driven net is overwritten by the next settle. *)

val strip_settle : strip -> unit
(** One segmented pass: propagate inputs and DFF state through the
    combinational logic.  Unused high lanes may hold garbage after
    inversions; mask with {!lane_mask} before interpreting fewer than
    {!lanes} lanes. *)

val strip_latch : strip -> unit
(** Latch every DFF from its data net.  There is no trailing settle;
    call {!strip_settle} before reading post-edge values. *)

val strip_peek : strip -> Netlist.net -> int -> int
(** Lane word [w] of a net after the last settle. *)

val strip_peek_index : strip -> int -> int -> int
(** Same by raw net index (see {!Netlist.net_index}). *)

(** {2 Lane transpose}

    Lane [l] of a strip is bit [l mod lanes] of lane word [l / lanes].
    A {e bus} is an array of raw net indices, least significant bit
    first, of at most {!lanes} nets. *)

val strip_drive : strip -> int array -> int -> (int -> int) -> unit
(** [strip_drive st bus n value] drives input bus [bus] in lanes
    [0, n) with [value l] (bit [i] onto [bus.(i)]) and every other lane
    with 0.  [value] is called exactly once per lane, in lane order, so
    per-lane generator draws stay in sequence; word [w] is poked only
    after all of its lanes were computed (with {!strip_write}). *)

val strip_write : strip -> int array -> int -> int array -> int -> unit
(** [strip_write st bus w vals m] drives lane word [w] of input bus
    [bus]: lane [k] takes [vals.(k)] (bit [i] onto [bus.(i)]) for
    [k < m], every other lane 0.  One transpose of the [m] values into
    the bus words; [m] must be at most {!lanes} and at most the length
    of [vals]. *)

val strip_read : strip -> int array -> int -> int array -> unit
(** [strip_read st bus w out] sets [out.(k)] to lane [k] of lane word
    [w] of [bus], as an unsigned int, for every [k < lanes]: the inverse
    transpose, one pass over the bus words.  [out] must hold at least
    {!lanes} values. *)

val strip_count : strip -> int -> int -> int
(** [strip_count st net n]: lanes in [0, n) where net index [net] is 1
    (the masked popcount over the strip's words). *)

val sharded :
  jobs:int -> words:int -> Netlist.t -> int -> (strip -> int -> int -> 'a) ->
  'a list
(** [sharded ~jobs ~words nl n f] runs [f st lo hi] over [[0, n)] cut
    into contiguous ranges aligned to [words * lanes] items, each with a
    fresh [words]-word strip [st] of [nl].  When [jobs <= 1] or [n] fits
    one strip pass that is the single call [f st 0 n]; otherwise
    [min groups (2 * jobs)] shards over a {!Thr_util.Dpool}, the strip
    tape warmed once first.  Results come in range order. *)

val run_strips : ?jobs:int -> ?words:int -> Netlist.t -> batch -> outputs
(** The batch runner: [words * lanes] vectors per tape pass, fused
    clock, resetting between strips, sharded over [jobs] domains
    ({!Thr_util.Dpool}) when given.  Bit-identical to [run_reference]
    for either [words] and any [jobs].  Wrapped in a ["sim.run"] span;
    bumps the [thr_sim_vectors_total] counter and the
    [thr_sim_vectors_per_second] histogram. *)

(** {1 Concurrent fault simulation} *)

val run_mutants :
  ?cycles:int ->
  prng:Thr_util.Prng.t ->
  forced:(string * int) list ->
  Netlist.t ->
  outputs
(** Pack {e mutants} across lanes instead of vectors: every lane sees
    the same stimulus — one shared draw per non-[forced] input per cycle
    (declaration order, from a copy of [prng]), replicated across all
    lanes — while each [forced] input (a mutant enable gate) drives its
    given lane word every cycle.  One tape pass per cycle therefore
    evaluates up to {!lanes} trojan on/off variants of one input stream
    (on a 1-word strip).  [out_bits] has {!lanes} rows, one per lane. *)

val run_mutants_reference :
  ?cycles:int ->
  prng:Thr_util.Prng.t ->
  forced:(string * int) list ->
  Netlist.t ->
  outputs
(** Scalar oracle for {!run_mutants}: lane [k] re-runs the same shared
    stream through {!Sim} with each forced input at bit [k] of its
    word. *)
