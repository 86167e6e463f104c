(** Bounded model checking: exact reachability of a net value within a
    cycle bound.

    The sequential behaviour of a net's fan-in cone is unrolled frame by
    frame over one incremental {!Solver.t} ({!Cnf.encode_frame} chained
    through [prev]), and each frame asks the target value as an
    assumption.  Frame [f] models the combinational settle of the state
    after [f - 1] clock edges under that frame's own free inputs — the
    observation point is {e before} the [f]-th latch, matching a
    simulator [clock]{^ f-1} followed by [set_input; settle].

    Three-valued outcome: a {!witness} (a concrete activating input
    sequence — the paper's "extremely rare activation condition" made
    explicit), a proof of unreachability within the bound, or
    inconclusive when the step budget runs out.  Witnesses replay on a
    1-word gate-engine strip ({!replay}); [thls lint --prove] refuses to trust a
    witness that does not. *)

type witness = {
  w_target : Thr_gates.Netlist.net;
  w_value : bool;  (** the value reached *)
  w_cycle : int;   (** 1-based frame at which it is reached *)
  w_inputs : (string * bool) list array;
      (** per-frame primary-input assignment, [w_cycle] entries *)
}

type certificate = {
  c_depth : int;
      (** the induction depth that closed the proof; [0] for a purely
          combinational cone (nothing to unroll) *)
  c_method : string;  (** ["combinational"] or ["k-induction"] *)
}
(** An {e unbounded} unreachability certificate: the rare value is
    unreachable at {e any} depth, not merely within a cycle bound. *)

type outcome =
  | Reachable of witness
  | Unreachable of int
      (** proven unreachable within this many cycles *)
  | Unreachable_unbounded of certificate
      (** proven unreachable at any depth *)
  | Inconclusive of int
      (** budget exhausted while exploring this frame *)

val default_bound : int
(** 8 cycles — deep enough for the paper's canned counter triggers,
    shallow enough that clean designs certify in milliseconds. *)

val check_net :
  ?bound:int ->
  ?budget:int ->
  Thr_gates.Netlist.t ->
  net:Thr_gates.Netlist.net ->
  value:bool ->
  outcome
(** [check_net nl ~net ~value] decides whether some input sequence of at
    most [bound] (default {!default_bound}) cycles drives [net] to
    [value].  [budget] caps total solver steps (decisions +
    propagations + conflicts) across all frames; exhaustion yields
    [Inconclusive].  A zero-DFF (purely combinational) cone skips the
    sequential unrolling entirely: one frame decides reachability for
    all time, so an Unsat answer is an {!Unreachable_unbounded}
    certificate of depth 0.  Finalises the netlist if needed; runs under
    a ["bmc.unroll"] trace span.
    @raise Invalid_argument if [bound < 1]. *)

val witness_of :
  Solver.t ->
  target:Thr_gates.Netlist.net ->
  value:bool ->
  Cnf.frame list ->
  witness
(** Extract a witness from the model of the last [Sat] answer over an
    unrolling given newest-first (frame [w_cycle] at the head).  Shared
    with {!Induction}, whose portfolio reads witnesses off a base-case
    solver common to many candidates. *)

val replay : Thr_gates.Netlist.t -> witness -> bool
(** Replay the witness on a 1-word {!Thr_gates.Packed.strip} —
    [w_cycle - 1] clocked cycles then a final settle — and report
    whether the target net shows [w_value].  A sound witness always
    replays true; {!Thr_check} treats a [false] as a prover bug and
    refuses the escalation. *)

val describe : witness -> string
(** One-line rendering, e.g.
    ["high at cycle 3: [1] a=0xdead b=0x0000 [2] ..."] — inputs named
    ["bus.N"] are gathered into per-cycle hex words. *)
