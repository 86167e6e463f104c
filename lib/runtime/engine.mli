(** Cycle-accurate execution of a bound design with Trojan injection.

    The engine executes a {!Thr_hls.Design.t} step by step on word-level
    functional units.  Each purchased IP core (a [(vendor, type)] licence)
    may carry one Trojan; following the paper's assumption, {e every
    instance} of an infected core carries the same Trojan, and each
    instance keeps its own trigger state (a counter-based trigger observes
    the operand stream of its own instance).

    A run proceeds exactly as the paper's two phases:

    - {b Detection phase}: NC and RC copies execute on their scheduled
      steps; after the last detection step a comparator checks every
      operation's NC output against its RC output.  Any mismatch raises
      the detection flag.
    - {b Recovery phase} (if the design has one and detection flagged):
      RV copies execute on their re-bound cores; the recovery outputs are
      the circuit's results.

    The engine never consults the injected Trojan set when producing
    verdicts — detection is purely the NC/RC comparison, as in hardware. *)

type injection = {
  inj_vendor : Thr_iplib.Vendor.t;
  inj_type : Thr_iplib.Iptype.t;
  trojan : Thr_trojan.Trojan.t;
}
(** One infected IP core. *)

type verdict = {
  detected : bool;          (** NC/RC comparator mismatch *)
  nc_correct : bool;        (** NC primary outputs equal the golden model *)
  recovery_ran : bool;
  recovery_correct : bool;  (** recovery outputs equal the golden model;
                                [false] when recovery did not run *)
  cycles : int;             (** total cycles executed *)
  detection_latency : int option;
      (** first step at which an already-executed copy pair had diverged
          (diagnostic; hardware would flag at compare time) *)
}

val run :
  ?injections:injection list ->
  Thr_hls.Design.t ->
  Thr_dfg.Eval.env ->
  verdict
(** Execute one input vector through the design (fresh Trojan state).

    @raise Invalid_argument if the design is invalid ({!Thr_hls.Design.validate})
    or the environment misses an input. *)

val run_without_rebinding :
  ?injections:injection list ->
  Thr_hls.Design.t ->
  Thr_dfg.Eval.env ->
  verdict
(** Ablation: the naive recovery the paper argues against — on detection,
    re-execute the {e NC binding} again (same operations on the same
    cores) instead of the re-bound RV copies.  With a persistent trigger
    condition the Trojan stays active and recovery fails. *)

(** {1 Plans}

    {!run} and its siblings validate the design and lay it out on every
    call.  A {!plan} does that once: it holds the compiled golden model,
    a dense core id per copy and the step-ordered copy lists of every
    phase, and it is immutable, so domains can share it.  Each frame run
    on a plan starts fresh Trojan states for the cores the injections
    infect. *)

type plan

val plan : Thr_hls.Design.t -> plan
(** @raise Invalid_argument ["Engine.run: invalid design (...)"] if the
    design is invalid ({!Thr_hls.Design.validate}). *)

val run_plan :
  ?injections:injection list ->
  ?rebind:bool ->
  plan ->
  Thr_dfg.Eval.env ->
  verdict
(** {!run} on a plan; with [~rebind:false] (default [true]),
    {!run_without_rebinding}.
    @raise Invalid_argument if the environment misses an input. *)

val program : plan -> Thr_dfg.Eval.program
(** The plan's compiled DFG. *)

val instance_copies : plan -> int -> int array
(** [instance_copies p idx] is every detection-phase (NC or RC) copy
    that the core instance executing copy [idx] executes, in step order:
    the operand stream a counter trigger in that instance observes. *)

(** {1 Streaming operation}

    Real DSP datapaths process frame after frame; counter-based triggers
    accumulate state across frames, and the closely-related-inputs
    phenomenon of the paper's Rule 2 for recovery only shows up on such
    workloads.  A {!session} keeps every core's Trojan state alive between
    frames. *)

type session

val create_session :
  ?injections:injection list -> Thr_hls.Design.t -> session
(** @raise Invalid_argument as {!run}. *)

val run_frame : session -> Thr_dfg.Eval.env -> verdict
(** Execute one input frame; trigger counters and payload latches carry
    over from earlier frames. *)

val run_stream :
  ?injections:injection list ->
  Thr_hls.Design.t ->
  Thr_dfg.Eval.env list ->
  verdict list
(** [create_session] + one [run_frame] per environment. *)
