(** Tseitin lowering of netlist cones to CNF.

    One {!frame} encodes the combinational settle of a netlist's fan-in
    cone as clauses over a {!Solver.t}: every in-cone net gets a solver
    variable whose truth in any model equals the net's simulated value
    under the model's input assignment.  The encoder walks the levelized
    instruction tape compiled by {!Thr_gates.Packed} — the same cached
    artefact the bit-parallel simulator executes — so the two engines
    share one evaluation order by construction (a qcheck property pins
    the bit-for-bit agreement).

    Sequential unrolling chains frames: with [prev = None] every DFF
    output is pinned to its power-on value (or left a free state
    variable for the inductive step of k-induction), with [prev = Some f]
    a DFF output {e aliases} the previous frame's variable of its data
    net, so the latch edge costs no clauses.  {!Bmc} and {!Induction}
    build on this. *)

type frame

type sink = {
  fresh_var : unit -> int;  (** allocate the next DIMACS variable *)
  clause : int array -> int -> unit;
      (** [clause buf n] receives one emitted clause, the DIMACS
          literals [buf.(0) .. buf.(n - 1)] *)
}
(** Where encoded clauses go.  The encoder writes every clause of a
    frame into one small buffer of its own and passes a prefix of it, so
    a sink must copy whatever it keeps before returning: the buffer is
    overwritten by the next clause.  A sink must not write to the buffer.
    {!solver_sink} hands each clause to {!Solver.add_clause_array}, which
    copies it into the solver's arena without allocating; {!Induction}
    copies clauses into lists for {!Preprocess} first. *)

val solver_sink : Solver.t -> sink

val of_cone : Solver.t -> Thr_gates.Netlist.t -> roots:Thr_gates.Netlist.net list -> frame
(** Encode the transitive fan-in cone of [roots] (through DFFs) as a
    single frame — power-on DFF values, free inputs.  Finalises the
    netlist if needed. *)

val encode_frame :
  Solver.t ->
  Thr_gates.Netlist.t ->
  cone:bool array ->
  prev:frame option ->
  frame
(** One unrolled time frame over an explicit cone mask (as returned by
    {!Thr_gates.Netlist.in_cone} with [through_dffs:true]).  Runs under
    a ["sat.cnf"] trace span.

    @raise Invalid_argument if the mask's size does not match the
    netlist, or if the mask is not closed under fan-in (an in-cone gate
    with an out-of-cone operand). *)

val encode_frame_via :
  sink ->
  Thr_gates.Netlist.t ->
  ?free_state:bool ->
  cone:bool array ->
  prev:frame option ->
  unit ->
  frame
(** {!encode_frame} through an explicit clause sink.  [free_state]
    (default false, meaningful only with [prev = None]) leaves frame 1's
    DFF outputs unconstrained instead of pinning them to their power-on
    values — the arbitrary-start trace of a k-induction step. *)

val var : frame -> Thr_gates.Netlist.net -> int
(** The DIMACS variable of a net in this frame; [0] if the net is
    outside the cone. *)

val inputs : frame -> (string * int) array
(** Every primary input of the netlist, declaration order, with its
    frame variable ([0] when the input does not feed the cone — any
    value works then). *)

val state_vars : frame -> int array
(** The frame's DFF-output variables (the state after [depth - 1] clock
    edges), in-cone DFFs in tape order.  Frames of one unrolling agree
    on the order, so simple-path constraints can pair them up. *)

val next_state_vars : frame -> int array
(** The matching DFF data-net variables (the state the next latch edge
    would load), aligned with {!state_vars}. *)

val has_state : Thr_gates.Netlist.t -> cone:bool array -> bool
(** Whether any DFF drives a net inside the cone — [false] means the
    cone is purely combinational and one frame decides reachability for
    all time. *)

val depth : frame -> int
(** 1-based frame number ([1] for the initial frame). *)

val netlist : frame -> Thr_gates.Netlist.t
