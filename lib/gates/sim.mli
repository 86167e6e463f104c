(** Cycle-accurate netlist simulation.

    Two-valued (0/1) simulation with a levelised combinational pass per
    cycle: set primary inputs, settle combinational logic, optionally clock
    every DFF.  Deterministic; DFFs power on at their declared init
    values. *)

type t

val create : Netlist.t -> t
(** Finalises the netlist if needed and builds a simulator with all DFFs at
    their init values and all inputs at 0. *)

val reset : t -> unit
(** Return DFFs to init values and inputs to 0. *)

val set_input : t -> string -> bool -> unit
(** @raise Invalid_argument on an unknown input name. *)

val set_inputs : t -> (string * bool) list -> unit

val input_value : t -> string -> bool
(** Current value of a primary input (as last set, 0 after [reset]) —
    lets hold-style stimulus generators re-derive "previous" without
    tracking it outside the simulator.
    @raise Invalid_argument on an unknown input name. *)

val settle : t -> unit
(** Propagate current input values through the combinational logic without
    clocking. *)

val clock : t -> unit
(** [settle] then latch every DFF (one clock cycle). *)

val step : t -> (string * bool) list -> unit
(** [step t ins] = [set_inputs t ins; clock t]. *)

val output : t -> string -> bool
(** Value of a primary output after the last [settle]/[clock].
    @raise Invalid_argument on an unknown output name. *)

val peek : t -> Netlist.net -> bool
(** Value of any net after the last [settle]/[clock]. *)
