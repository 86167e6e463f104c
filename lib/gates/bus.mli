(** Multi-bit buses over {!Netlist} nets.

    Little-endian arrays of single-bit nets with the combinational helpers
    needed by Trojan trigger/payload circuits: pattern comparison, XOR
    masking and a DFF-based up-counter (the sequential trigger of the
    paper's Fig. 2(b)). *)

type t = Netlist.net array
(** Bit 0 is the least significant. *)

val inputs : Netlist.t -> string -> int -> t
(** [inputs nl base w] declares inputs [base.0 .. base.(w-1)]. *)

val width : t -> int

val const : Netlist.t -> width:int -> int -> t
(** Constant bus; bits above [width] are dropped. *)

val eq_const : Netlist.t -> t -> int -> Netlist.net
(** Net that is high iff the bus equals the constant (an AND of XNORs —
    the combinational trigger shape of Fig. 2(a)). *)

val eq : Netlist.t -> t -> t -> Netlist.net
(** Equality of two same-width buses.
    @raise Invalid_argument on width mismatch. *)

val xor_enable : Netlist.t -> t -> enable:Netlist.net -> mask:int -> t
(** Bus whose masked bits are flipped when [enable] is high — the
    memory-less XOR payload of Fig. 2. *)

val counter : Netlist.t -> width:int -> enable:Netlist.net -> t
(** Free-running up-counter: increments each cycle while [enable] is high,
    wraps at [2^width].  Returns the register outputs. *)

val all_ones : Netlist.t -> t -> Netlist.net
(** High iff every bit is set (counter terminal count [2^k - 1]). *)

val outputs : Netlist.t -> string -> t -> unit
(** Declare outputs [base.0 .. base.(w-1)]. *)

val to_int : (Netlist.net -> bool) -> t -> int
(** Read a bus through a net-peek function (e.g. [Sim.peek sim]). *)

val drive_int : (string -> bool -> unit) -> string -> int -> int -> unit
(** [drive_int set base w v] drives inputs [base.0 .. base.(w-1)] with the
    bits of [v] through an input-set function (e.g. [Sim.set_input sim]). *)
