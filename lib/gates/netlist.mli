(** Gate-level netlists.

    Single-bit nets driven by two-input gates, inverters, multiplexers,
    constants, primary inputs or D flip-flops.  The paper's Trojan trigger
    and payload circuits (Figs. 2–3) are built as netlists and simulated
    cycle-accurately by {!Sim}.

    A netlist under construction is mutable; [finalise] checks that the
    combinational part is acyclic (DFF outputs break cycles) and computes
    the evaluation order. *)

type t
(** A netlist (mutable until {!finalise}). *)

type net
(** A single-bit wire, belonging to one netlist. *)

val create : name:string -> t

val name : t -> string

val uid : t -> int
(** Process-unique id assigned at creation.  Compiled forms of a netlist
    (the {!Packed} instruction tape) are cached on it, so repeated
    simulator construction over the same netlist never re-walks it. *)

(** {1 Drivers} *)

val input : t -> string -> net
(** Declare a primary input.  @raise Invalid_argument on duplicates. *)

val const : t -> bool -> net

val not_ : t -> net -> net

val and_ : t -> net -> net -> net

val or_ : t -> net -> net -> net

val xor_ : t -> net -> net -> net

val nand_ : t -> net -> net -> net

val nor_ : t -> net -> net -> net

val mux : t -> sel:net -> t0:net -> t1:net -> net
(** Output equals [t0] when [sel] is false, [t1] when true. *)

val dff : t -> ?init:bool -> net -> net
(** [dff t d] returns the register output [q]; [q] takes [d]'s value at
    every clock step.  [init] (default [false]) is the power-on value. *)

val dff_loop_many : t -> inits:bool array -> (net array -> net array) -> net array
(** Multi-bit {!dff_loop}: allocates one DFF per element of [inits],
    passes all their outputs to the next-state function at once (so the
    next state of one bit may depend on every bit), and connects the
    returned data nets.

    @raise Invalid_argument if the function returns a different width. *)

val dff_loop : t -> ?init:bool -> (net -> net) -> net
(** [dff_loop t f] builds a register with feedback: it returns the output
    [q] of a fresh DFF whose data input is [f q].  The feedback path goes
    through the register, so the combinational graph stays acyclic.  [f]
    must return a net of this netlist built (directly or not) from its
    argument. *)

val and_list : t -> net list -> net
(** Conjunction of one or more nets (balanced tree).
    @raise Invalid_argument on an empty list. *)

val or_list : t -> net list -> net

(** {1 Outputs and stats} *)

val output : t -> string -> net -> unit
(** Name a net as a primary output.  @raise Invalid_argument on duplicate
    output names. *)

val finalise : t -> unit
(** Freeze the netlist: checks all gates are reachable drivers and the
    combinational logic is acyclic.  Construction functions raise after
    finalisation.  Idempotent.

    @raise Invalid_argument on a combinational cycle. *)

val n_nets : t -> int

val n_gates : t -> int
(** Combinational gates (excludes inputs, constants, DFFs). *)

val n_dffs : t -> int

val input_names : t -> string list

val output_names : t -> string list

(** {1 Internals exposed to the simulator} *)

type driver =
  | D_input of string
  | D_const of bool
  | D_not of net
  | D_and of net * net
  | D_or of net * net
  | D_xor of net * net
  | D_nand of net * net
  | D_nor of net * net
  | D_mux of net * net * net  (** sel, t0, t1 *)
  | D_dff of int              (** index into the DFF table *)

val driver : t -> net -> driver

val net_index : net -> int

val nets_in_order : t -> net array
(** All nets in a valid combinational evaluation order (DFF outputs and
    inputs first).  Only available after {!finalise}. *)

val input_index : t -> (string, int) Hashtbl.t
(** Input name -> {!net_index} table, memoised at {!finalise} and shared
    by every simulator over this netlist.  Treat as read-only (it is
    also read concurrently from worker domains).  Only available after
    {!finalise}. *)

val dff_data : t -> int -> net
(** Data input net of the [i]-th DFF. *)

val dff_init : t -> int -> bool

val find_output : t -> string -> net
(** @raise Not_found if no such output. *)

val outputs : t -> (string * net) list
(** Declared primary outputs, in declaration order. *)

(** {1 Graph traversal (static analysis)} *)

val fanout : t -> int array
(** Per-net reader counts: the drivers that read each net, the output of
    a DFF counting as a reader of its data input. *)

val iter_operands : (net -> unit) -> driver -> unit
(** [f] on each combinational operand in order (a mux's select, [t0],
    [t1]); inputs, constants and DFFs have none. *)

val fold_cone :
  t -> ?through_dffs:bool -> roots:net list -> ('a -> net -> 'a) -> 'a -> 'a
(** [fold_cone t ~roots f init] folds [f] over the transitive fan-in cone
    of [roots] (roots included), visiting every net exactly once, depth
    first: roots, then each visited net's {!iter_operands}, are pushed in
    order and popped last-first.
    [through_dffs] (default [true]) continues the traversal from a DFF's
    output into its data input; with [false] the cone is purely
    combinational and stops at register boundaries.

    @raise Invalid_argument if a root is from another netlist. *)

val in_cone : t -> ?through_dffs:bool -> roots:net list -> unit -> bool array
(** Membership mask of {!fold_cone}: entry [n] is true iff net [n] is in
    the fan-in cone of [roots]. *)
