(** Reference evaluation of a DFG on integer inputs.

    This is the "golden" functional model: the run-time engine compares its
    cycle-accurate execution (with or without injected Trojans) against these
    values, and the input profiler uses it to observe operand streams.

    There is one evaluator: a DFG is compiled once into a {!program}
    whose input reads are positions in a {e row} (the input values in
    {!Dfg.inputs} order), and every operation goes through {!Op.eval}.
    {!run} and {!outputs} are compile + {!bind} + {!exec}; callers that
    evaluate one DFG many times compile it once. *)

type env = (string * int) list
(** Assignment of primary inputs.  The first binding of a name wins;
    bindings of unknown names are ignored. *)

val run : Dfg.t -> env -> int array
(** [run d env] is the value computed by every operation, indexed by op id.

    @raise Invalid_argument if [env] misses a primary input that an
    operation reads (naming the first such input in read order); a
    declared input that no operation reads may be missing. *)

val outputs : Dfg.t -> env -> (int * int) list
(** [(op id, value)] for each primary output, ascending by id. *)

val operand_value : Dfg.t -> env -> int array -> Dfg.operand -> int
(** Value of a single operand given already-computed node values. *)

val operand_values : Dfg.t -> env -> int array -> int -> int * int
(** [(left, right)] operand values seen by operation [i]. *)

(** {1 Compiled programs} *)

type program
(** A DFG lowered to flat arrays: per operation its kind and, per
    operand, a node id, a row position or a constant.  Immutable, so it
    can be shared across domains. *)

val compile : Dfg.t -> program

val resolve : program -> env -> (string -> int) -> int array
(** [resolve p env missing] is the row of [env]: one value per input of
    {!Dfg.inputs}, in that order, each the first binding of its name.
    An unbound input takes [missing name] (called in row order, so it
    may raise).  Bindings that come in row order are read in one pass
    over the list; the rest are looked up by name. *)

val bind : program -> env -> int array
(** {!resolve} with {!run}'s rule for missing inputs: unread ones read 0,
    a read one raises [Invalid_argument "Eval: missing input ..."]. *)

val exec : program -> int array -> int array
(** [exec p row] is every operation's value, indexed by op id.
    @raise Invalid_argument if [row] does not have one value per input. *)

val read : program -> int array -> int array -> int -> int -> int
(** [read p row values i slot]: operand [slot] (0 or 1) of operation [i],
    given the row and the values computed so far. *)

val output_ids : program -> int list
(** {!Dfg.outputs} of the compiled DFG. *)
