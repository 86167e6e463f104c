(** Minimal VCD (IEEE 1364 value-change-dump) emitter and parser.

    The emitted subset is deliberately small — single-bit wires in one
    [$scope], [$timescale 1ns], a [$dumpvars] block with the initial
    values, then [#cycle] sections listing only the signals that changed
    — and is accepted by GTKWave.  Output is deterministic: no dates, no
    tool banners, identifiers assigned in signal order.

    The parser reads exactly this subset back (it carries values forward
    across cycles), which gives the round-trip property tested against
    the scalar gate simulator: [parse (to_string w) = Ok w']. *)

type wave = {
  v_names : string array;  (** declaration order *)
  v_cycles : int array;  (** sampled times, strictly increasing *)
  v_bits : bool array array;  (** [v_bits.(t).(s)]: time [t], signal [s] *)
}

val to_string : wave -> string
(** @raise Invalid_argument on empty signals/cycles or ragged rows. *)

val parse : string -> (wave, string) result
(** Parse our own subset back: per-cycle values with carry-forward, so
    [parse (to_string w)] recovers every sampled value exactly. *)

val write_file : string -> wave -> unit
(** Crash-safe write (temp file + rename). *)
