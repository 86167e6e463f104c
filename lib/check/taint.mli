(** Vendor taint / information-flow verification.

    Every net built inside a vendor's IP-core region carries that
    vendor's label, one bit of a per-net bitset (one word for up to 62
    vendors); one sweep in evaluation order, repeated while a register's
    label grows, propagates labels forward through gates and register
    data inputs.  The [mismatch] net owns one more bit, so the sweep also
    finds every net the comparator guards.  The pass then statically
    checks the paper's detection contract on the netlist itself:

    - every primary output carrying vendor data must be {e dominated} by
      the mismatch comparator — either the comparator observes it (the
      output is in the comparator's fan-in cone, as the NC/RC result
      registers are) or the comparator guards it (the [mismatch] net is
      in the output's own fan-in cone, as the recovery-muxed final
      outputs are).  An output that is neither is an untrusted-core path
      to the pins that detection can never see: rule
      [unguarded-output], severity Error.
    - the comparator itself must combine data from at least
      [min_vendors] distinct vendors (Rule 1 diversity survived
      elaboration): rule [comparator-diversity], severity Error.

    The pass is netlist-only: provenance arrives as a [vendor_of]
    function, so this library does not depend on the RTL elaborator. *)

type label = int list
(** Sorted distinct vendor ids tainting a net. *)

val propagate :
  vendor_of:(Thr_gates.Netlist.net -> int option) ->
  Thr_gates.Netlist.t ->
  label array
(** Forward taint fixpoint (indexed by {!Thr_gates.Netlist.net_index}).
    Requires a finalised netlist. *)

val analyse :
  vendor_of:(Thr_gates.Netlist.net -> int option) ->
  mismatch:Thr_gates.Netlist.net ->
  ?min_vendors:int ->
  Thr_gates.Netlist.t ->
  Finding.t list * label array
(** Run {!propagate} plus the dominance and diversity checks.
    [min_vendors] defaults to 2. *)
