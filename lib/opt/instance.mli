(** Flattened per-copy view of a spec, shared by the optimisers.

    Copies are dense indices ({!Thr_hls.Copy.index}); vendors are dense
    indices into the catalogue's vendor list.  All the structure the CSP
    search and the ILP builder need — windows, same-computation dependence
    edges, conflict adjacency, per-copy resource class — is precomputed
    into arrays once per spec. *)

type t = {
  spec : Thr_hls.Spec.t;
  n_copies : int;
  n_vendors : int;
  vendors : Thr_iplib.Vendor.t array;      (** dense vendor index -> vendor *)
  type_of_copy : int array;                (** {!Thr_iplib.Iptype.to_index} *)
  window_lo : int array;
  window_hi : int array;
  preds : int list array;  (** same-computation dependence predecessors *)
  succs : int list array;
  conflicts : int list array;  (** vendor-difference adjacency (symmetric) *)
  offers : bool array array;   (** [offers.(vendor).(type_index)] *)
  area : int array array;      (** instance area; 0 when not offered *)
  cost : int array array;      (** licence cost; 0 when not offered *)
  types_used : int list;       (** type indices present in the DFG *)
  min_vendors : int array;
      (** per type index: the clique lower bound on distinct vendors any
          valid design needs ({!Thr_hls.Rules.min_vendors_per_type}) *)
}

val make : Thr_hls.Spec.t -> t

val vendor_index : t -> Thr_iplib.Vendor.t -> int
(** @raise Not_found if the vendor is not in the catalogue. *)
