(** Cutting-plane separation for 0–1 models.

    Two families, both read off the model's own rows so every cut is
    valid for the full integer hull (root cuts remain valid at every
    branch-and-bound node):

    - {b Clique cuts} from the pairwise vendor-conflict packing rows
      ([Σ x ≤ 1], unit coefficients, binary variables): a conflict graph
      is built from row co-occurrence and greedily grown cliques whose
      LP mass exceeds 1 become [Σ_C x ≤ 1].
    - {b Cover cuts} from all-positive binary knapsack rows (the area
      budget, eq. 13): a greedy minimal cover [C] whose LP slack
      [Σ_C (1 − x)] is below 1 becomes [Σ_C x ≤ |C| − 1].

    Cuts are deduplicated across calls on the same [t]. *)

type kind = Cover | Clique

type cut = {
  terms : (int * float) list;  (** (var index, coefficient) *)
  rhs : float;  (** cut is [Σ terms ≤ rhs] *)
  kind : kind;
}

type t
(** Separation state: classified rows, conflict graph, dedupe table. *)

val prepare : Model.t -> t

val separate : t -> float array -> cut list
(** [separate t x] returns cuts violated by the fractional point [x]
    (indexed by {!Model.var_index}) by more than [1e-4], at most 20 per
    family, never repeating a cut already returned by an earlier call on
    [t]. *)
