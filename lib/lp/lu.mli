(** Sparse LU factorisation of a simplex basis.

    Left-looking Gilbert–Peierls factorisation with Markowitz-style
    pivoting: columns are eliminated in ascending nonzero-count order and
    the pivot row is the sparsest candidate within a threshold factor
    (0.1) of the largest magnitude.  Between refactorisations, basis
    changes are absorbed as product-form etas appended by {!update} and
    replayed by {!ftran}/{!btran}.

    Index conventions: the factored basis B has columns indexed by
    {e basis position} (0..n-1) and rows by {e original row id}.
    {!ftran} maps a row-space right-hand side to a position-space
    solution of [B x = b]; {!btran} maps a position-space right-hand
    side to a row-space solution of [Bᵀ y = c].  Both work in place on a
    caller-supplied dense array of length n. *)

type t

exception Singular of int
(** Raised by {!factorize} when elimination step [i] finds no pivot
    above the singularity tolerance. *)

val factorize : int -> (int * float) array array -> t
(** [factorize n cols] factorises the basis whose position-[k] column is
    [cols.(k)], each given as (original row, value) pairs with distinct
    rows.  @raise Singular on a numerically singular basis. *)

val ftran : t -> float array -> unit
(** Solve [B x = b] in place ([b] length n, row-indexed in,
    position-indexed out), applying the eta file after the factors. *)

val btran : t -> float array -> unit
(** Solve [Bᵀ y = c] in place ([c] length n, position-indexed in,
    row-indexed out), applying the eta file (newest first) before the
    factors. *)

val update : t -> r:int -> float array -> unit
(** [update t ~r alpha] records the basis change that replaces position
    [r] with a column whose FTRAN image is [alpha] (dense,
    position-space) as a product-form eta.  The caller guarantees
    [alpha.(r)] is an acceptable pivot. *)

val n_etas : t -> int
(** Etas appended since factorisation — the caller's refactorisation
    trigger. *)
