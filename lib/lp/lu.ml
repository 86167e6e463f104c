(* Sparse LU factorisation of a simplex basis, with product-form eta
   updates.  Left-looking Gilbert–Peierls: each column is solved against
   the already-computed part of L via a symbolic depth-first reach
   followed by a numeric sparse triangular solve, so the cost is
   proportional to arithmetic actually performed rather than to n².

   Pivoting is Markowitz-style: columns are eliminated in ascending
   nonzero-count order (decided once, up front), and within a column the
   pivot row is the sparsest original row among those within a threshold
   factor of the largest candidate magnitude — trading a bounded amount
   of numerical headroom for fill-in control, the classic revised-simplex
   compromise.

   Basis changes do not refactorise: [update] appends a product-form eta
   (the FTRAN-ed entering column) and [ftran]/[btran] apply the eta file
   after/before the triangular solves.  The caller refactorises when the
   eta file grows past its budget or a stability check trips. *)

exception Singular of int

type eta = {
  er : int;            (* pivot position (basis slot replaced) *)
  ediag : float;       (* entering column's value at [er] *)
  eidx : int array;    (* other nonzero positions *)
  evals : float array;
}

type t = {
  n : int;
  (* L: unit lower triangular, stored by elimination step; row indices are
     original row ids, values are the elimination multipliers *)
  lptr : int array;
  lrow : int array;
  lval : float array;
  (* U: stored by elimination step; row indices are earlier step ids *)
  uptr : int array;
  urow : int array;
  uval : float array;
  udiag : float array;
  perm : int array;    (* step -> original pivot row *)
  pinv : int array;    (* original row -> step *)
  q : int array;       (* step -> basis position (column eliminated) *)
  acc : float array;   (* length-n scratch for the triangular solves *)
  mutable etas : eta array;
  mutable n_etas : int;
}

let n_etas t = t.n_etas

(* --- growable arrays (module-local, no deps) --- *)

type ibuf = { mutable ia : int array; mutable ilen : int }
type fbuf = { mutable fa : float array; mutable flen : int }

let ipush b v =
  if b.ilen = Array.length b.ia then begin
    let a = Array.make (max 8 (2 * b.ilen)) 0 in
    Array.blit b.ia 0 a 0 b.ilen;
    b.ia <- a
  end;
  b.ia.(b.ilen) <- v;
  b.ilen <- b.ilen + 1

let fpush b v =
  if b.flen = Array.length b.fa then begin
    let a = Array.make (max 8 (2 * b.flen)) 0.0 in
    Array.blit b.fa 0 a 0 b.flen;
    b.fa <- a
  end;
  b.fa.(b.flen) <- v;
  b.flen <- b.flen + 1

let threshold = 0.1      (* relative pivot-magnitude acceptance *)

(* [factorize n cols] factorises the n×n basis whose k-th column is
   [cols.(k)], given as (original row, value) pairs with distinct rows.
   @raise Singular when some column has no usable pivot. *)
let factorize n cols =
  let lptr = Array.make (n + 1) 0 in
  let uptr = Array.make (n + 1) 0 in
  let lrow = { ia = Array.make (4 * n) 0; ilen = 0 } in
  let lval = { fa = Array.make (4 * n) 0.0; flen = 0 } in
  let urow = { ia = Array.make (4 * n) 0; ilen = 0 } in
  let uval = { fa = Array.make (4 * n) 0.0; flen = 0 } in
  let udiag = Array.make n 0.0 in
  let perm = Array.make n (-1) in
  let pinv = Array.make n (-1) in
  (* eliminate sparse columns first; stable sort keeps ties in position
     order so slack-heavy crash bases peel off as singletons *)
  let q = Array.init n (fun s -> s) in
  Array.sort
    (fun a b ->
      let c = compare (Array.length cols.(a)) (Array.length cols.(b)) in
      if c <> 0 then c else compare a b)
    q;
  (* static row nonzero counts, the Markowitz tie-break *)
  let row_count = Array.make n 0 in
  Array.iter
    (Array.iter (fun (r, _) -> row_count.(r) <- row_count.(r) + 1))
    cols;
  let x = Array.make n 0.0 in
  let mark = Array.make n 0 in
  let stamp = ref 0 in
  (* reverse-post-order DFS worklist *)
  let topo = Array.make n 0 in
  let dstack = Array.make n 0 in
  let dpos = Array.make n 0 in
  for s = 0 to n - 1 do
    let j = q.(s) in
    let col = cols.(j) in
    incr stamp;
    let st = !stamp in
    let n_topo = ref 0 in
    (* symbolic: reach of the column pattern through pivoted L columns *)
    Array.iter
      (fun (r0, _) ->
        if mark.(r0) <> st then begin
          let top = ref 0 in
          dstack.(0) <- r0;
          dpos.(0) <- 0;
          mark.(r0) <- st;
          while !top >= 0 do
            let r = dstack.(!top) in
            let k = pinv.(r) in
            let lo = if k >= 0 then lptr.(k) else 0 in
            let hi = if k >= 0 then lptr.(k + 1) else 0 in
            let p = ref (lo + dpos.(!top)) in
            while !p < hi && mark.(lrow.ia.(!p)) = st do
              incr p
            done;
            if !p < hi then begin
              dpos.(!top) <- !p + 1 - lo;
              let child = lrow.ia.(!p) in
              mark.(child) <- st;
              incr top;
              dstack.(!top) <- child;
              dpos.(!top) <- 0
            end
            else begin
              topo.(!n_topo) <- r;
              incr n_topo;
              decr top
            end
          done
        end)
      col;
    (* numeric: scatter, then eliminate in topological order *)
    Array.iter (fun (r, v) -> x.(r) <- x.(r) +. v) col;
    for t = !n_topo - 1 downto 0 do
      let r = topo.(t) in
      let k = pinv.(r) in
      if k >= 0 then begin
        let xr = x.(r) in
        if xr <> 0.0 then
          for p = lptr.(k) to lptr.(k + 1) - 1 do
            let rr = lrow.ia.(p) in
            x.(rr) <- x.(rr) -. (lval.fa.(p) *. xr)
          done
      end
    done;
    (* pivot: sparsest candidate row within [threshold] of the largest *)
    let amax = ref 0.0 in
    for t = 0 to !n_topo - 1 do
      let r = topo.(t) in
      if pinv.(r) < 0 then begin
        let a = Float.abs x.(r) in
        if a > !amax then amax := a
      end
    done;
    (* A tiny-but-nonzero pivot still yields a consistent (if
       ill-conditioned) factorisation — the simplex recovers on later
       pivots, exactly as the dense tableau engine did.  Only an exactly
       empty column is a hard failure (it signals basis corruption, not
       round-off). *)
    if !amax = 0.0 then raise (Singular s);
    let cut = threshold *. !amax in
    let pr = ref (-1) in
    let pr_count = ref max_int in
    let pr_abs = ref 0.0 in
    for t = 0 to !n_topo - 1 do
      let r = topo.(t) in
      if pinv.(r) < 0 then begin
        let a = Float.abs x.(r) in
        if
          a >= cut
          && (row_count.(r) < !pr_count
             || (row_count.(r) = !pr_count && a > !pr_abs))
        then begin
          pr := r;
          pr_count := row_count.(r);
          pr_abs := a
        end
      end
    done;
    let pr = !pr in
    perm.(s) <- pr;
    pinv.(pr) <- s;
    udiag.(s) <- x.(pr);
    let piv = x.(pr) in
    for t = !n_topo - 1 downto 0 do
      let r = topo.(t) in
      let v = x.(r) in
      x.(r) <- 0.0;
      if v <> 0.0 && r <> pr then begin
        let k = pinv.(r) in
        if k >= 0 && k < s then begin
          ipush urow k;
          fpush uval v
        end
        else if k < 0 then begin
          ipush lrow r;
          fpush lval (v /. piv)
        end
      end
    done;
    x.(pr) <- 0.0;
    lptr.(s + 1) <- lrow.ilen;
    uptr.(s + 1) <- urow.ilen
  done;
  {
    n;
    lptr;
    lrow = Array.sub lrow.ia 0 lrow.ilen;
    lval = Array.sub lval.fa 0 lval.flen;
    uptr;
    urow = Array.sub urow.ia 0 urow.ilen;
    uval = Array.sub uval.fa 0 uval.flen;
    udiag;
    perm;
    pinv;
    q;
    acc = Array.make n 0.0;
    etas = [||];
    n_etas = 0;
  }

(* [ftran t b]: solve B x = b in place.  [b] enters indexed by original
   row and leaves indexed by basis position. *)
let ftran t b =
  let n = t.n in
  (* L solve, in row space *)
  for s = 0 to n - 1 do
    let xr = b.(t.perm.(s)) in
    if xr <> 0.0 then
      for p = t.lptr.(s) to t.lptr.(s + 1) - 1 do
        let r = t.lrow.(p) in
        b.(r) <- b.(r) -. (t.lval.(p) *. xr)
      done
  done;
  (* U solve, in step space *)
  let acc = t.acc in
  for s = 0 to n - 1 do
    acc.(s) <- b.(t.perm.(s))
  done;
  for s = n - 1 downto 0 do
    let v = acc.(s) /. t.udiag.(s) in
    acc.(s) <- v;
    if v <> 0.0 then
      for p = t.uptr.(s) to t.uptr.(s + 1) - 1 do
        let k = t.urow.(p) in
        acc.(k) <- acc.(k) -. (t.uval.(p) *. v)
      done
  done;
  (* scatter to basis positions *)
  for s = 0 to n - 1 do
    b.(t.q.(s)) <- acc.(s)
  done;
  (* eta file, oldest first *)
  for i = 0 to t.n_etas - 1 do
    let e = t.etas.(i) in
    let xr = b.(e.er) /. e.ediag in
    b.(e.er) <- xr;
    if xr <> 0.0 then
      for k = 0 to Array.length e.eidx - 1 do
        let j = e.eidx.(k) in
        b.(j) <- b.(j) -. (e.evals.(k) *. xr)
      done
  done

(* [btran t c]: solve Bᵀ y = c in place.  [c] enters indexed by basis
   position and leaves indexed by original row. *)
let btran t c =
  (* eta file, newest first *)
  for i = t.n_etas - 1 downto 0 do
    let e = t.etas.(i) in
    let s = ref c.(e.er) in
    for k = 0 to Array.length e.eidx - 1 do
      s := !s -. (e.evals.(k) *. c.(e.eidx.(k)))
    done;
    c.(e.er) <- !s /. e.ediag
  done;
  let n = t.n in
  let acc = t.acc in
  for s = 0 to n - 1 do
    acc.(s) <- c.(t.q.(s))
  done;
  (* Uᵀ solve (forward over steps) *)
  for s = 0 to n - 1 do
    let v = ref acc.(s) in
    for p = t.uptr.(s) to t.uptr.(s + 1) - 1 do
      v := !v -. (t.uval.(p) *. acc.(t.urow.(p)))
    done;
    acc.(s) <- !v /. t.udiag.(s)
  done;
  (* Lᵀ solve (backward over steps) *)
  for s = n - 1 downto 0 do
    let v = ref acc.(s) in
    for p = t.lptr.(s) to t.lptr.(s + 1) - 1 do
      v := !v -. (t.lval.(p) *. acc.(t.pinv.(t.lrow.(p))))
    done;
    acc.(s) <- !v
  done;
  (* scatter to row space *)
  for s = 0 to n - 1 do
    c.(t.perm.(s)) <- acc.(s)
  done

let drop_tol = 1e-13

(* [update t ~r alpha]: basis position [r] is replaced by a column whose
   FTRAN image is [alpha] (dense, basis-position space). *)
let update t ~r alpha =
  let nz = ref 0 in
  for i = 0 to t.n - 1 do
    if i <> r && Float.abs alpha.(i) > drop_tol then incr nz
  done;
  let eidx = Array.make !nz 0 in
  let evals = Array.make !nz 0.0 in
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    if i <> r && Float.abs alpha.(i) > drop_tol then begin
      eidx.(!k) <- i;
      evals.(!k) <- alpha.(i);
      incr k
    end
  done;
  let e = { er = r; ediag = alpha.(r); eidx; evals } in
  if t.n_etas = Array.length t.etas then begin
    let a = Array.make (max 8 (2 * t.n_etas)) e in
    Array.blit t.etas 0 a 0 t.n_etas;
    t.etas <- a
  end;
  t.etas.(t.n_etas) <- e;
  t.n_etas <- t.n_etas + 1
