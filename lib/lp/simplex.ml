(* process-wide profiling counters, alongside the per-problem [ctr] *)
let m_pivots = Thr_obs.Metrics.counter "simplex_pivots_total"
let m_warm = Thr_obs.Metrics.counter "simplex_warm_solves_total"
let m_cold = Thr_obs.Metrics.counter "simplex_cold_solves_total"
let m_refactor = Thr_obs.Metrics.counter "thr_lp_refactorizations_total"
let m_eta = Thr_obs.Metrics.counter "thr_lp_eta_updates_total"

type relation = Le | Ge | Eq

type row = { terms : (int * float) list; rel : relation; rhs : float }

type stats = {
  phase1_pivots : int;
  phase2_pivots : int;
  dual_pivots : int;
  degenerate_pivots : int;
  bland_fallbacks : int;
  warm_solves : int;
  cold_solves : int;
  refactorizations : int;
  eta_updates : int;
}

let zero_stats =
  {
    phase1_pivots = 0;
    phase2_pivots = 0;
    dual_pivots = 0;
    degenerate_pivots = 0;
    bland_fallbacks = 0;
    warm_solves = 0;
    cold_solves = 0;
    refactorizations = 0;
    eta_updates = 0;
  }

let total_pivots s = s.phase1_pivots + s.phase2_pivots + s.dual_pivots

(* mutable cumulative counters behind the immutable [stats] view *)
type counters = {
  mutable c_p1 : int;
  mutable c_p2 : int;
  mutable c_dual : int;
  mutable c_degen : int;
  mutable c_bland : int;
  mutable c_warm : int;
  mutable c_cold : int;
  mutable c_refactor : int;
  mutable c_eta : int;
}

(* ------------------------------------------------------------------ *)
(* The constraint matrix in sparse form.  Rows are normalised once per
   problem shape — structural columns first, then one slack per
   inequality (Le: +1, Ge: -1) — and cached across solves; only
   [add_constraint] invalidates it.  Artificial columns are per-solve
   unit columns and never enter the stored matrix. *)

type nmat = {
  nm : int;                 (* rows *)
  art0 : int;               (* n_vars + n_slack: artificials start here *)
  cptr : int array;         (* CSC over columns [0, art0) *)
  crow : int array;
  cval : float array;
  rptr : int array;         (* CSR over the same entries *)
  rcol : int array;
  rval : float array;
  nrhs : float array;
  nrel : relation array;
  slack_of : int array;     (* row -> slack column, -1 on equalities *)
}

(* ------------------------------------------------------------------ *)
(* Solver state: an LU-factorised basis (plus its product-form eta file)
   instead of the former dense B⁻¹A tableau.  Tableau columns and rows
   are materialised on demand with FTRAN/BTRAN; the reduced-cost row is
   maintained incrementally across pivots and recomputed from scratch at
   every refactorisation. *)

type status = Basic of int (* row *) | At_lo | At_up

type state = {
  mat : nmat;
  m : int;                 (* rows *)
  ncols : int;             (* total columns incl. artificials *)
  art0 : int;
  n_art : int;
  art_row : int array;     (* artificial (col - art0) -> row *)
  art_sign : float array;  (* its single coefficient, ±1 *)
  xb : float array;        (* current value of the basic var of each row *)
  basis : int array;       (* column basic in each row *)
  status : status array;   (* per column *)
  slo : float array;       (* per-column lower bounds *)
  sup : float array;       (* per-column upper bounds *)
  zrow : float array;      (* reduced costs for active objective *)
  cost : float array;      (* active objective *)
  dw : float array;        (* dual steepest-edge row weights *)
  mutable lu : Lu.t;
  (* dense scratch, reused across pivots *)
  fcol : float array;      (* m: FTRAN image of the entering column *)
  rho : float array;       (* m: BTRAN image of the leaving unit row *)
  tau : float array;       (* m: FTRAN of rho, for the DSE update *)
  rwork : float array;     (* ncols: gathered tableau row *)
  rtouch : int array;      (* columns touched in rwork *)
  rmark : bool array;
  mutable n_touch : int;
}

(* A cached optimal basis: dual feasible for the problem's objective, so
   after [set_bounds] changes it can be re-solved with the dual simplex
   instead of two cold phases.  [warm_uses] bounds how many re-solves are
   allowed before a refactorising cold solve. *)
type cache = { st : state; mutable warm_uses : int }

let warm_refresh_limit = 256

type problem = {
  nv : int;
  lo : float array;
  up : float array;
  obj : float array;
  mutable rows : row list; (* reversed *)
  mutable n_rows : int;
  mutable nmat : nmat option;
  mutable cache : cache option;
  ctr : counters;
}

let create ~n_vars =
  if n_vars <= 0 then invalid_arg "Simplex.create: need at least one variable";
  {
    nv = n_vars;
    lo = Array.make n_vars 0.0;
    up = Array.make n_vars infinity;
    obj = Array.make n_vars 0.0;
    rows = [];
    n_rows = 0;
    nmat = None;
    cache = None;
    ctr =
      {
        c_p1 = 0;
        c_p2 = 0;
        c_dual = 0;
        c_degen = 0;
        c_bland = 0;
        c_warm = 0;
        c_cold = 0;
        c_refactor = 0;
        c_eta = 0;
      };
  }

let n_vars p = p.nv

let n_constraints p = p.n_rows

let stats p =
  {
    phase1_pivots = p.ctr.c_p1;
    phase2_pivots = p.ctr.c_p2;
    dual_pivots = p.ctr.c_dual;
    degenerate_pivots = p.ctr.c_degen;
    bland_fallbacks = p.ctr.c_bland;
    warm_solves = p.ctr.c_warm;
    cold_solves = p.ctr.c_cold;
    refactorizations = p.ctr.c_refactor;
    eta_updates = p.ctr.c_eta;
  }

let forget p = p.cache <- None

let check_var p j =
  if j < 0 || j >= p.nv then invalid_arg "Simplex: variable index out of range"

let set_bounds p j ~lo ~up =
  check_var p j;
  if Float.is_nan lo || Float.is_nan up then invalid_arg "Simplex.set_bounds: NaN";
  if not (Float.is_finite lo) then
    invalid_arg "Simplex.set_bounds: lower bound must be finite";
  if up < lo then invalid_arg "Simplex.set_bounds: up < lo";
  p.lo.(j) <- lo;
  p.up.(j) <- up

let set_objective p terms =
  Array.fill p.obj 0 p.nv 0.0;
  List.iter
    (fun (j, c) ->
      check_var p j;
      p.obj.(j) <- p.obj.(j) +. c)
    terms;
  p.cache <- None

let add_constraint p terms rel rhs =
  List.iter (fun (j, _) -> check_var p j) terms;
  p.rows <- { terms; rel; rhs } :: p.rows;
  p.n_rows <- p.n_rows + 1;
  p.nmat <- None;
  p.cache <- None

type solution = { objective : float; values : float array }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit
  | Cutoff

let pp_result ppf = function
  | Optimal s -> Format.fprintf ppf "optimal (objective %g)" s.objective
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | Iter_limit -> Format.pp_print_string ppf "iteration limit"
  | Cutoff -> Format.pp_print_string ppf "objective cutoff exceeded"

(* ------------------------------------------------------------------ *)
(* Matrix construction (cached across solves). *)

let build_matrix p =
  let rows = Array.of_list (List.rev p.rows) in
  let m = Array.length rows in
  (* compact each row: duplicate indices summed, columns ascending *)
  let racc = Array.make p.nv 0.0 in
  let rstamp = Array.make p.nv (-1) in
  let terms =
    Array.mapi
      (fun i r ->
        let cols = ref [] in
        List.iter
          (fun (j, c) ->
            if rstamp.(j) <> i then begin
              rstamp.(j) <- i;
              racc.(j) <- c;
              cols := j :: !cols
            end
            else racc.(j) <- racc.(j) +. c)
          r.terms;
        List.sort compare !cols
        |> List.filter_map (fun j ->
               if racc.(j) = 0.0 then None else Some (j, racc.(j)))
        |> Array.of_list)
      rows
  in
  let slack_of = Array.make (max m 1) (-1) in
  let n_slack = ref 0 in
  Array.iteri
    (fun i r ->
      match r.rel with
      | Le | Ge ->
          slack_of.(i) <- p.nv + !n_slack;
          incr n_slack
      | Eq -> ())
    rows;
  let art0 = p.nv + !n_slack in
  let slack_coef i = match rows.(i).rel with Ge -> -1.0 | Le | Eq -> 1.0 in
  (* CSC *)
  let cptr = Array.make (art0 + 1) 0 in
  Array.iter (Array.iter (fun (j, _) -> cptr.(j + 1) <- cptr.(j + 1) + 1)) terms;
  Array.iteri
    (fun _ s -> if s >= 0 then cptr.(s + 1) <- cptr.(s + 1) + 1)
    slack_of;
  for j = 0 to art0 - 1 do
    cptr.(j + 1) <- cptr.(j + 1) + cptr.(j)
  done;
  let nnz = cptr.(art0) in
  let crow = Array.make (max nnz 1) 0 in
  let cval = Array.make (max nnz 1) 0.0 in
  let cur = Array.make art0 0 in
  Array.blit cptr 0 cur 0 art0;
  Array.iteri
    (fun i row ->
      Array.iter
        (fun (j, c) ->
          crow.(cur.(j)) <- i;
          cval.(cur.(j)) <- c;
          cur.(j) <- cur.(j) + 1)
        row;
      let s = slack_of.(i) in
      if s >= 0 then begin
        crow.(cur.(s)) <- i;
        cval.(cur.(s)) <- slack_coef i;
        cur.(s) <- cur.(s) + 1
      end)
    terms;
  (* CSR *)
  let rptr = Array.make (m + 1) 0 in
  Array.iteri
    (fun i row ->
      rptr.(i + 1) <-
        rptr.(i) + Array.length row + (if slack_of.(i) >= 0 then 1 else 0))
    terms;
  let rcol = Array.make (max nnz 1) 0 in
  let rval = Array.make (max nnz 1) 0.0 in
  Array.iteri
    (fun i row ->
      let k = ref rptr.(i) in
      Array.iter
        (fun (j, c) ->
          rcol.(!k) <- j;
          rval.(!k) <- c;
          incr k)
        row;
      if slack_of.(i) >= 0 then begin
        rcol.(!k) <- slack_of.(i);
        rval.(!k) <- slack_coef i
      end)
    terms;
  {
    nm = m;
    art0;
    cptr;
    crow;
    cval;
    rptr;
    rcol;
    rval;
    nrhs = Array.map (fun r -> r.rhs) rows;
    nrel = Array.map (fun r -> r.rel) rows;
    slack_of;
  }

let get_matrix p =
  match p.nmat with
  | Some m -> m
  | None ->
      let m = build_matrix p in
      p.nmat <- Some m;
      m

(* ------------------------------------------------------------------ *)
(* State primitives. *)

let nonbasic_value st j =
  match st.status.(j) with
  | Basic r -> st.xb.(r)
  | At_lo -> st.slo.(j)
  | At_up -> st.sup.(j)

let col_iter st j f =
  if j < st.art0 then begin
    let mat = st.mat in
    for k = mat.cptr.(j) to mat.cptr.(j + 1) - 1 do
      f mat.crow.(k) mat.cval.(k)
    done
  end
  else f st.art_row.(j - st.art0) st.art_sign.(j - st.art0)

(* FTRAN the column of variable [j] into [st.fcol] (position space). *)
let ftran_col st j =
  Array.fill st.fcol 0 st.m 0.0;
  col_iter st j (fun i a -> st.fcol.(i) <- st.fcol.(i) +. a);
  Lu.ftran st.lu st.fcol

(* BTRAN the unit vector of basis position [r] into [st.rho] (row space). *)
let btran_row st r =
  Array.fill st.rho 0 st.m 0.0;
  st.rho.(r) <- 1.0;
  Lu.btran st.lu st.rho

(* Gather the tableau row ρᵀA into [st.rwork]/[st.rtouch] from the BTRAN
   image in [st.rho]; untouched columns stay exactly 0. *)
let gather_row st =
  for t = 0 to st.n_touch - 1 do
    let j = st.rtouch.(t) in
    st.rmark.(j) <- false;
    st.rwork.(j) <- 0.0
  done;
  st.n_touch <- 0;
  let mat = st.mat in
  for i = 0 to st.m - 1 do
    let y = st.rho.(i) in
    if y <> 0.0 then
      for k = mat.rptr.(i) to mat.rptr.(i + 1) - 1 do
        let j = mat.rcol.(k) in
        if not st.rmark.(j) then begin
          st.rmark.(j) <- true;
          st.rtouch.(st.n_touch) <- j;
          st.n_touch <- st.n_touch + 1
        end;
        st.rwork.(j) <- st.rwork.(j) +. (y *. mat.rval.(k))
      done
  done;
  for a = 0 to st.n_art - 1 do
    let y = st.rho.(st.art_row.(a)) in
    if y <> 0.0 then begin
      let j = st.art0 + a in
      if not st.rmark.(j) then begin
        st.rmark.(j) <- true;
        st.rtouch.(st.n_touch) <- j;
        st.n_touch <- st.n_touch + 1
      end;
      st.rwork.(j) <- st.rwork.(j) +. (y *. st.art_sign.(a))
    end
  done

let basis_cols st =
  Array.init st.m (fun k ->
      let j = st.basis.(k) in
      if j < st.art0 then begin
        let mat = st.mat in
        let lo = mat.cptr.(j) in
        let n = mat.cptr.(j + 1) - lo in
        Array.init n (fun t -> (mat.crow.(lo + t), mat.cval.(lo + t)))
      end
      else [| (st.art_row.(j - st.art0), st.art_sign.(j - st.art0)) |])

let refactor ~ctr st =
  ctr.c_refactor <- ctr.c_refactor + 1;
  Thr_obs.Metrics.incr m_refactor;
  st.lu <-
    Thr_obs.Trace.with_span "lp.factorize" (fun () ->
        Lu.factorize st.m (basis_cols st))

(* x_B = B⁻¹ (b - Σ nonbasic A_j x_j), recomputed from the factors. *)
let recompute_xb st =
  Thr_obs.Trace.with_span "lp.ftran" (fun () ->
      let b = st.fcol in
      Array.blit st.mat.nrhs 0 b 0 st.m;
      for j = 0 to st.ncols - 1 do
        match st.status.(j) with
        | Basic _ -> ()
        | At_lo | At_up ->
            let v = nonbasic_value st j in
            if v <> 0.0 then col_iter st j (fun i a -> b.(i) <- b.(i) -. (a *. v))
      done;
      Lu.ftran st.lu b;
      Array.blit b 0 st.xb 0 st.m)

(* z_j = c_j - yᵀ A_j with y = B⁻ᵀ c_B, recomputed from the factors. *)
let recompute_zrow st =
  Thr_obs.Trace.with_span "lp.btran" (fun () ->
      let y = st.rho in
      for k = 0 to st.m - 1 do
        y.(k) <- st.cost.(st.basis.(k))
      done;
      Lu.btran st.lu y;
      for j = 0 to st.ncols - 1 do
        match st.status.(j) with
        | Basic _ -> st.zrow.(j) <- 0.0
        | At_lo | At_up ->
            let s = ref st.cost.(j) in
            col_iter st j (fun i a -> s := !s -. (y.(i) *. a));
            st.zrow.(j) <- !s
      done)

(* zrow after a pivot on (row r, entering e), from the gathered row:
   z_j ← z_j - (z_e / α_re)·row_j.  Only touched columns change. *)
let update_zrow_after_pivot st e =
  let ze = st.zrow.(e) in
  if ze <> 0.0 then begin
    let f = ze /. st.rwork.(e) in
    for t = 0 to st.n_touch - 1 do
      let j = st.rtouch.(t) in
      st.zrow.(j) <- st.zrow.(j) -. (f *. st.rwork.(j))
    done
  end;
  st.zrow.(e) <- 0.0

let eta_limit = 64     (* refactorise when the eta file reaches this *)
let stab_tol = 1e-6    (* row/column pivot-agreement tolerance *)
let pivot_tol = 1e-9
let eta_pivot_tol = 1e-7
(* A pivot element this small computed through a stale eta file cannot be
   trusted — an earlier eta with a tiny diagonal amplifies round-off
   enough that the row/column agreement check can pass on a value whose
   true magnitude is zero, and committing such a pivot makes the recorded
   basis exactly singular.  Below this threshold the factors are rebuilt
   first and the step re-run on accurate numbers; after a fresh
   factorisation the same pivot is trusted down to [pivot_tol]. *)

let record_eta ~ctr st r =
  Lu.update st.lu ~r st.fcol;
  ctr.c_eta <- ctr.c_eta + 1;
  Thr_obs.Metrics.incr m_eta

let refresh ~ctr st =
  refactor ~ctr st;
  recompute_xb st;
  recompute_zrow st

(* Price: choose an entering column.  Dantzig rule by default, Bland's
   (first eligible index) when [bland].  [allow] filters columns. *)
let price st ~eps ~bland ~allow =
  let best = ref (-1) in
  let best_score = ref eps in
  let found_bland = ref (-1) in
  (try
     for j = 0 to st.ncols - 1 do
       if allow j then
         match st.status.(j) with
         | Basic _ -> ()
         | At_lo ->
             if st.zrow.(j) < -.eps then
               if bland then begin
                 found_bland := j;
                 raise Exit
               end
               else if -.st.zrow.(j) > !best_score then begin
                 best := j;
                 best_score := -.st.zrow.(j)
               end
         | At_up ->
             if st.zrow.(j) > eps then
               if bland then begin
                 found_bland := j;
                 raise Exit
               end
               else if st.zrow.(j) > !best_score then begin
                 best := j;
                 best_score := st.zrow.(j)
               end
     done
   with Exit -> ());
  if bland then !found_bland else !best

type step =
  | Moved of float (* objective progress *)
  | No_entering
  | Unbounded_dir
  | Refactored (* stability trip: factors rebuilt, iteration not performed *)

(* One primal simplex step over the factorised basis. *)
let simplex_step ~ctr st ~eps ~bland ~allow =
  let e = price st ~eps ~bland ~allow in
  if e < 0 then No_entering
  else begin
    ftran_col st e;
    let d = match st.status.(e) with At_up -> -1.0 | At_lo | Basic _ -> 1.0 in
    (* x_B(i) moves at rate_i = -d * α_i per unit of t >= 0 *)
    let t_limit = ref (st.sup.(e) -. st.slo.(e)) in
    let leaving = ref (-1) in
    let leaving_to_up = ref false in
    for i = 0 to st.m - 1 do
      let coef = st.fcol.(i) in
      if Float.abs coef > pivot_tol then begin
        let rate = -.d *. coef in
        let b = st.basis.(i) in
        if rate > pivot_tol && Float.is_finite st.sup.(b) then begin
          let t = (st.sup.(b) -. st.xb.(i)) /. rate in
          if t < !t_limit -. 1e-12 then begin
            t_limit := max t 0.0;
            leaving := i;
            leaving_to_up := true
          end
        end
        else if rate < -.pivot_tol then begin
          let t = (st.slo.(b) -. st.xb.(i)) /. rate in
          if t < !t_limit -. 1e-12 then begin
            t_limit := max t 0.0;
            leaving := i;
            leaving_to_up := false
          end
        end
      end
    done;
    (* when the ratio test lands on a dangerously small pivot element,
       rescan the rows (near-)tied at the minimum ratio for one with a
       larger pivot: degenerate LPs tie many rows at t = 0, and committing
       a tiny pivot there poisons the eta file (and hence the recorded
       basis).  Gated on the pivot actually being small so the common
       well-conditioned case keeps the first-match row — the tie-break
       changes which vertex a degenerate LP lands on, which downstream
       consumers (cut separation, branching) are sensitive to. *)
    if !leaving >= 0 && Float.abs st.fcol.(!leaving) < 1e-4 then begin
      let best_abs = ref (Float.abs st.fcol.(!leaving)) in
      for i = 0 to st.m - 1 do
        let coef = st.fcol.(i) in
        let a = Float.abs coef in
        if a > !best_abs then begin
          let rate = -.d *. coef in
          let b = st.basis.(i) in
          if rate > pivot_tol && Float.is_finite st.sup.(b) then begin
            let t = (st.sup.(b) -. st.xb.(i)) /. rate in
            if t <= !t_limit +. 1e-12 then begin
              leaving := i;
              leaving_to_up := true;
              best_abs := a
            end
          end
          else if rate < -.pivot_tol then begin
            let t = (st.slo.(b) -. st.xb.(i)) /. rate in
            if t <= !t_limit +. 1e-12 then begin
              leaving := i;
              leaving_to_up := false;
              best_abs := a
            end
          end
        end
      done
    end;
    if not (Float.is_finite !t_limit) then Unbounded_dir
    else begin
      let t = max !t_limit 0.0 in
      if !leaving < 0 then begin
        (* bound flip of the entering variable *)
        for i = 0 to st.m - 1 do
          let coef = st.fcol.(i) in
          if coef <> 0.0 then st.xb.(i) <- st.xb.(i) -. (d *. t *. coef)
        done;
        st.status.(e) <- (match st.status.(e) with At_lo -> At_up | _ -> At_lo);
        Moved t
      end
      else begin
        let r = !leaving in
        btran_row st r;
        gather_row st;
        let piv = st.fcol.(r) in
        if
          Float.abs (st.rwork.(e) -. piv) > stab_tol *. (1.0 +. Float.abs piv)
          || (Float.abs piv < eta_pivot_tol && Lu.n_etas st.lu > 0)
        then begin
          refresh ~ctr st;
          Refactored
        end
        else begin
          for i = 0 to st.m - 1 do
            let coef = st.fcol.(i) in
            if coef <> 0.0 then st.xb.(i) <- st.xb.(i) -. (d *. t *. coef)
          done;
          let out = st.basis.(r) in
          let enter_value =
            (match st.status.(e) with At_up -> st.sup.(e) | _ -> st.slo.(e))
            +. (d *. t)
          in
          update_zrow_after_pivot st e;
          record_eta ~ctr st r;
          st.basis.(r) <- e;
          st.status.(e) <- Basic r;
          st.status.(out) <- (if !leaving_to_up then At_up else At_lo);
          st.xb.(r) <- enter_value;
          if Lu.n_etas st.lu >= eta_limit then refresh ~ctr st;
          Moved t
        end
      end
    end
  end

(* Run primal simplex to optimality for the active objective. *)
let optimize st ~eps ~allow ~ctr ~phase1 iters_left =
  let degenerate_run = ref 0 in
  let bland = ref false in
  let rec loop () =
    if !iters_left <= 0 then `Iter_limit
    else begin
      decr iters_left;
      match simplex_step ~ctr st ~eps ~bland:!bland ~allow with
      | No_entering -> `Optimal
      | Unbounded_dir -> `Unbounded
      | Refactored -> loop ()
      | Moved t ->
          Thr_obs.Metrics.incr m_pivots;
          if phase1 then ctr.c_p1 <- ctr.c_p1 + 1
          else ctr.c_p2 <- ctr.c_p2 + 1;
          if t <= 1e-12 then begin
            ctr.c_degen <- ctr.c_degen + 1;
            incr degenerate_run;
            if !degenerate_run > 2 * (st.m + st.ncols) then begin
              if not !bland then ctr.c_bland <- ctr.c_bland + 1;
              bland := true
            end
          end
          else begin
            degenerate_run := 0;
            bland := false
          end;
          loop ()
    end
  in
  loop ()

let final_solution p st =
  let values = Array.init p.nv (fun j -> nonbasic_value st j) in
  (* clamp tiny numerical drift back into bounds *)
  Array.iteri
    (fun j v ->
      let v = if v < p.lo.(j) then p.lo.(j) else v in
      let v = if Float.is_finite p.up.(j) && v > p.up.(j) then p.up.(j) else v in
      values.(j) <- v)
    values;
  let objective = ref 0.0 in
  for j = 0 to p.nv - 1 do
    objective := !objective +. (p.obj.(j) *. values.(j))
  done;
  Optimal { objective = !objective; values }

(* ------------------------------------------------------------------ *)
(* Cold solve: crash basis, factorise, two-phase primal. *)

let cold_solve ~eps ~max_iters p =
  p.ctr.c_cold <- p.ctr.c_cold + 1;
  Thr_obs.Metrics.incr m_cold;
  (* a cold solve rebuilds the basis from scratch: the refactor event *)
  if Thr_obs.Trace.enabled () then Thr_obs.Trace.instant "simplex.refactor" ();
  if p.n_rows = 0 then begin
    (* No constraints: each variable sits at whichever bound minimises. *)
    let values =
      Array.init p.nv (fun j -> if p.obj.(j) < 0.0 then p.up.(j) else p.lo.(j))
    in
    if Array.exists (fun v -> not (Float.is_finite v)) values then Unbounded
    else begin
      let objective = ref 0.0 in
      Array.iteri (fun j v -> objective := !objective +. (p.obj.(j) *. v)) values;
      Optimal { objective = !objective; values }
    end
  end
  else begin
    let mat = get_matrix p in
    let m = mat.nm in
    let art0 = mat.art0 in
    (* residual of each row at the all-lower-bound point *)
    let residual = Array.copy mat.nrhs in
    for i = 0 to m - 1 do
      for k = mat.rptr.(i) to mat.rptr.(i + 1) - 1 do
        let j = mat.rcol.(k) in
        if j < p.nv then
          residual.(i) <- residual.(i) -. (mat.rval.(k) *. p.lo.(j))
      done
    done;
    (* Crash basis: a row whose slack value is already nonnegative uses
       its slack as the basic variable; only the remaining rows
       (equalities and violated inequalities) get an artificial unit
       column signed so it starts nonnegative.  When no artificials are
       needed, phase 1 is skipped entirely. *)
    let needs_artificial i =
      match mat.nrel.(i) with
      | Le -> residual.(i) < 0.0
      | Ge -> residual.(i) > 0.0
      | Eq -> true
    in
    let art_of = Array.make m (-1) in
    let n_art = ref 0 in
    for i = 0 to m - 1 do
      if needs_artificial i then begin
        art_of.(i) <- art0 + !n_art;
        incr n_art
      end
    done;
    let n_art = !n_art in
    let ncols = art0 + n_art in
    let art_row = Array.make (max n_art 1) 0 in
    let art_sign = Array.make (max n_art 1) 1.0 in
    let slo = Array.make ncols 0.0 in
    let sup = Array.make ncols infinity in
    Array.blit p.lo 0 slo 0 p.nv;
    Array.blit p.up 0 sup 0 p.nv;
    let status = Array.make ncols At_lo in
    let basis = Array.make m 0 in
    let xb = Array.make m 0.0 in
    for i = 0 to m - 1 do
      if art_of.(i) >= 0 then begin
        let a = art_of.(i) - art0 in
        art_row.(a) <- i;
        art_sign.(a) <- (if residual.(i) < 0.0 then -1.0 else 1.0);
        basis.(i) <- art_of.(i);
        xb.(i) <- Float.abs residual.(i)
      end
      else begin
        (* slack-basic row: Le slack (coef +1) starts at residual >= 0,
           Ge slack (coef -1) starts at -residual >= 0 *)
        basis.(i) <- mat.slack_of.(i);
        xb.(i) <-
          (match mat.nrel.(i) with
          | Le -> residual.(i)
          | Ge -> -.residual.(i)
          | Eq -> assert false)
      end
    done;
    Array.iteri (fun i b -> status.(b) <- Basic i) basis;
    let st =
      {
        mat;
        m;
        ncols;
        art0;
        n_art;
        art_row;
        art_sign;
        xb;
        basis;
        status;
        slo;
        sup;
        zrow = Array.make ncols 0.0;
        cost = Array.make ncols 0.0;
        (* the crash basis is diagonal ±1, whose B⁻ᵀ rows have unit norm
           — so the steepest-edge weights start exact *)
        dw = Array.make m 1.0;
        lu = Lu.factorize 0 [||];
        fcol = Array.make m 0.0;
        rho = Array.make m 0.0;
        tau = Array.make m 0.0;
        rwork = Array.make ncols 0.0;
        rtouch = Array.make ncols 0;
        rmark = Array.make ncols false;
        n_touch = 0;
      }
    in
    refactor ~ctr:p.ctr st;
    let iters_left = ref max_iters in
    (* Phase 1 — skipped when the crash basis is already feasible *)
    let phase1 =
      if n_art = 0 then `Optimal
      else begin
        for j = 0 to ncols - 1 do
          st.cost.(j) <- (if j >= art0 then 1.0 else 0.0)
        done;
        recompute_zrow st;
        optimize st ~eps ~allow:(fun _ -> true) ~ctr:p.ctr ~phase1:true
          iters_left
      end
    in
    match phase1 with
    | `Iter_limit -> Iter_limit
    | `Unbounded ->
        (* phase-1 objective is bounded below by 0; cannot happen *)
        Infeasible
    | `Optimal ->
        let art_sum = ref 0.0 in
        for i = 0 to m - 1 do
          if st.basis.(i) >= art0 then art_sum := !art_sum +. Float.abs st.xb.(i)
        done;
        Array.iteri
          (fun j s ->
            if j >= art0 then
              match s with
              | At_up -> art_sum := !art_sum +. Float.abs st.sup.(j)
              | At_lo | Basic _ -> ())
          st.status;
        if !art_sum > eps *. 100.0 then Infeasible
        else begin
          (* Pin artificials to zero and drive basic ones out if possible. *)
          for j = art0 to ncols - 1 do
            st.sup.(j) <- 0.0;
            match st.status.(j) with At_up -> st.status.(j) <- At_lo | _ -> ()
          done;
          for i = 0 to m - 1 do
            if st.basis.(i) >= art0 then begin
              (* find a nonbasic structural/slack column with a usable
                 tableau entry in this row *)
              btran_row st i;
              gather_row st;
              let e = ref (-1) in
              for t = 0 to st.n_touch - 1 do
                let j = st.rtouch.(t) in
                if
                  j < art0
                  && (!e < 0 || j < !e)
                  && Float.abs st.rwork.(j) > 1e-6
                  && (match st.status.(j) with Basic _ -> false | _ -> true)
                then e := j
              done;
              match !e with
              | -1 -> () (* redundant row; artificial stays basic at 0 *)
              | e ->
                  ftran_col st e;
                  (* demand the same magnitude of the column-computed
                     pivot as of the row-computed one: a drive-out pivot
                     is optional, so only well-conditioned swaps are
                     worth an eta *)
                  if Float.abs st.fcol.(i) > 1e-6 then begin
                    let out = st.basis.(i) in
                    let enter_value = nonbasic_value st e in
                    record_eta ~ctr:p.ctr st i;
                    st.basis.(i) <- e;
                    st.status.(e) <- Basic i;
                    st.status.(out) <- At_lo;
                    st.xb.(i) <- enter_value;
                    if Lu.n_etas st.lu >= eta_limit then refactor ~ctr:p.ctr st
                  end
            end
          done;
          (* Phase 2 *)
          for j = 0 to ncols - 1 do
            st.cost.(j) <- (if j < p.nv then p.obj.(j) else 0.0)
          done;
          recompute_zrow st;
          let allow j = j < art0 in
          match optimize st ~eps ~allow ~ctr:p.ctr ~phase1:false iters_left with
          | `Iter_limit -> Iter_limit
          | `Unbounded -> Unbounded
          | `Optimal ->
              p.cache <- Some { st; warm_uses = 0 };
              final_solution p st
        end
  end

(* ------------------------------------------------------------------ *)
(* Warm solve: revive the cached optimal basis after [set_bounds]
   changes.  The reduced-cost row is unchanged (same objective, same
   rows), so the basis stays dual feasible up to bound-status flips;
   primal feasibility is restored with the bounded-variable dual simplex
   over the cached LU factors.  Returns [None] when the cache cannot be
   made dual feasible by flips alone (a variable pinned against an
   infinite bound) — the caller then falls back to a cold solve. *)

let warm_solve ~eps ~max_iters ?cutoff p cache =
  let st = cache.st in
  let ok = ref true in
  for j = 0 to p.nv - 1 do
    st.slo.(j) <- p.lo.(j);
    st.sup.(j) <- p.up.(j);
    (match st.status.(j) with
    | Basic _ -> ()
    | At_up when not (Float.is_finite st.sup.(j)) -> st.status.(j) <- At_lo
    | At_lo | At_up -> ());
    match st.status.(j) with
    | Basic _ -> ()
    | At_lo ->
        if st.slo.(j) < st.sup.(j) && st.zrow.(j) < -.eps then begin
          if Float.is_finite st.sup.(j) then st.status.(j) <- At_up
          else ok := false
        end
    | At_up ->
        if st.slo.(j) < st.sup.(j) && st.zrow.(j) > eps then st.status.(j) <- At_lo
  done;
  if not !ok then None
  else begin
    recompute_xb st;
    (* objective of the current (super-optimal) basic solution; it rises
       monotonically under dual pivots, so crossing [cutoff] proves the
       true optimum lies beyond it *)
    let z = ref 0.0 in
    for j = 0 to p.nv - 1 do
      if p.obj.(j) <> 0.0 then
        z :=
          !z
          +. p.obj.(j)
             *. (match st.status.(j) with
                | Basic r -> st.xb.(r)
                | At_lo | At_up -> nonbasic_value st j)
    done;
    (* Leaving rows are priced by dual steepest edge — violation² / w_i
       with w_i ≈ ‖e_iᵀB⁻¹‖², reset to the unit reference frame at each
       revival and maintained exactly (Forrest–Goldfarb) across the dual
       pivots of this re-solve.  Plain Dantzig pricing stalls badly on
       the highly degenerate scheduling LPs this engine serves.  A warm
       re-solve that still hasn't converged after [pivot_cap] pivots
       gives up and reports [None] so the caller refactorises cold. *)
    Array.fill st.dw 0 st.m 1.0;
    let pivot_cap = min max_iters (200 + (2 * st.m)) in
    let movable j =
      match st.status.(j) with
      | Basic _ -> false
      | At_lo | At_up -> st.slo.(j) < st.sup.(j)
    in
    let iters = ref pivot_cap in
    let degen_run = ref 0 in
    let bland = ref false in
    let rec loop () =
      (* leaving row: steepest-edge scoring of violated basic bounds *)
      let r = ref (-1) in
      let best_score = ref 0.0 in
      let to_up = ref false in
      for i = 0 to st.m - 1 do
        let b = st.basis.(i) in
        let v = st.xb.(i) in
        let viol, up =
          if Float.is_finite st.sup.(b) && v -. st.sup.(b) > eps then
            (v -. st.sup.(b), true)
          else if st.slo.(b) -. v > eps then (st.slo.(b) -. v, false)
          else (0.0, false)
        in
        if viol > 0.0 then begin
          let score = viol *. viol /. st.dw.(i) in
          if score > !best_score then begin
            r := i;
            best_score := score;
            to_up := up
          end
        end
      done;
      if !r < 0 then Some (final_solution p st)
      else if !iters <= 0 then None (* give up: cold fallback *)
      else begin
        decr iters;
        let r = !r in
        let to_up = !to_up in
        let out = st.basis.(r) in
        let bound = if to_up then st.sup.(out) else st.slo.(out) in
        let delta = st.xb.(r) -. bound in
        btran_row st r;
        gather_row st;
        (* entering column: keep dual feasibility, min |z_j / alpha_j|
           ratio (Bland: lowest eligible index, after a degenerate run) *)
        let e = ref (-1) in
        let best = ref infinity in
        let best_alpha = ref 0.0 in
        for t = 0 to st.n_touch - 1 do
          let j = st.rtouch.(t) in
          if j < st.art0 && movable j then begin
            let alpha = st.rwork.(j) in
            let eligible =
              Float.abs alpha > pivot_tol
              &&
              if delta > 0.0 then
                match st.status.(j) with
                | At_lo -> alpha > 0.0
                | _ -> alpha < 0.0
              else
                match st.status.(j) with
                | At_lo -> alpha < 0.0
                | _ -> alpha > 0.0
            in
            if eligible then
              if !bland then begin
                if !e < 0 || j < !e then e := j
              end
              else begin
                let ratio = Float.abs (st.zrow.(j) /. alpha) in
                if
                  ratio < !best -. 1e-12
                  || (ratio < !best +. 1e-12
                     && Float.abs alpha > Float.abs !best_alpha)
                then begin
                  e := j;
                  best := ratio;
                  best_alpha := alpha
                end
              end
          end
        done;
        if !e < 0 then Some Infeasible (* dual unbounded: no primal point *)
        else begin
          let e = !e in
          ftran_col st e;
          let piv = st.fcol.(r) in
          let alpha_e = st.rwork.(e) in
          if
            Float.abs (piv -. alpha_e) > stab_tol *. (1.0 +. Float.abs piv)
            || (Float.abs piv < eta_pivot_tol && Lu.n_etas st.lu > 0)
          then begin
            (* row/column disagreement or an untrustworthy small pivot:
               rebuild the factors and retry *)
            refresh ~ctr:p.ctr st;
            loop ()
          end
          else begin
            let step = delta /. alpha_e in
            let dz = st.zrow.(e) *. step in
            p.ctr.c_dual <- p.ctr.c_dual + 1;
            Thr_obs.Metrics.incr m_pivots;
            if Float.abs dz <= 1e-12 then begin
              p.ctr.c_degen <- p.ctr.c_degen + 1;
              incr degen_run;
              if !degen_run > 2 * (st.m + st.ncols) then begin
                if not !bland then p.ctr.c_bland <- p.ctr.c_bland + 1;
                bland := true
              end
            end
            else begin
              degen_run := 0;
              bland := false
            end;
            z := !z +. dz;
            match cutoff with
            | Some c when !z > c +. 1e-9 ->
                (* abort before pivoting: the state stays consistent *)
                Some Cutoff
            | _ ->
                (* Forrest–Goldfarb weight update needs τ = B⁻¹ρ for the
                   outgoing basis *)
                Array.blit st.rho 0 st.tau 0 st.m;
                Lu.ftran st.lu st.tau;
                let enter_value = nonbasic_value st e +. step in
                for i = 0 to st.m - 1 do
                  if i <> r then begin
                    let coef = st.fcol.(i) in
                    if coef <> 0.0 then st.xb.(i) <- st.xb.(i) -. (coef *. step)
                  end
                done;
                update_zrow_after_pivot st e;
                let wr = st.dw.(r) in
                for i = 0 to st.m - 1 do
                  if i <> r then begin
                    let a = st.fcol.(i) /. piv in
                    if a <> 0.0 then
                      st.dw.(i) <-
                        Float.max
                          (st.dw.(i) -. (2.0 *. a *. st.tau.(i))
                          +. (a *. a *. wr))
                          1e-4
                  end
                done;
                st.dw.(r) <- Float.max (wr /. (piv *. piv)) 1e-4;
                record_eta ~ctr:p.ctr st r;
                st.basis.(r) <- e;
                st.status.(e) <- Basic r;
                st.status.(out) <- (if to_up then At_up else At_lo);
                st.xb.(r) <- enter_value;
                if Lu.n_etas st.lu >= eta_limit then refresh ~ctr:p.ctr st;
                loop ()
          end
        end
      end
    in
    loop ()
  end

let solve ?(eps = 1e-7) ?(max_iters = 200_000) ?cutoff ?(warm = true) p =
  let warm_result =
    if not warm then None
    else
      match p.cache with
      | Some c when c.warm_uses < warm_refresh_limit -> (
          match
            try warm_solve ~eps ~max_iters ?cutoff p c
            with Lu.Singular _ -> None
          with
          | Some r ->
              c.warm_uses <- c.warm_uses + 1;
              p.ctr.c_warm <- p.ctr.c_warm + 1;
              Thr_obs.Metrics.incr m_warm;
              Some r
          | None -> None)
      | _ -> None
  in
  match warm_result with
  | Some r -> r
  | None -> cold_solve ~eps ~max_iters p
