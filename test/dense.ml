(* The former dense-tableau engine, retained verbatim (minus the
   process-wide observability hooks) as an independent reference oracle:
   the qcheck equivalence property in test_lp cross-checks the sparse
   LU revised simplex in [Simplex] against this implementation on random
   LPs, including warm re-solves.  It shares no code with [Simplex]
   beyond the [relation] type, which is re-exported for interop. *)

module Simplex = Thr_lp.Simplex

type relation = Simplex.relation = Le | Ge | Eq

type row = { terms : (int * float) list; rel : relation; rhs : float }

type stats = {
  phase1_pivots : int;
  phase2_pivots : int;
  dual_pivots : int;
  degenerate_pivots : int;
  bland_fallbacks : int;
  warm_solves : int;
  cold_solves : int;
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
}

(* ------------------------------------------------------------------ *)
(* Solver state: full tableau of B^-1 A over all columns (structural +
   slack + artificial), current basic-variable values, the reduced cost
   row for the active objective, and B^-1 b — kept up to date through
   pivots so the basis can be revived after bound changes. *)

type status = Basic of int (* row *) | At_lo | At_up

type state = {
  m : int;                 (* rows *)
  ncols : int;             (* total columns *)
  tab : float array array; (* m x ncols, equals B^-1 A *)
  bcol : float array;      (* B^-1 b *)
  xb : float array;        (* current value of the basic var of each row *)
  basis : int array;       (* column basic in each row *)
  status : status array;   (* per column *)
  slo : float array;       (* per-column lower bounds *)
  sup : float array;       (* per-column upper bounds *)
  zrow : float array;      (* reduced costs for active objective *)
  cost : float array;      (* active objective *)
  n_art : int;             (* artificials live in the last n_art columns *)
}

type cache = { st : state; art0 : int; mutable warm_uses : int }

let warm_refresh_limit = 256

type problem = {
  nv : int;
  lo : float array;
  up : float array;
  obj : float array;
  mutable rows : row list; (* reversed *)
  mutable n_rows : int;
  mutable cache : cache option;
  ctr : counters;
}

let create ~n_vars =
  if n_vars <= 0 then invalid_arg "Dense.create: need at least one variable";
  {
    nv = n_vars;
    lo = Array.make n_vars 0.0;
    up = Array.make n_vars infinity;
    obj = Array.make n_vars 0.0;
    rows = [];
    n_rows = 0;
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
  }

let forget p = p.cache <- None

let check_var p j =
  if j < 0 || j >= p.nv then invalid_arg "Dense: variable index out of range"

let set_bounds p j ~lo ~up =
  check_var p j;
  if Float.is_nan lo || Float.is_nan up then invalid_arg "Dense.set_bounds: NaN";
  if not (Float.is_finite lo) then
    invalid_arg "Dense.set_bounds: lower bound must be finite";
  if up < lo then invalid_arg "Dense.set_bounds: up < lo";
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
  p.cache <- None

type solution = { objective : float; values : float array }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit
  | Cutoff

let nonbasic_value st j =
  match st.status.(j) with
  | At_lo -> st.slo.(j)
  | At_up -> st.sup.(j)
  | Basic r -> st.xb.(r)

let recompute_zrow st =
  for j = 0 to st.ncols - 1 do
    st.zrow.(j) <- st.cost.(j)
  done;
  for i = 0 to st.m - 1 do
    let cb = st.cost.(st.basis.(i)) in
    if cb <> 0.0 then begin
      let row = st.tab.(i) in
      for j = 0 to st.ncols - 1 do
        st.zrow.(j) <- st.zrow.(j) -. (cb *. row.(j))
      done
    end
  done;
  Array.iter (fun b -> st.zrow.(b) <- 0.0) st.basis

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

type step = Moved of float | No_entering | Unbounded_dir

let pivot_tol = 1e-9

let pivot_tableau st r e =
  let prow = st.tab.(r) in
  let piv = prow.(e) in
  for j = 0 to st.ncols - 1 do
    prow.(j) <- prow.(j) /. piv
  done;
  st.bcol.(r) <- st.bcol.(r) /. piv;
  for i = 0 to st.m - 1 do
    if i <> r then begin
      let f = st.tab.(i).(e) in
      if f <> 0.0 then begin
        let row = st.tab.(i) in
        for j = 0 to st.ncols - 1 do
          row.(j) <- row.(j) -. (f *. prow.(j))
        done;
        st.bcol.(i) <- st.bcol.(i) -. (f *. st.bcol.(r))
      end
    end
  done;
  let zf = st.zrow.(e) in
  if zf <> 0.0 then
    for j = 0 to st.ncols - 1 do
      st.zrow.(j) <- st.zrow.(j) -. (zf *. prow.(j))
    done;
  st.zrow.(e) <- 0.0

let simplex_step st ~eps ~bland ~allow =
  let e = price st ~eps ~bland ~allow in
  if e < 0 then No_entering
  else begin
    let d = match st.status.(e) with At_up -> -1.0 | At_lo | Basic _ -> 1.0 in
    let t_limit = ref (st.sup.(e) -. st.slo.(e)) in
    let leaving = ref (-1) in
    let leaving_to_up = ref false in
    for i = 0 to st.m - 1 do
      let coef = st.tab.(i).(e) in
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
    if Float.is_finite !t_limit then begin
      let t = max !t_limit 0.0 in
      for i = 0 to st.m - 1 do
        let coef = st.tab.(i).(e) in
        if coef <> 0.0 then st.xb.(i) <- st.xb.(i) -. (d *. t *. coef)
      done;
      if !leaving < 0 then begin
        st.status.(e) <- (match st.status.(e) with At_lo -> At_up | _ -> At_lo);
        Moved t
      end
      else begin
        let r = !leaving in
        let out = st.basis.(r) in
        let enter_value =
          (match st.status.(e) with At_up -> st.sup.(e) | _ -> st.slo.(e))
          +. (d *. t)
        in
        pivot_tableau st r e;
        st.basis.(r) <- e;
        st.status.(e) <- Basic r;
        st.status.(out) <- (if !leaving_to_up then At_up else At_lo);
        st.xb.(r) <- enter_value;
        Moved t
      end
    end
    else Unbounded_dir
  end

let optimize st ~eps ~allow ~ctr ~phase1 iters_left =
  let degenerate_run = ref 0 in
  let bland = ref false in
  let rec loop () =
    if !iters_left <= 0 then `Iter_limit
    else begin
      decr iters_left;
      match simplex_step st ~eps ~bland:!bland ~allow with
      | No_entering -> `Optimal
      | Unbounded_dir -> `Unbounded
      | Moved t ->
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

let cold_solve ~eps ~max_iters p =
  p.ctr.c_cold <- p.ctr.c_cold + 1;
  let rows = Array.of_list (List.rev p.rows) in
  let m = Array.length rows in
  let n_slack =
    Array.fold_left
      (fun acc r -> match r.rel with Le | Ge -> acc + 1 | Eq -> acc)
      0 rows
  in
  let art0 = p.nv + n_slack in
  let slack_of = Array.make (max m 1) (-1) in
  let slack_idx = ref p.nv in
  Array.iteri
    (fun i r ->
      match r.rel with
      | Le | Ge ->
          slack_of.(i) <- !slack_idx;
          incr slack_idx
      | Eq -> ())
    rows;
  let residual = Array.make (max m 1) 0.0 in
  Array.iteri
    (fun i r ->
      let s = ref r.rhs in
      List.iter (fun (j, c) -> s := !s -. (c *. p.lo.(j))) r.terms;
      residual.(i) <- !s)
    rows;
  let needs_artificial i =
    match rows.(i).rel with
    | Le -> residual.(i) < 0.0
    | Ge -> residual.(i) > 0.0
    | Eq -> true
  in
  let art_of = Array.make (max m 1) (-1) in
  let n_art = ref 0 in
  for i = 0 to m - 1 do
    if needs_artificial i then begin
      art_of.(i) <- art0 + !n_art;
      incr n_art
    end
  done;
  let n_art = !n_art in
  let ncols = art0 + n_art in
  let dense = Array.make_matrix m ncols 0.0 in
  let rhsv = Array.init (max m 1) (fun i -> if i < m then rows.(i).rhs else 0.0) in
  let slo = Array.make ncols 0.0 in
  let sup = Array.make ncols infinity in
  Array.blit p.lo 0 slo 0 p.nv;
  Array.blit p.up 0 sup 0 p.nv;
  Array.iteri
    (fun i r -> List.iter (fun (j, c) -> dense.(i).(j) <- dense.(i).(j) +. c) r.terms)
    rows;
  Array.iteri
    (fun i r ->
      match r.rel with
      | Le -> dense.(i).(slack_of.(i)) <- 1.0
      | Ge -> dense.(i).(slack_of.(i)) <- -1.0
      | Eq -> ())
    rows;
  let status = Array.make ncols At_lo in
  let basis = Array.make (max m 1) 0 in
  let xb = Array.make (max m 1) 0.0 in
  let negate_row i =
    for j = 0 to ncols - 1 do
      dense.(i).(j) <- -.dense.(i).(j)
    done;
    rhsv.(i) <- -.rhsv.(i)
  in
  for i = 0 to m - 1 do
    if art_of.(i) >= 0 then begin
      if residual.(i) < 0.0 then begin
        negate_row i;
        residual.(i) <- -.residual.(i)
      end;
      dense.(i).(art_of.(i)) <- 1.0;
      basis.(i) <- art_of.(i);
      xb.(i) <- residual.(i)
    end
    else begin
      (match rows.(i).rel with
      | Le -> xb.(i) <- residual.(i)
      | Ge ->
          negate_row i;
          xb.(i) <- -.residual.(i)
      | Eq -> assert false);
      basis.(i) <- slack_of.(i)
    end
  done;
  Array.iteri (fun i b -> if i < m then status.(b) <- Basic i) basis;
  let st =
    {
      m;
      ncols;
      tab = dense;
      bcol = Array.sub rhsv 0 (max m 1);
      xb;
      basis;
      status;
      slo;
      sup;
      zrow = Array.make ncols 0.0;
      cost = Array.make ncols 0.0;
      n_art;
    }
  in
  let iters_left = ref max_iters in
  if m = 0 then begin
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
    let phase1 =
      if n_art = 0 then `Optimal
      else begin
        for j = 0 to ncols - 1 do
          st.cost.(j) <- (if j >= art0 then 1.0 else 0.0)
        done;
        recompute_zrow st;
        optimize st ~eps ~allow:(fun _ -> true) ~ctr:p.ctr ~phase1:true iters_left
      end
    in
    match phase1 with
    | `Iter_limit -> Iter_limit
    | `Unbounded -> Infeasible
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
          for j = art0 to ncols - 1 do
            st.sup.(j) <- 0.0;
            match st.status.(j) with At_up -> st.status.(j) <- At_lo | _ -> ()
          done;
          for i = 0 to m - 1 do
            if st.basis.(i) >= art0 then begin
              let j = ref 0 in
              let found = ref (-1) in
              while !found < 0 && !j < art0 do
                (match st.status.(!j) with
                | Basic _ -> ()
                | At_lo | At_up ->
                    if Float.abs st.tab.(i).(!j) > 1e-6 then found := !j);
                incr j
              done;
              match !found with
              | -1 -> ()
              | e ->
                  let out = st.basis.(i) in
                  let entering_value = nonbasic_value st e in
                  pivot_tableau st i e;
                  st.basis.(i) <- e;
                  st.status.(e) <- Basic i;
                  st.status.(out) <- At_lo;
                  st.xb.(i) <- entering_value
            end
          done;
          for j = 0 to ncols - 1 do
            st.cost.(j) <- (if j < p.nv then p.obj.(j) else 0.0)
          done;
          recompute_zrow st;
          let allow j = j < art0 in
          match optimize st ~eps ~allow ~ctr:p.ctr ~phase1:false iters_left with
          | `Iter_limit -> Iter_limit
          | `Unbounded -> Unbounded
          | `Optimal ->
              p.cache <- Some { st; art0; warm_uses = 0 };
              final_solution p st
        end
  end

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
    Array.blit st.bcol 0 st.xb 0 st.m;
    for j = 0 to st.ncols - 1 do
      match st.status.(j) with
      | Basic _ -> ()
      | At_lo | At_up ->
          let v = nonbasic_value st j in
          if v <> 0.0 then
            for i = 0 to st.m - 1 do
              st.xb.(i) <- st.xb.(i) -. (st.tab.(i).(j) *. v)
            done
    done;
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
          let row = st.tab.(i) in
          let g = ref 1e-12 in
          for j = 0 to cache.art0 - 1 do
            if movable j then g := !g +. (row.(j) *. row.(j))
          done;
          let score = viol *. viol /. !g in
          if score > !best_score then begin
            r := i;
            best_score := score;
            to_up := up
          end
        end
      done;
      if !r < 0 then Some (final_solution p st)
      else if !iters <= 0 then None
      else begin
        decr iters;
        let r = !r in
        let to_up = !to_up in
        let out = st.basis.(r) in
        let bound = if to_up then st.sup.(out) else st.slo.(out) in
        let delta = st.xb.(r) -. bound in
        let e = ref (-1) in
        let best = ref infinity in
        let best_alpha = ref 0.0 in
        (try
           for j = 0 to cache.art0 - 1 do
             if movable j then begin
               let alpha = st.tab.(r).(j) in
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
               if eligible then begin
                 if !bland then begin
                   e := j;
                   raise Exit
                 end;
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
           done
         with Exit -> ());
        if !e < 0 then Some Infeasible
        else begin
          let e = !e in
          let alpha_e = st.tab.(r).(e) in
          let t = delta /. alpha_e in
          let dz = st.zrow.(e) *. t in
          p.ctr.c_dual <- p.ctr.c_dual + 1;
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
          | Some c when !z > c +. 1e-9 -> Some Cutoff
          | _ ->
              let enter_value = nonbasic_value st e +. t in
              for i = 0 to st.m - 1 do
                if i <> r then begin
                  let coef = st.tab.(i).(e) in
                  if coef <> 0.0 then st.xb.(i) <- st.xb.(i) -. (coef *. t)
                end
              done;
              pivot_tableau st r e;
              st.basis.(r) <- e;
              st.status.(e) <- Basic r;
              st.status.(out) <- (if to_up then At_up else At_lo);
              st.xb.(r) <- enter_value;
              loop ()
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
          match warm_solve ~eps ~max_iters ?cutoff p c with
          | Some r ->
              c.warm_uses <- c.warm_uses + 1;
              p.ctr.c_warm <- p.ctr.c_warm + 1;
              Some r
          | None -> None)
      | _ -> None
  in
  match warm_result with
  | Some r -> r
  | None -> cold_solve ~eps ~max_iters p
