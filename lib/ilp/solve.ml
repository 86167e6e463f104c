module Simplex = Thr_lp.Simplex
module Metrics = Thr_obs.Metrics
module Trace = Thr_obs.Trace

let m_nodes = Metrics.counter "bb_nodes_total"
let m_incumbents = Metrics.counter "bb_incumbents_total"

type solution = { objective : float; values : int array }

let value s v = s.values.(Model.var_index v)

type outcome =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Budget of solution option

type stats = {
  nodes : int;
  lp_solves : int;
  cover_cuts : int;
  clique_cuts : int;
  cut_rounds : int;
  simplex : Simplex.stats;
}

let total_pivots st = Simplex.total_pivots st.simplex

let pp_outcome ppf = function
  | Optimal s -> Format.fprintf ppf "optimal (objective %g)" s.objective
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Unbounded -> Format.pp_print_string ppf "unbounded"
  | Budget (Some s) ->
      Format.fprintf ppf "budget exhausted (incumbent %g)" s.objective
  | Budget None -> Format.pp_print_string ppf "budget exhausted (no incumbent)"

let build_lp m =
  let nv = Model.n_vars m in
  let p = Simplex.create ~n_vars:nv in
  for v = 0 to nv - 1 do
    let lo, up = Model.var_bounds m (Model.var_of_index m v) in
    Simplex.set_bounds p v ~lo:(float_of_int lo) ~up:(float_of_int up)
  done;
  Model.iter_constraints m (fun terms rel rhs ->
      let terms = List.map (fun (c, v) -> (Model.var_index v, c)) terms in
      Simplex.add_constraint p terms rel rhs);
  Simplex.set_objective p
    (List.map (fun (c, v) -> (Model.var_index v, c)) (Model.objective_terms m));
  p

(* Pick the integer variable whose LP value is farthest from integral,
   restricted to [filter] when it selects anything fractional. *)
let most_fractional ~eps ?filter values =
  let candidate j =
    match filter with None -> true | Some f -> f.(j)
  in
  let scan ~restricted =
    let best = ref (-1) in
    let best_frac = ref eps in
    Array.iteri
      (fun j v ->
        if (not restricted) || candidate j then begin
          let frac = Float.abs (v -. Float.round v) in
          if frac > !best_frac then begin
            best := j;
            best_frac := frac
          end
        end)
      values;
    !best
  in
  match filter with
  | None -> scan ~restricted:false
  | Some _ ->
      let j = scan ~restricted:true in
      if j >= 0 then j else scan ~restricted:false

(* separation/re-solve rounds of the root cutting-plane loop *)
let max_cut_rounds = 8

let solve ?(max_nodes = 100_000) ?(eps = 1e-6) ?priority ?(warm = true)
    ?(cuts = true) ?(dive = true)
    ?(should_stop = fun () -> false) m =
  let nv = Model.n_vars m in
  let filter =
    match priority with
    | None -> None
    | Some vars ->
        let f = Array.make nv false in
        List.iter (fun v -> f.(Model.var_index v) <- true) vars;
        Some f
  in
  let lp = build_lp m in
  let base_lo = Array.init nv (fun v -> fst (Model.var_bounds m (Model.var_of_index m v))) in
  let base_up = Array.init nv (fun v -> snd (Model.var_bounds m (Model.var_of_index m v))) in
  let nodes = ref 0 in
  let lp_solves = ref 0 in
  let incumbent = ref None in
  let incumbent_obj = ref infinity in
  let hit_budget = ref false in
  let saw_unbounded = ref false in
  let n_cover = ref 0 in
  let n_clique = ref 0 in
  let n_rounds = ref 0 in
  let cut_state = if cuts then Some (Cuts.prepare m) else None in
  (* Root cutting-plane loop: separate clique/cover cuts against the
     fractional root optimum, append them to the shared LP (they are
     valid for every integer point, hence at every node) and re-solve
     until no violated cut remains or the round budget is spent. *)
  let rec tighten_root sol round =
    match cut_state with
    | None -> sol
    | Some cs ->
        if round >= max_cut_rounds then sol
        else begin
          match Cuts.separate cs sol.Simplex.values with
          | [] -> sol
          | found ->
              List.iter
                (fun c ->
                  (match c.Cuts.kind with
                  | Cuts.Cover -> incr n_cover
                  | Cuts.Clique -> incr n_clique);
                  Simplex.add_constraint lp c.Cuts.terms Simplex.Le c.Cuts.rhs)
                found;
              incr n_rounds;
              incr lp_solves;
              (match Simplex.solve ~warm:false lp with
              | Simplex.Optimal sol' ->
                  if most_fractional ~eps ?filter sol'.Simplex.values >= 0 then
                    tighten_root sol' (round + 1)
                  else sol'
              | _ -> sol (* numeric trouble: keep the uncut vertex *))
        end
  in
  (* Rounding dive: from the root optimum, repeatedly fix the most
     fractional integer variable to its nearest integer and re-solve,
     until the relaxation is integral or a dead end.  An integral
     endpoint is a feasible point whose objective arms the cutoff for
     the whole DFS — every later node prunes against it, and the warm
     path skips its pre-incumbent cold refactorisations (see below).
     The dive mutates the shared LP's bounds freely: every DFS node
     re-applies its own bound vector on entry. *)
  let record_incumbent values_f =
    let values =
      Array.map (fun v -> int_of_float (Float.round v)) values_f
    in
    let objective = Model.eval_objective m values in
    if objective < !incumbent_obj -. 1e-9 then begin
      incumbent := Some { objective; values };
      incumbent_obj := objective;
      Metrics.incr m_incumbents;
      if Trace.enabled () then
        Trace.instant "bb.incumbent"
          ~args:
            [
              ("objective", Printf.sprintf "%g" objective);
              ("node", string_of_int !nodes);
            ]
          ()
    end
  in
  let run_dive root_sol =
    (* Dive steps solve cold even in warm mode: warm dual re-solves land
       on different (more fractional) alternate optima, which sends the
       two modes down different dive paths — some of which dead-end.
       Solving cold keeps the dive deterministic across modes, so warm
       and cold runs start the DFS from the same incumbent. *)
    let rec step sol depth =
      let j = most_fractional ~eps ?filter sol.Simplex.values in
      if j < 0 then record_incumbent sol.Simplex.values
      else if depth < 100 && not (should_stop ()) then begin
        let x = sol.Simplex.values.(j) in
        let r = Float.round x in
        let fix v =
          Simplex.set_bounds lp j ~lo:v ~up:v;
          incr lp_solves;
          Simplex.solve ~warm:false lp
        in
        match fix r with
        | Simplex.Optimal sol' -> step sol' (depth + 1)
        | _ -> (
            (* rounding to the nearer integer hit a dead end — the LP's
               feasible interval for a variable need not contain an
               integer once earlier fixings bind — so try the other
               side once before abandoning the dive *)
            let r' = if r > x then floor x else ceil x in
            match fix r' with
            | Simplex.Optimal sol' -> step sol' (depth + 1)
            | _ -> () (* dead end: the DFS starts without an incumbent *))
      end
    in
    step root_sol 0
  in
  (* DFS over (lo, up) bound overrides.  Each node re-solves the shared
     LP warm from the basis left by the previous node (a sibling or the
     parent), and aborts early once the relaxation provably exceeds the
     incumbent. *)
  let rec explore lo up =
    if !nodes >= max_nodes then hit_budget := true
    else if should_stop () then hit_budget := true
    else begin
      incr nodes;
      Metrics.incr m_nodes;
      for v = 0 to nv - 1 do
        Simplex.set_bounds lp v ~lo:(float_of_int lo.(v)) ~up:(float_of_int up.(v))
      done;
      incr lp_solves;
      let cutoff =
        if Float.is_finite !incumbent_obj then Some (!incumbent_obj -. 1e-9)
        else None
      in
      let warm_before = (Simplex.stats lp).Simplex.warm_solves in
      match Simplex.solve ?cutoff ~warm lp with
      | Simplex.Infeasible -> ()
      | Simplex.Cutoff -> () (* relaxation above incumbent: prune *)
      | Simplex.Iter_limit -> hit_budget := true
      | Simplex.Unbounded -> saw_unbounded := true
      | Simplex.Optimal sol ->
          if sol.Simplex.objective < !incumbent_obj -. 1e-9 then begin
            (* A warm dual re-solve settles pruning cheaply, but among
               alternate LP optima it lands on different (more fractional)
               vertices than the cold path, which derails most-fractional
               branching — on symmetric instances badly enough to blow the
               tree up by orders of magnitude.  For a surviving fractional
               node, refactorise cold so branching sees the same vertex as
               the cold baseline; pruned/integral nodes (the vast majority
               once an incumbent arms the cutoff) keep the cheap result. *)
            let sol =
              let warm_used =
                (Simplex.stats lp).Simplex.warm_solves > warm_before
              in
              if
                warm_used
                && most_fractional ~eps ?filter sol.Simplex.values >= 0
              then begin
                Simplex.forget lp;
                incr lp_solves;
                match Simplex.solve ~warm:false lp with
                | Simplex.Optimal cold_sol -> cold_sol
                | _ -> sol (* numeric hiccup: keep the warm vertex *)
              end
              else sol
            in
            let sol = if !nodes = 1 then tighten_root sol 0 else sol in
            let branch_var = most_fractional ~eps ?filter sol.Simplex.values in
            if dive && branch_var >= 0 && !nodes = 1 then run_dive sol;
            if branch_var < 0 then
              (* integral: new incumbent *)
              record_incumbent sol.Simplex.values
            else begin
              let x = sol.Simplex.values.(branch_var) in
              let fl = int_of_float (floor x) in
              let down_up = Array.copy up in
              down_up.(branch_var) <- fl;
              let up_lo = Array.copy lo in
              up_lo.(branch_var) <- fl + 1;
              (* explore the side nearer the fractional value first *)
              if x -. floor x <= 0.5 then begin
                explore lo down_up;
                explore up_lo up
              end
              else begin
                explore up_lo up;
                explore lo down_up
              end
            end
          end
    end
  in
  explore base_lo base_up;
  let stats =
    {
      nodes = !nodes;
      lp_solves = !lp_solves;
      cover_cuts = !n_cover;
      clique_cuts = !n_clique;
      cut_rounds = !n_rounds;
      simplex = Simplex.stats lp;
    }
  in
  let outcome =
    if !hit_budget then Budget !incumbent
    else
      match !incumbent with
      | Some s -> Optimal s
      | None -> if !saw_unbounded then Unbounded else Infeasible
  in
  (outcome, stats)
