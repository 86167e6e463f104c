(* Tests for the bounded-variable simplex. *)

module S = Thr_lp.Simplex

let check_optimal ?(eps = 1e-6) name expected result =
  match result with
  | S.Optimal s ->
      Alcotest.(check (float eps)) name expected s.S.objective
  | r -> Alcotest.fail (Format.asprintf "%s: %a" name S.pp_result r)

let test_textbook_max () =
  (* max 3x+5y st x<=4, 2y<=12, 3x+2y<=18 -> 36 at (2,6) *)
  let p = S.create ~n_vars:2 in
  S.set_objective p [ (0, -3.0); (1, -5.0) ];
  S.add_constraint p [ (0, 1.0) ] S.Le 4.0;
  S.add_constraint p [ (1, 2.0) ] S.Le 12.0;
  S.add_constraint p [ (0, 3.0); (1, 2.0) ] S.Le 18.0;
  (match S.solve p with
  | S.Optimal s ->
      Alcotest.(check (float 1e-6)) "objective" (-36.0) s.S.objective;
      Alcotest.(check (float 1e-6)) "x" 2.0 s.S.values.(0);
      Alcotest.(check (float 1e-6)) "y" 6.0 s.S.values.(1)
  | r -> Alcotest.fail (Format.asprintf "%a" S.pp_result r))

let test_equality_system () =
  (* x+y=3, x-y=1 -> unique point (2,1) *)
  let p = S.create ~n_vars:2 in
  S.set_objective p [ (0, 1.0); (1, 1.0) ];
  S.add_constraint p [ (0, 1.0); (1, 1.0) ] S.Eq 3.0;
  S.add_constraint p [ (0, 1.0); (1, -1.0) ] S.Eq 1.0;
  check_optimal "objective" 3.0 (S.solve p)

let test_infeasible () =
  let p = S.create ~n_vars:1 in
  S.add_constraint p [ (0, 1.0) ] S.Ge 5.0;
  S.add_constraint p [ (0, 1.0) ] S.Le 2.0;
  (match S.solve p with
  | S.Infeasible -> ()
  | r -> Alcotest.fail (Format.asprintf "expected infeasible: %a" S.pp_result r))

let test_unbounded () =
  let p = S.create ~n_vars:1 in
  S.set_objective p [ (0, -1.0) ];
  S.add_constraint p [ (0, 1.0) ] S.Ge 0.0;
  (match S.solve p with
  | S.Unbounded -> ()
  | r -> Alcotest.fail (Format.asprintf "expected unbounded: %a" S.pp_result r))

let test_upper_bounds () =
  (* min -(x+y), x,y in [0,1], x+y <= 1.5 -> -1.5 *)
  let p = S.create ~n_vars:2 in
  S.set_bounds p 0 ~lo:0.0 ~up:1.0;
  S.set_bounds p 1 ~lo:0.0 ~up:1.0;
  S.set_objective p [ (0, -1.0); (1, -1.0) ];
  S.add_constraint p [ (0, 1.0); (1, 1.0) ] S.Le 1.5;
  check_optimal "objective" (-1.5) (S.solve p)

let test_negative_lower_bounds () =
  (* min x, x in [-3, 5], x >= -2 -> -2 *)
  let p = S.create ~n_vars:1 in
  S.set_bounds p 0 ~lo:(-3.0) ~up:5.0;
  S.set_objective p [ (0, 1.0) ];
  S.add_constraint p [ (0, 1.0) ] S.Ge (-2.0);
  check_optimal "objective" (-2.0) (S.solve p)

let test_no_constraints_bounded () =
  let p = S.create ~n_vars:2 in
  S.set_bounds p 0 ~lo:0.0 ~up:2.0;
  S.set_bounds p 1 ~lo:1.0 ~up:3.0;
  S.set_objective p [ (0, -1.0); (1, 1.0) ];
  check_optimal "objective" (-1.0) (S.solve p)

let test_no_constraints_unbounded () =
  let p = S.create ~n_vars:1 in
  S.set_objective p [ (0, -1.0) ];
  (match S.solve p with
  | S.Unbounded -> ()
  | r -> Alcotest.fail (Format.asprintf "expected unbounded: %a" S.pp_result r))

let test_degenerate_lp () =
  (* multiple redundant constraints through one vertex *)
  let p = S.create ~n_vars:2 in
  S.set_objective p [ (0, -1.0); (1, -1.0) ];
  S.add_constraint p [ (0, 1.0); (1, 1.0) ] S.Le 2.0;
  S.add_constraint p [ (0, 2.0); (1, 2.0) ] S.Le 4.0;
  S.add_constraint p [ (0, 1.0) ] S.Le 2.0;
  S.add_constraint p [ (1, 1.0) ] S.Le 2.0;
  check_optimal "objective" (-2.0) (S.solve p)

let test_ge_constraints () =
  (* min 2x+3y st x+y>=4, x>=1, y>=0 -> x=4,y=0 obj 8 *)
  let p = S.create ~n_vars:2 in
  S.set_objective p [ (0, 2.0); (1, 3.0) ];
  S.add_constraint p [ (0, 1.0); (1, 1.0) ] S.Ge 4.0;
  S.add_constraint p [ (0, 1.0) ] S.Ge 1.0;
  check_optimal "objective" 8.0 (S.solve p)

let test_set_bounds_validation () =
  let p = S.create ~n_vars:1 in
  Alcotest.check_raises "infinite lower"
    (Invalid_argument "Simplex.set_bounds: lower bound must be finite") (fun () ->
      S.set_bounds p 0 ~lo:neg_infinity ~up:1.0);
  Alcotest.check_raises "inverted"
    (Invalid_argument "Simplex.set_bounds: up < lo") (fun () ->
      S.set_bounds p 0 ~lo:2.0 ~up:1.0)

let test_resolve_after_mutation () =
  (* the same problem object can be tightened and re-solved *)
  let p = S.create ~n_vars:1 in
  S.set_bounds p 0 ~lo:0.0 ~up:10.0;
  S.set_objective p [ (0, -1.0) ];
  check_optimal "first" (-10.0) (S.solve p);
  S.set_bounds p 0 ~lo:0.0 ~up:4.0;
  check_optimal "tightened" (-4.0) (S.solve p);
  S.add_constraint p [ (0, 1.0) ] S.Le 2.0;
  check_optimal "constrained" (-2.0) (S.solve p)

(* Property: on random LPs built around a known feasible point, the simplex
   (a) declares optimality with a feasible solution, and (b) achieves an
   objective no worse than the known point. *)
let random_lp_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* m = int_range 1 8 in
    let* x_star = list_repeat n (float_range 0.0 5.0) in
    let* rows =
      list_repeat m (pair (list_repeat n (float_range (-3.0) 3.0)) (float_range 0.0 4.0))
    in
    let* obj = list_repeat n (float_range (-2.0) 2.0) in
    return (n, Array.of_list x_star, rows, obj))

let random_lp_prop =
  QCheck.Test.make ~name:"random feasible LPs solve optimally" ~count:300
    (QCheck.make random_lp_gen)
    (fun (n, x_star, rows, obj) ->
      let p = S.create ~n_vars:n in
      for j = 0 to n - 1 do
        S.set_bounds p j ~lo:0.0 ~up:10.0
      done;
      S.set_objective p (List.mapi (fun j c -> (j, c)) obj);
      List.iter
        (fun (coefs, slack) ->
          let terms = List.mapi (fun j c -> (j, c)) coefs in
          let lhs_star =
            List.fold_left (fun acc (j, c) -> acc +. (c *. x_star.(j))) 0.0 terms
          in
          S.add_constraint p terms S.Le (lhs_star +. slack))
        rows;
      match S.solve p with
      | S.Optimal s ->
          let star_obj =
            List.fold_left
              (fun acc (j, c) -> acc +. (c *. x_star.(j)))
              0.0
              (List.mapi (fun j c -> (j, c)) obj)
          in
          (* solution feasible (within tolerance) and at least as good *)
          let feasible =
            List.for_all
              (fun (coefs, slack) ->
                let terms = List.mapi (fun j c -> (j, c)) coefs in
                let lhs =
                  List.fold_left
                    (fun acc (j, c) -> acc +. (c *. s.S.values.(j)))
                    0.0 terms
                in
                let lhs_star =
                  List.fold_left
                    (fun acc (j, c) -> acc +. (c *. x_star.(j)))
                    0.0 terms
                in
                lhs <= lhs_star +. slack +. 1e-5)
              rows
            && Array.for_all (fun v -> v >= -1e-7 && v <= 10.0 +. 1e-7) s.S.values
          in
          feasible && s.S.objective <= star_obj +. 1e-5
      | S.Infeasible -> false (* x_star is feasible by construction *)
      | S.Unbounded -> false (* variables are boxed *)
      | S.Iter_limit | S.Cutoff -> false)

(* Property: warm re-solves after random bound tightenings agree with a
   freshly built cold problem — same feasibility verdict, objectives within
   1e-6. *)
let warm_vs_cold_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* m = int_range 1 8 in
    let* x_star = list_repeat n (float_range 0.0 5.0) in
    let* rows =
      list_repeat m
        (pair (list_repeat n (float_range (-3.0) 3.0)) (float_range 0.0 4.0))
    in
    let* obj = list_repeat n (float_range (-2.0) 2.0) in
    (* three rounds of bound adjustments: (var, lo, width) triples *)
    let* tweaks =
      list_repeat 3
        (list_repeat n (pair (float_range 0.0 4.0) (float_range 0.0 6.0)))
    in
    return (n, Array.of_list x_star, rows, obj, tweaks))

let build_lp n x_star rows obj =
  let p = S.create ~n_vars:n in
  for j = 0 to n - 1 do
    S.set_bounds p j ~lo:0.0 ~up:10.0
  done;
  S.set_objective p (List.mapi (fun j c -> (j, c)) obj);
  List.iter
    (fun (coefs, slack) ->
      let terms = List.mapi (fun j c -> (j, c)) coefs in
      let lhs_star =
        List.fold_left (fun acc (j, c) -> acc +. (c *. x_star.(j))) 0.0 terms
      in
      S.add_constraint p terms S.Le (lhs_star +. slack))
    rows;
  p

let warm_vs_cold_prop =
  QCheck.Test.make ~name:"warm re-solves agree with cold solves" ~count:100
    (QCheck.make warm_vs_cold_gen)
    (fun (n, x_star, rows, obj, tweaks) ->
      let warm_p = build_lp n x_star rows obj in
      (* first solve populates the basis cache *)
      let _ = S.solve warm_p in
      List.for_all
        (fun round ->
          let bounds =
            List.mapi
              (fun j (lo, width) -> (j, lo, min 10.0 (lo +. width)))
              round
          in
          List.iter (fun (j, lo, up) -> S.set_bounds warm_p j ~lo ~up) bounds;
          let cold_p = build_lp n x_star rows obj in
          List.iter (fun (j, lo, up) -> S.set_bounds cold_p j ~lo ~up) bounds;
          match (S.solve warm_p, S.solve ~warm:false cold_p) with
          | S.Optimal w, S.Optimal c ->
              Float.abs (w.S.objective -. c.S.objective) <= 1e-6
          | S.Infeasible, S.Infeasible -> true
          | S.Unbounded, S.Unbounded -> true
          | _ -> false)
        tweaks)

(* Property: the LU-factorised revised simplex and the retained dense-tableau
   oracle ({!Dense}, kept next to this file) agree on every random LP — same status
   constructor, objectives within 1e-9 (relative) — including warm re-solves
   of the LU engine after bound perturbations, checked against a freshly
   built dense solve.  Unlike [random_lp_prop] the instances here are not
   anchored to a feasible point: mixed relations, signed right-hand sides
   and occasionally-unbounded variables make Infeasible and Unbounded
   outcomes reachable, so all three statuses are exercised. *)
module D = Dense

let engine_equiv_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* m = int_range 0 8 in
    let* bounds =
      list_repeat n
        (triple (float_range (-2.0) 2.0) (float_range 0.0 8.0) bool)
    in
    let* rows =
      list_repeat m
        (triple
           (list_repeat n (float_range (-3.0) 3.0))
           (int_range 0 2)
           (float_range (-5.0) 5.0))
    in
    let* obj = list_repeat n (float_range (-2.0) 2.0) in
    let* tweaks =
      list_repeat 2
        (list_repeat n (pair (float_range (-2.0) 3.0) (float_range 0.0 6.0)))
    in
    return (n, bounds, rows, obj, tweaks))

let engine_equiv_prop =
  QCheck.Test.make ~name:"LU engine agrees with dense oracle" ~count:300
    (QCheck.make engine_equiv_gen)
    (fun (n, bounds, rows, obj, tweaks) ->
      let rel_s = function 0 -> S.Le | 1 -> S.Ge | _ -> S.Eq in
      let rel_d r = (rel_s r : D.relation) in
      let apply_bounds set =
        List.iteri
          (fun j (lo, width, unbounded) ->
            let up = if unbounded then Float.infinity else lo +. width in
            set j ~lo ~up)
          bounds
      in
      let build_s () =
        let p = S.create ~n_vars:n in
        apply_bounds (S.set_bounds p);
        S.set_objective p (List.mapi (fun j c -> (j, c)) obj);
        List.iter
          (fun (coefs, r, rhs) ->
            S.add_constraint p (List.mapi (fun j c -> (j, c)) coefs) (rel_s r) rhs)
          rows;
        p
      in
      let build_d () =
        let p = D.create ~n_vars:n in
        apply_bounds (D.set_bounds p);
        D.set_objective p (List.mapi (fun j c -> (j, c)) obj);
        List.iter
          (fun (coefs, r, rhs) ->
            D.add_constraint p (List.mapi (fun j c -> (j, c)) coefs) (rel_d r) rhs)
          rows;
        p
      in
      let agree rs rd =
        match (rs, rd) with
        | S.Optimal s, D.Optimal d ->
            Float.abs (s.S.objective -. d.D.objective)
            <= 1e-9 *. (1.0 +. Float.abs d.D.objective)
        | S.Infeasible, D.Infeasible -> true
        | S.Unbounded, D.Unbounded -> true
        | _ -> false
      in
      let sp = build_s () in
      agree (S.solve sp) (D.solve (build_d ()))
      && List.for_all
           (fun round ->
             let new_bounds =
               List.mapi
                 (fun j (lo, width) -> (j, lo, lo +. width))
                 round
             in
             (* warm LU re-solve vs a freshly built dense cold solve *)
             List.iter (fun (j, lo, up) -> S.set_bounds sp j ~lo ~up) new_bounds;
             let dp = build_d () in
             List.iter (fun (j, lo, up) -> D.set_bounds dp j ~lo ~up) new_bounds;
             agree (S.solve sp) (D.solve ~warm:false dp))
           tweaks)

let test_warm_cutoff () =
  (* min -x, x in [0,10]: optimum -10.  After tightening to [0,4] the warm
     optimum is -4; a cutoff below that (-6) must abort with Cutoff. *)
  let p = S.create ~n_vars:2 in
  S.set_bounds p 0 ~lo:0.0 ~up:10.0;
  S.set_bounds p 1 ~lo:0.0 ~up:10.0;
  S.set_objective p [ (0, -1.0); (1, -1.0) ];
  S.add_constraint p [ (0, 1.0); (1, 1.0) ] S.Le 12.0;
  check_optimal "initial" (-12.0) (S.solve p);
  S.set_bounds p 0 ~lo:0.0 ~up:2.0;
  S.set_bounds p 1 ~lo:0.0 ~up:2.0;
  (match S.solve ~cutoff:(-6.0) p with
  | S.Cutoff -> ()
  | r -> Alcotest.fail (Format.asprintf "expected cutoff: %a" S.pp_result r));
  (* without the cutoff the warm re-solve reaches the true optimum *)
  check_optimal "tightened" (-4.0) (S.solve p);
  let st = S.stats p in
  Alcotest.(check bool) "warm solves counted" true (st.S.warm_solves >= 1);
  Alcotest.(check bool) "cold solves counted" true (st.S.cold_solves >= 1)

let test_forget_forces_cold () =
  let p = S.create ~n_vars:1 in
  S.set_bounds p 0 ~lo:0.0 ~up:5.0;
  S.set_objective p [ (0, -1.0) ];
  S.add_constraint p [ (0, 1.0) ] S.Le 8.0;
  check_optimal "first" (-5.0) (S.solve p);
  S.forget p;
  S.set_bounds p 0 ~lo:0.0 ~up:3.0;
  check_optimal "after forget" (-3.0) (S.solve p);
  let st = S.stats p in
  Alcotest.(check int) "no warm solves" 0 st.S.warm_solves;
  Alcotest.(check int) "two cold solves" 2 st.S.cold_solves

let test_iter_limit () =
  (* a tiny iteration cap cannot finish a non-trivial LP *)
  let p = S.create ~n_vars:6 in
  S.set_objective p (List.init 6 (fun j -> (j, -1.0 -. float_of_int j)));
  for j = 0 to 5 do
    S.set_bounds p j ~lo:0.0 ~up:10.0
  done;
  for i = 0 to 5 do
    S.add_constraint p (List.init 6 (fun j -> (j, float_of_int ((i + j) mod 3 + 1)))) S.Le 7.0
  done;
  match S.solve ~max_iters:1 p with
  | S.Iter_limit -> ()
  | S.Optimal _ -> () (* crash basis may already be optimal; fine *)
  | r -> Alcotest.fail (Format.asprintf "unexpected: %a" S.pp_result r)

let test_duplicate_terms_summed () =
  (* 1x + 1x <= 4  ==  2x <= 4 *)
  let p = S.create ~n_vars:1 in
  S.set_objective p [ (0, -1.0) ];
  S.add_constraint p [ (0, 1.0); (0, 1.0) ] S.Le 4.0;
  check_optimal "objective" (-2.0) (S.solve p)

let test_negative_rhs_le_needs_artificial () =
  (* x1 + x2 <= -1 is infeasible with nonnegative variables: exercises the
     artificial-column path of the crash basis *)
  let p = S.create ~n_vars:2 in
  S.add_constraint p [ (0, 1.0); (1, 1.0) ] S.Le (-1.0);
  (match S.solve p with
  | S.Infeasible -> ()
  | r -> Alcotest.fail (Format.asprintf "expected infeasible: %a" S.pp_result r));
  (* and a feasible variant with negative lower bounds *)
  let p2 = S.create ~n_vars:2 in
  S.set_bounds p2 0 ~lo:(-5.0) ~up:5.0;
  S.set_bounds p2 1 ~lo:(-5.0) ~up:5.0;
  S.set_objective p2 [ (0, 1.0); (1, 1.0) ];
  S.add_constraint p2 [ (0, 1.0); (1, 1.0) ] S.Le (-1.0);
  check_optimal "objective" (-10.0) (S.solve p2)

let test_mixed_relations () =
  (* min x+y st x+y>=2, x-y=0.5, y<=3 -> x=1.25,y=0.75 obj 2 *)
  let p = S.create ~n_vars:2 in
  S.set_objective p [ (0, 1.0); (1, 1.0) ];
  S.add_constraint p [ (0, 1.0); (1, 1.0) ] S.Ge 2.0;
  S.add_constraint p [ (0, 1.0); (1, -1.0) ] S.Eq 0.5;
  S.add_constraint p [ (1, 1.0) ] S.Le 3.0;
  check_optimal "objective" 2.0 (S.solve p)

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "equality system" `Quick test_equality_system;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "upper bounds" `Quick test_upper_bounds;
          Alcotest.test_case "negative lower bounds" `Quick test_negative_lower_bounds;
          Alcotest.test_case "no constraints bounded" `Quick test_no_constraints_bounded;
          Alcotest.test_case "no constraints unbounded" `Quick
            test_no_constraints_unbounded;
          Alcotest.test_case "degenerate" `Quick test_degenerate_lp;
          Alcotest.test_case "ge constraints" `Quick test_ge_constraints;
          Alcotest.test_case "bounds validation" `Quick test_set_bounds_validation;
          Alcotest.test_case "re-solve after mutation" `Quick test_resolve_after_mutation;
          QCheck_alcotest.to_alcotest random_lp_prop;
          QCheck_alcotest.to_alcotest warm_vs_cold_prop;
          QCheck_alcotest.to_alcotest engine_equiv_prop;
          Alcotest.test_case "warm cutoff" `Quick test_warm_cutoff;
          Alcotest.test_case "forget forces cold" `Quick test_forget_forces_cold;
          Alcotest.test_case "iteration limit" `Quick test_iter_limit;
          Alcotest.test_case "duplicate terms" `Quick test_duplicate_terms_summed;
          Alcotest.test_case "negative rhs / artificials" `Quick
            test_negative_rhs_le_needs_artificial;
          Alcotest.test_case "mixed relations" `Quick test_mixed_relations;
        ] );
    ]
