(* Tests for the ILP modelling layer and branch-and-bound solver. *)

module Model = Thr_ilp.Model
module Solve = Thr_ilp.Solve

let test_knapsack () =
  let m = Model.create () in
  let a = Model.add_bool m and b = Model.add_bool m in
  let c = Model.add_bool m and d = Model.add_bool m in
  Model.add_le m [ (5.0, a); (7.0, b); (4.0, c); (3.0, d) ] 14.0;
  Model.set_objective m [ (-8.0, a); (-11.0, b); (-6.0, c); (-4.0, d) ];
  match Solve.solve m with
  | Solve.Optimal s, _ ->
      Alcotest.(check (float 1e-9)) "objective" (-21.0) s.Solve.objective;
      Alcotest.(check (list int)) "picks b,c,d" [ 0; 1; 1; 1 ]
        (List.map (Solve.value s) [ a; b; c; d ])
  | o, _ -> Alcotest.fail (Format.asprintf "%a" Solve.pp_outcome o)

let test_integer_rounding_matters () =
  (* LP relaxation of max x st 2x<=3 gives 1.5; ILP must give 1 *)
  let m = Model.create () in
  let x = Model.add_int m ~lo:0 ~up:5 in
  Model.add_le m [ (2.0, x) ] 3.0;
  Model.set_objective m [ (-1.0, x) ];
  match Solve.solve m with
  | Solve.Optimal s, _ -> Alcotest.(check int) "x" 1 (Solve.value s x)
  | o, _ -> Alcotest.fail (Format.asprintf "%a" Solve.pp_outcome o)

let test_infeasible () =
  let m = Model.create () in
  let x = Model.add_bool m in
  Model.add_ge m [ (1.0, x) ] 2.0;
  match Solve.solve m with
  | Solve.Infeasible, _ -> ()
  | o, _ -> Alcotest.fail (Format.asprintf "expected infeasible: %a" Solve.pp_outcome o)

let test_equality_constraint () =
  (* x + y = 1 with costs 3,2 -> pick y *)
  let m = Model.create () in
  let x = Model.add_bool m and y = Model.add_bool m in
  Model.add_eq m [ (1.0, x); (1.0, y) ] 1.0;
  Model.set_objective m [ (3.0, x); (2.0, y) ];
  match Solve.solve m with
  | Solve.Optimal s, _ ->
      Alcotest.(check (float 1e-9)) "objective" 2.0 s.Solve.objective;
      Alcotest.(check int) "y chosen" 1 (Solve.value s y)
  | o, _ -> Alcotest.fail (Format.asprintf "%a" Solve.pp_outcome o)

let test_budget () =
  let m = Model.create () in
  let xs = List.init 12 (fun _ -> Model.add_bool m) in
  List.iteri (fun i x -> Model.add_le m [ (float_of_int (i + 1), x) ] 100.0) xs;
  Model.set_objective m (List.map (fun x -> (-1.0, x)) xs);
  match Solve.solve ~max_nodes:1 m with
  | Solve.Budget _, st -> Alcotest.(check int) "one node" 1 st.Solve.nodes
  | Solve.Optimal _, st ->
      (* root LP may already be integral; accept but require single node *)
      Alcotest.(check int) "one node" 1 st.Solve.nodes
  | o, _ -> Alcotest.fail (Format.asprintf "%a" Solve.pp_outcome o)

let test_check_assignment () =
  let m = Model.create () in
  let x = Model.add_bool m and y = Model.add_int m ~lo:0 ~up:3 in
  Model.add_le m [ (1.0, x); (1.0, y) ] 2.0;
  Model.set_objective m [ (1.0, x); (1.0, y) ];
  Alcotest.(check bool) "feasible" true (Model.check_assignment m [| 1; 1 |]);
  Alcotest.(check bool) "violates constraint" false (Model.check_assignment m [| 1; 2 |]);
  Alcotest.(check bool) "violates bounds" false (Model.check_assignment m [| 2; 0 |]);
  Alcotest.(check (float 1e-9)) "objective" 2.0 (Model.eval_objective m [| 1; 1 |])

let test_var_names () =
  let m = Model.create () in
  let x = Model.add_bool ~name:"chi" m in
  let y = Model.add_bool m in
  Alcotest.(check string) "named" "chi" (Model.var_name m x);
  Alcotest.(check string) "default" "x1" (Model.var_name m y);
  Alcotest.(check int) "index" 1 (Model.var_index y)

let test_add_int_validation () =
  let m = Model.create () in
  Alcotest.check_raises "up < lo" (Invalid_argument "Model.add_int: up < lo")
    (fun () -> ignore (Model.add_int m ~lo:2 ~up:1))

let test_enumerate_matches_bb_on_knapsack () =
  let m = Model.create () in
  let a = Model.add_bool m and b = Model.add_bool m and c = Model.add_bool m in
  Model.add_le m [ (3.0, a); (4.0, b); (5.0, c) ] 8.0;
  Model.set_objective m [ (-3.0, a); (-5.0, b); (-6.0, c) ];
  let bb =
    match Solve.solve m with
    | Solve.Optimal s, _ -> s.Solve.objective
    | o, _ -> Alcotest.fail (Format.asprintf "%a" Solve.pp_outcome o)
  in
  match Enumerate.solve m with
  | Some s -> Alcotest.(check (float 1e-9)) "agree" s.Solve.objective bb
  | None -> Alcotest.fail "enumerate found nothing"

(* Property: on random small 0-1 models, branch-and-bound agrees with
   exhaustive enumeration on the optimal objective (or both infeasible). *)
let random_model_gen =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* m = int_range 1 5 in
    let* rows =
      list_repeat m
        (pair (list_repeat n (int_range (-4) 4)) (int_range (-2) 8))
    in
    let* obj = list_repeat n (int_range (-5) 5) in
    return (n, rows, obj))

let bb_matches_enumeration =
  QCheck.Test.make ~name:"B&B matches exhaustive enumeration" ~count:200
    (QCheck.make random_model_gen)
    (fun (n, rows, obj) ->
      let m = Model.create () in
      let vars = List.init n (fun _ -> Model.add_bool m) in
      List.iter
        (fun (coefs, rhs) ->
          let terms =
            List.map2 (fun c v -> (float_of_int c, v)) coefs vars
            |> List.filter (fun (c, _) -> c <> 0.0)
          in
          if terms <> [] then Model.add_le m terms (float_of_int rhs))
        rows;
      Model.set_objective m (List.map2 (fun c v -> (float_of_int c, v)) obj vars);
      let enum = Enumerate.solve m in
      match (Solve.solve m, enum) with
      | (Solve.Optimal s, _), Some e ->
          Float.abs (s.Solve.objective -. e.Solve.objective) < 1e-6
          && Model.check_assignment m s.Solve.values
      | (Solve.Infeasible, _), None -> true
      | _ -> false)

(* ------------------------ warm-start B&B -------------------------- *)

let test_warm_start_fewer_pivots () =
  (* Table-3 polynom detection-only tight-area (λ=6, 1.5×) instance:
     warm-started B&B with objective cutoff must reach the same optimum as
     the cold baseline while spending strictly fewer total simplex pivots.
     (The loose-area λ=3 row solves integrally at the root — one LP, no
     re-solves to warm — so the tight row is the meaningful check.) *)
  let module Spec = Thr_hls.Spec in
  let module Catalog = Thr_iplib.Catalog in
  let module Suite = Thr_benchmarks.Suite in
  let module Instance = Thr_opt.Instance in
  let module Csp = Thr_opt.Csp in
  let module Ilp_f = Thr_opt.Ilp_formulation in
  let dfg = Suite.polynom () in
  let mk area_limit =
    Spec.make ~mode:Spec.Detection_only ~dfg ~catalog:Catalog.eight_vendors
      ~latency_detect:6 ~latency_recover:1 ~area_limit ()
  in
  let inst = Instance.make (mk max_int) in
  let allowed = Array.make_matrix inst.Instance.n_vendors 3 true in
  let lb = Option.get (Csp.area_lower_bound inst ~allowed) in
  let spec = mk (int_of_float (float_of_int lb *. 1.5)) in
  let f = Ilp_f.build ~max_instances:2 spec in
  let run ~warm =
    match
      (* ~dive:false — the root dive solves cold in both modes and tends
         to find the optimum outright, leaving a tiny tree where the
         shared dive cost dominates; disabling it isolates the pure
         warm-vs-cold branch-and-bound comparison this test is about *)
      Solve.solve ~max_nodes:50_000 ~priority:f.Ilp_f.priority_vars ~warm
        ~dive:false f.Ilp_f.model
    with
    | Solve.Optimal s, st -> (s.Solve.objective, st)
    | o, _ -> Alcotest.fail (Format.asprintf "expected optimal: %a" Solve.pp_outcome o)
  in
  let obj_w, st_w = run ~warm:true in
  let obj_c, st_c = run ~warm:false in
  Alcotest.(check (float 1e-6)) "same optimum" obj_c obj_w;
  Alcotest.(check bool)
    (Printf.sprintf "fewer pivots warm (%d) than cold (%d)"
       (Solve.total_pivots st_w) (Solve.total_pivots st_c))
    true
    (Solve.total_pivots st_w < Solve.total_pivots st_c);
  Alcotest.(check bool) "warm solves happened" true
    (st_w.Solve.simplex.Thr_lp.Simplex.warm_solves > 0);
  Alcotest.(check int) "cold baseline never warms" 0
    st_c.Solve.simplex.Thr_lp.Simplex.warm_solves

(* ------------------------ root cutting planes --------------------- *)

(* Table-3/Table-4 polynom instances as used by the bench tables: λ from the
   paper, area = frac × lower bound. *)
let polynom_spec ~mode ~l_det ~l_rec ~frac ~catalog =
  let module Spec = Thr_hls.Spec in
  let module Instance = Thr_opt.Instance in
  let module Csp = Thr_opt.Csp in
  let dfg = Thr_benchmarks.Suite.polynom () in
  let mk area_limit =
    Spec.make ~mode ~dfg ~catalog ~latency_detect:l_det ~latency_recover:l_rec
      ~area_limit ()
  in
  let inst = Instance.make (mk max_int) in
  let allowed = Array.make_matrix inst.Instance.n_vendors 3 true in
  let lb = Option.get (Csp.area_lower_bound inst ~allowed) in
  mk (int_of_float (float_of_int lb *. frac))

let solve_spec ?symmetry ~cuts spec =
  let module Ilp_f = Thr_opt.Ilp_formulation in
  match
    Ilp_f.solve_with_stats ~max_nodes:50_000 ~warm:true ?symmetry ~cuts spec
  with
  | Ilp_f.Optimal d, st -> (Thr_hls.Design.cost d, st)
  | o, _ ->
      Alcotest.fail
        (match o with
        | Ilp_f.Infeasible -> "unexpected infeasible"
        | Ilp_f.Budget _ -> "node budget exhausted"
        | Ilp_f.Optimal _ -> assert false)

let test_cuts_preserve_optimum () =
  (* Cover/clique cuts are only valid if they never cut off the integer
     optimum: with and without cuts the B&B must land on the same minimum
     licence cost, on both a Table-3 (detection-only, tight area) and a
     Table-4 (detection + recovery) polynom instance. *)
  let module Spec = Thr_hls.Spec in
  let catalog = Thr_iplib.Catalog.eight_vendors in
  let t3 =
    polynom_spec ~mode:Spec.Detection_only ~l_det:6 ~l_rec:1 ~frac:1.5 ~catalog
  in
  let cost_cuts, st_cuts = solve_spec ~cuts:true t3 in
  let cost_plain, _ = solve_spec ~cuts:false t3 in
  Alcotest.(check int) "table3 optimum unchanged" cost_plain cost_cuts;
  Alcotest.(check bool) "cuts separated on the tight row" true
    (st_cuts.Solve.cover_cuts + st_cuts.Solve.clique_cuts > 0);
  let t4 =
    polynom_spec ~mode:Spec.Detection_and_recovery ~l_det:3 ~l_rec:3 ~frac:2.5
      ~catalog
  in
  let cost_cuts4, _ = solve_spec ~cuts:true t4 in
  let cost_plain4, _ = solve_spec ~cuts:false t4 in
  Alcotest.(check int) "table4 optimum unchanged" cost_plain4 cost_cuts4

(* ----------------------- symmetry breaking ------------------------ *)

let test_symmetry_breaking () =
  (* A catalogue with two identical vendors has a relabelling symmetry; the
     equivalent-vendor ordering rows must leave the minimum cost unchanged
     while visiting no more B&B nodes.  Stock catalogues have no equivalent
     vendors, so they get zero symmetry rows. *)
  let module Catalog = Thr_iplib.Catalog in
  let module Iptype = Thr_iplib.Iptype in
  let module Spec = Thr_hls.Spec in
  let module Ilp_f = Thr_opt.Ilp_formulation in
  let twin =
    Catalog.make
      [
        (1, Iptype.Adder, { Catalog.area = 532; cost = 450 });
        (1, Iptype.Multiplier, { Catalog.area = 6843; cost = 950 });
        (1, Iptype.Other_unit, { Catalog.area = 410; cost = 320 });
        (* vendor 2 is an exact copy of vendor 1 *)
        (2, Iptype.Adder, { Catalog.area = 532; cost = 450 });
        (2, Iptype.Multiplier, { Catalog.area = 6843; cost = 950 });
        (2, Iptype.Other_unit, { Catalog.area = 410; cost = 320 });
        (3, Iptype.Adder, { Catalog.area = 763; cost = 540 });
        (3, Iptype.Multiplier, { Catalog.area = 6325; cost = 760 });
        (3, Iptype.Other_unit, { Catalog.area = 428; cost = 350 });
        (4, Iptype.Adder, { Catalog.area = 618; cost = 580 });
        (4, Iptype.Multiplier, { Catalog.area = 5937; cost = 1000 });
        (4, Iptype.Other_unit, { Catalog.area = 390; cost = 240 });
      ]
  in
  let spec =
    polynom_spec ~mode:Spec.Detection_only ~l_det:6 ~l_rec:1 ~frac:1.5
      ~catalog:twin
  in
  let f_sym = Ilp_f.build ~max_instances:2 ~symmetry:true spec in
  let f_raw = Ilp_f.build ~max_instances:2 ~symmetry:false spec in
  Alcotest.(check bool) "twin catalogue yields symmetry rows" true
    (f_sym.Ilp_f.symmetry_rows > 0);
  Alcotest.(check int) "symmetry:false yields none" 0 f_raw.Ilp_f.symmetry_rows;
  let stock =
    Ilp_f.build ~max_instances:2
      (polynom_spec ~mode:Spec.Detection_only ~l_det:6 ~l_rec:1 ~frac:1.5
         ~catalog:Catalog.eight_vendors)
  in
  Alcotest.(check int) "stock catalogue yields none" 0
    stock.Ilp_f.symmetry_rows;
  let cost_sym, st_sym = solve_spec ~symmetry:true ~cuts:true spec in
  let cost_raw, st_raw = solve_spec ~symmetry:false ~cuts:true spec in
  Alcotest.(check int) "same minimum cost" cost_raw cost_sym;
  Alcotest.(check bool)
    (Printf.sprintf "no more nodes with symmetry (%d vs %d)"
       st_sym.Solve.nodes st_raw.Solve.nodes)
    true
    (st_sym.Solve.nodes <= st_raw.Solve.nodes)

(* --------------------------- LP export ---------------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_lp_format_structure () =
  let m = Model.create () in
  let x = Model.add_bool ~name:"x" m in
  let y = Model.add_int ~name:"y" m ~lo:0 ~up:7 in
  Model.add_le m [ (2.0, x); (3.0, y) ] 10.0;
  Model.add_ge m [ (1.0, y) ] 1.0;
  Model.add_eq m [ (1.0, x); (1.0, y) ] 3.0;
  Model.set_objective m [ (5.0, x); (-1.0, y) ];
  let s = Thr_ilp.Lp_format.to_string m in
  List.iter
    (fun frag -> Alcotest.(check bool) ("has " ^ frag) true (contains s frag))
    [
      "Minimize"; "Subject To"; "Bounds"; "Binary"; "General"; "End";
      "5 x"; "2 x + 3 y <= 10"; "y >= 1"; "x + y = 3"; "0 <= y <= 7";
    ]

let test_lp_format_sanitises_names () =
  let m = Model.create () in
  let bad = Model.add_bool ~name:"0weird name!" m in
  Model.set_objective m [ (1.0, bad) ];
  let s = Thr_ilp.Lp_format.to_string m in
  Alcotest.(check bool) "no spaces in identifier" true (contains s "v_0weird_name_")

let test_lp_format_write () =
  let m = Model.create () in
  let x = Model.add_bool m in
  Model.set_objective m [ (1.0, x) ];
  let path = Filename.temp_file "thls" ".lp" in
  Thr_ilp.Lp_format.write m path;
  let ic = open_in path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "round trip" (Thr_ilp.Lp_format.to_string m) contents

let () =
  Alcotest.run "ilp"
    [
      ( "solve",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "integer rounding" `Quick test_integer_rounding_matters;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "equality" `Quick test_equality_constraint;
          Alcotest.test_case "budget" `Quick test_budget;
          QCheck_alcotest.to_alcotest bb_matches_enumeration;
          Alcotest.test_case "cuts preserve optimum" `Quick
            test_cuts_preserve_optimum;
          Alcotest.test_case "symmetry breaking" `Quick test_symmetry_breaking;
          Alcotest.test_case "warm start beats cold on Table-3 row" `Quick
            test_warm_start_fewer_pivots;
        ] );
      ( "model",
        [
          Alcotest.test_case "check assignment" `Quick test_check_assignment;
          Alcotest.test_case "var names" `Quick test_var_names;
          Alcotest.test_case "add_int validation" `Quick test_add_int_validation;
          Alcotest.test_case "enumerate vs bb" `Quick test_enumerate_matches_bb_on_knapsack;
        ] );
      ( "lp_format",
        [
          Alcotest.test_case "structure" `Quick test_lp_format_structure;
          Alcotest.test_case "sanitised names" `Quick test_lp_format_sanitises_names;
          Alcotest.test_case "write" `Quick test_lp_format_write;
        ] );
    ]
