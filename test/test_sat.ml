(* Tests for the SAT subsystem: the CDCL solver against a brute-force
   oracle, the CNF encoder against the scalar simulator, and the BMC
   unroller against hand-computed reachability depths. *)

module Netlist = Thr_gates.Netlist
module Bus = Thr_gates.Bus
module Sim = Thr_gates.Sim
module Circuits = Thr_trojan.Circuits
module Solver = Thr_sat.Solver
module Cnf = Thr_sat.Cnf
module Bmc = Thr_sat.Bmc
module Preprocess = Thr_sat.Preprocess
module Induction = Thr_sat.Induction

let result : Solver.result Alcotest.testable =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with
        | Solver.Sat -> "Sat"
        | Solver.Unsat -> "Unsat"
        | Solver.Unknown -> "Unknown"))
    ( = )

(* ----------------------------- solver ------------------------------ *)

let test_trivial_sat () =
  let s = Solver.create () in
  let x = Solver.new_var s and y = Solver.new_var s in
  Solver.add_clause s [ x; y ];
  Solver.add_clause s [ -x; y ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "y true" true (Solver.value s y)

let test_unit_propagation () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  let c = Solver.new_var s in
  Solver.add_clause s [ a ];
  Solver.add_clause s [ -a; b ];
  Solver.add_clause s [ -b; c ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "a" true (Solver.value s a);
  Alcotest.(check bool) "b" true (Solver.value s b);
  Alcotest.(check bool) "c" true (Solver.value s c)

let test_trivial_unsat () =
  let s = Solver.create () in
  let x = Solver.new_var s in
  Solver.add_clause s [ x ];
  Solver.add_clause s [ -x ];
  Alcotest.(check bool) "ok cleared" false (Solver.ok s);
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s)

let test_empty_clause () =
  let s = Solver.create () in
  ignore (Solver.new_var s);
  Solver.add_clause s [];
  Alcotest.(check bool) "ok cleared" false (Solver.ok s);
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s)

(* PHP(h+1, h): h+1 pigeons in h holes — classically hard for resolution
   at scale, decided instantly at this size, and a good workout for
   conflict analysis. *)
let pigeonhole holes =
  let s = Solver.create () in
  let v = Array.init (holes + 1) (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to holes do
    Solver.add_clause s (Array.to_list v.(p))
  done;
  for h = 0 to holes - 1 do
    for p = 0 to holes do
      for q = p + 1 to holes do
        Solver.add_clause s [ -v.(p).(h); -v.(q).(h) ]
      done
    done
  done;
  s

let test_pigeonhole_unsat () =
  Alcotest.check result "php(5,4)" Solver.Unsat (Solver.solve (pigeonhole 4));
  Alcotest.check result "php(7,6)" Solver.Unsat (Solver.solve (pigeonhole 6))

let test_incremental_assumptions () =
  let s = Solver.create () in
  let x = Solver.new_var s and y = Solver.new_var s in
  Solver.add_clause s [ x; y ];
  Alcotest.check result "x,y free" Solver.Sat (Solver.solve s);
  Alcotest.check result "assume -x" Solver.Sat
    (Solver.solve ~assumptions:[ -x ] s);
  Alcotest.(check bool) "y forced" true (Solver.value s y);
  Alcotest.check result "assume -x -y" Solver.Unsat
    (Solver.solve ~assumptions:[ -x; -y ] s);
  Alcotest.(check bool) "still ok" true (Solver.ok s);
  (* add a clause between calls: the solver stays incremental *)
  Solver.add_clause s [ -y ];
  Alcotest.check result "now x forced" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "x" true (Solver.value s x);
  Alcotest.check result "assume -x now unsat" Solver.Unsat
    (Solver.solve ~assumptions:[ -x ] s);
  Alcotest.check result "recovers" Solver.Sat (Solver.solve s)

let test_budget_unknown () =
  let s = pigeonhole 6 in
  Alcotest.check result "starved" Solver.Unknown (Solver.solve ~max_steps:1 s);
  (* the same solver finishes the job when the budget is lifted *)
  Alcotest.check result "finishes" Solver.Unsat (Solver.solve s)

let test_bad_literals () =
  let s = Solver.create () in
  ignore (Solver.new_var s);
  Alcotest.check_raises "zero" (Invalid_argument "Solver: literal 0 out of range")
    (fun () -> Solver.add_clause s [ 0 ]);
  Alcotest.check_raises "unallocated"
    (Invalid_argument "Solver: literal 2 out of range") (fun () ->
      Solver.add_clause s [ 2 ])

(* Oracle check: random small CNFs against exhaustive enumeration. *)
let solver_matches_brute_force =
  QCheck.Test.make ~name:"solver matches brute force on random CNF" ~count:300
    QCheck.(
      pair (int_range 1 8)
        (list_of_size
           Gen.(int_range 0 30)
           (list_of_size Gen.(int_range 0 4) (int_range 0 1000))))
    (fun (n, raw) ->
      let clauses =
        List.map
          (List.map (fun k ->
               let v = (k mod n) + 1 in
               if k mod 2 = 0 then v else -v))
          raw
      in
      let sat_under m =
        List.for_all
          (fun c ->
            List.exists
              (fun l ->
                let bit = m land (1 lsl (abs l - 1)) <> 0 in
                if l > 0 then bit else not bit)
              c)
          clauses
      in
      let brute = ref false in
      for m = 0 to (1 lsl n) - 1 do
        if sat_under m then brute := true
      done;
      let s = Solver.create () in
      for _ = 1 to n do
        ignore (Solver.new_var s)
      done;
      List.iter (Solver.add_clause s) clauses;
      match Solver.solve s with
      | Solver.Unknown -> QCheck.Test.fail_report "unbounded solve was Unknown"
      | Solver.Unsat ->
          if !brute then
            QCheck.Test.fail_report "solver Unsat but brute force found a model"
          else true
      | Solver.Sat ->
          if not !brute then
            QCheck.Test.fail_report "solver Sat but brute force found none"
          else begin
            (* and the reported model must actually satisfy the clauses *)
            let m = ref 0 in
            for v = 1 to n do
              if Solver.value s v then m := !m lor (1 lsl (v - 1))
            done;
            if sat_under !m then true
            else QCheck.Test.fail_report "reported model does not satisfy CNF"
          end)

(* ------------------------------- cnf -------------------------------- *)

(* The same random-netlist script as test_gates: gates over a growing
   net pool, dangling nets OR'd into a sink output. *)
let random_netlist script =
  let nl = Netlist.create ~name:"rand" in
  let nets = ref [| Netlist.input nl "a"; Netlist.input nl "b" |] in
  let push n = nets := Array.append !nets [| n |] in
  List.iter
    (fun (kind, i, j) ->
      let pick k = !nets.(k mod Array.length !nets) in
      let x = pick i and y = pick j in
      push
        (match kind mod 8 with
        | 0 -> Netlist.and_ nl x y
        | 1 -> Netlist.or_ nl x y
        | 2 -> Netlist.xor_ nl x y
        | 3 -> Netlist.nand_ nl x y
        | 4 -> Netlist.nor_ nl x y
        | 5 -> Netlist.not_ nl x
        | 6 -> Netlist.mux nl ~sel:x ~t0:y ~t1:(pick (i + j))
        | _ -> Netlist.dff nl ~init:(i mod 2 = 0) x))
    script;
  let fo = Netlist.fanout nl in
  let dangling =
    Array.to_list !nets |> List.filter (fun n -> fo.(Netlist.net_index n) = 0)
  in
  Netlist.output nl "sink" (Netlist.or_list nl dangling);
  Netlist.finalise nl;
  nl

(* The encoder's defining property: fix the frame's inputs with
   assumptions and every in-cone variable must agree with the scalar
   simulator's settle of the same inputs over the power-on state. *)
let cnf_matches_sim =
  QCheck.Test.make ~name:"Cnf.of_cone models agree with scalar Sim settle"
    ~count:120
    QCheck.(
      triple
        (list_of_size
           Gen.(int_range 1 40)
           (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
        bool bool)
    (fun (script, va, vb) ->
      let nl = random_netlist script in
      let root = Netlist.find_output nl "sink" in
      let s = Solver.create () in
      let frame = Cnf.of_cone s nl ~roots:[ root ] in
      let input_val = function "a" -> va | _ -> vb in
      let assumptions =
        Array.to_list (Cnf.inputs frame)
        |> List.filter_map (fun (nm, v) ->
               if v = 0 then None
               else Some (if input_val nm then v else -v))
      in
      (match Solver.solve ~assumptions s with
      | Solver.Sat -> ()
      | _ -> QCheck.Test.fail_report "fully-driven cone must be Sat");
      let sim = Sim.create nl in
      Sim.set_input sim "a" va;
      Sim.set_input sim "b" vb;
      Sim.settle sim;
      Array.iter
        (fun net ->
          let v = Cnf.var frame net in
          if v <> 0 then begin
            let want = Sim.peek sim net in
            if Solver.value s v <> want then
              QCheck.Test.fail_reportf "net %d: cnf=%b sim=%b"
                (Netlist.net_index net) (Solver.value s v) want
          end)
        (Netlist.nets_in_order nl);
      true)

(* ------------------------------- bmc -------------------------------- *)

(* A 4-bit free-running counter reaches 12 at frame 13 (frame f shows
   the state after f-1 clock edges) and not a cycle earlier. *)
let counter_netlist () =
  let nl = Netlist.create ~name:"cnt" in
  let enable = Netlist.const nl true in
  let c = Bus.counter nl ~width:4 ~enable in
  let hit = Bus.eq_const nl c 12 in
  Netlist.output nl "hit" hit;
  Netlist.finalise nl;
  (nl, Netlist.find_output nl "hit")

let test_bmc_counter_unreachable () =
  let nl, hit = counter_netlist () in
  match Bmc.check_net ~bound:8 nl ~net:hit ~value:true with
  | Bmc.Unreachable 8 -> ()
  | Bmc.Unreachable k -> Alcotest.failf "unreachable at wrong bound %d" k
  | Bmc.Unreachable_unbounded _ ->
      Alcotest.fail "plain BMC cannot certify unbounded unreachability"
  | Bmc.Reachable w -> Alcotest.failf "reachable at cycle %d?" w.Bmc.w_cycle
  | Bmc.Inconclusive _ -> Alcotest.fail "inconclusive without a budget"

let test_bmc_counter_reachable () =
  let nl, hit = counter_netlist () in
  match Bmc.check_net ~bound:13 nl ~net:hit ~value:true with
  | Bmc.Reachable w ->
      Alcotest.(check int) "exact depth" 13 w.Bmc.w_cycle;
      Alcotest.(check bool) "witness replays" true (Bmc.replay nl w)
  | _ -> Alcotest.fail "count 12 must be reachable within 13 cycles"

let test_bmc_budget_inconclusive () =
  let nl, hit = counter_netlist () in
  match Bmc.check_net ~bound:8 ~budget:1 nl ~net:hit ~value:true with
  | Bmc.Inconclusive _ -> ()
  | _ -> Alcotest.fail "a 1-step budget cannot decide anything"

(* The low value is immediate: frame 1, all-zero state. *)
let test_bmc_trivially_low () =
  let nl, hit = counter_netlist () in
  match Bmc.check_net ~bound:8 nl ~net:hit ~value:false with
  | Bmc.Reachable w ->
      Alcotest.(check int) "frame 1" 1 w.Bmc.w_cycle;
      Alcotest.(check bool) "replays" true (Bmc.replay nl w)
  | _ -> Alcotest.fail "low must be reachable at frame 1"

(* Fig. 2(b): the registered consecutive-match counter with threshold 2
   raises T at frame 3 — two matching clocked cycles, observed before
   the third latch — and provably not earlier. *)
let test_bmc_fig2b_trigger () =
  let h =
    Circuits.fig2b ~width:8 ~a_pattern:0xA5 ~b_pattern:0x5A ~mask:0xFF
      ~threshold:2 ~payload_mask:0xFF
  in
  let nl = h.Circuits.netlist in
  let t = h.Circuits.trigger_net in
  (match Bmc.check_net ~bound:2 nl ~net:t ~value:true with
  | Bmc.Unreachable 2 -> ()
  | _ -> Alcotest.fail "threshold-2 trigger must be quiet for 2 frames");
  match Bmc.check_net ~bound:8 nl ~net:t ~value:true with
  | Bmc.Reachable w ->
      Alcotest.(check int) "fires at frame 3" 3 w.Bmc.w_cycle;
      Alcotest.(check bool) "witness replays" true (Bmc.replay nl w);
      let d = Bmc.describe w in
      Alcotest.(check bool) "describe mentions cycle" true
        (String.length d > 0
        &&
        let sub = "cycle 3" in
        let n = String.length d and m = String.length sub in
        let found = ref false in
        for i = 0 to n - m do
          if String.sub d i m = sub then found := true
        done;
        !found)
  | _ -> Alcotest.fail "threshold-2 trigger must fire by frame 8"

(* A corrupted witness must not replay: soundness of the replay gate. *)
let test_bmc_replay_rejects_bogus () =
  let h =
    Circuits.fig2b ~width:8 ~a_pattern:0xA5 ~b_pattern:0x5A ~mask:0xFF
      ~threshold:2 ~payload_mask:0xFF
  in
  let nl = h.Circuits.netlist in
  match Bmc.check_net ~bound:8 nl ~net:h.Circuits.trigger_net ~value:true with
  | Bmc.Reachable w ->
      let scrambled =
        {
          w with
          Bmc.w_inputs =
            Array.map (List.map (fun (nm, b) -> (nm, not b))) w.Bmc.w_inputs;
        }
      in
      Alcotest.(check bool) "scrambled witness fails" false
        (Bmc.replay nl scrambled)
  | _ -> Alcotest.fail "trigger must be reachable"

(* ---------------------------- preprocess ---------------------------- *)

let test_pp_unit_chain () =
  let pp = Preprocess.create () in
  let frozen = Array.make 4 false in
  let out, stats =
    Preprocess.simplify pp ~frozen ~n_vars:3 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ] ]
  in
  Alcotest.(check (list (list int))) "everything propagated away" [] out;
  Alcotest.(check int) "three vars removed" 3 stats.Preprocess.pp_removed_vars;
  let m = Preprocess.extend pp ~n_vars:3 (fun _ -> false) in
  Alcotest.(check (list bool)) "chain reconstructs all-true" [ true; true; true ]
    [ m.(1); m.(2); m.(3) ]

let test_pp_unsat () =
  let pp = Preprocess.create () in
  let frozen = Array.make 2 false in
  let out, _ = Preprocess.simplify pp ~frozen ~n_vars:1 [ [ 1 ]; [ -1 ] ] in
  Alcotest.(check (list (list int))) "empty clause out" [ [] ] out

let test_pp_frozen_unit_survives () =
  let pp = Preprocess.create () in
  let frozen = [| false; true; false |] in
  let out, _ = Preprocess.simplify pp ~frozen ~n_vars:2 [ [ 1 ]; [ -1; 2 ] ] in
  (* var 1 is frozen: its forced value must travel as a unit clause so
     later frames and assumptions still see it *)
  Alcotest.(check bool) "frozen unit re-emitted" true (List.mem [ 1 ] out)

let test_pp_pure_literal () =
  let pp = Preprocess.create () in
  let frozen = Array.make 3 false in
  let out, stats =
    Preprocess.simplify pp ~frozen ~n_vars:2 [ [ 1; 2 ]; [ 1; -2 ] ]
  in
  (* 1 is pure positive: fixing it satisfies both clauses *)
  Alcotest.(check (list (list int))) "pure literal clears the CNF" [] out;
  Alcotest.(check bool) "vars removed" true (stats.Preprocess.pp_removed_vars >= 1);
  let m = Preprocess.extend pp ~n_vars:2 (fun _ -> false) in
  Alcotest.(check bool) "pure var reconstructs true" true m.(1)

(* Soundness of simplify + extend against brute force: same
   satisfiability, and a reconstructed model satisfies the original. *)
let preprocess_preserves_sat =
  QCheck.Test.make
    ~name:"preprocessing preserves satisfiability; extend rebuilds a model"
    ~count:300
    QCheck.(
      triple (int_range 1 7)
        (list_of_size
           Gen.(int_range 0 25)
           (list_of_size Gen.(int_range 0 4) (int_range 0 1000)))
        (int_bound 127))
    (fun (n, raw, fmask) ->
      let clauses =
        List.map
          (List.map (fun k ->
               let v = (k mod n) + 1 in
               if k mod 2 = 0 then v else -v))
          raw
      in
      let frozen =
        Array.init (n + 1) (fun v -> v > 0 && fmask land (1 lsl (v - 1)) <> 0)
      in
      let sat_under m cs =
        List.for_all
          (fun c ->
            List.exists
              (fun l ->
                let bit = m land (1 lsl (abs l - 1)) <> 0 in
                if l > 0 then bit else not bit)
              c)
          cs
      in
      let exists_model cs =
        let found = ref None in
        for m = 0 to (1 lsl n) - 1 do
          if !found = None && sat_under m cs then found := Some m
        done;
        !found
      in
      let pp = Preprocess.create () in
      let simplified, _ = Preprocess.simplify pp ~frozen ~n_vars:n clauses in
      match (exists_model clauses, exists_model simplified) with
      | Some _, None ->
          QCheck.Test.fail_report "preprocessing lost satisfiability"
      | None, Some _ ->
          QCheck.Test.fail_report "preprocessing gained satisfiability"
      | None, None -> true
      | Some _, Some m ->
          let full =
            Preprocess.extend pp ~n_vars:n (fun v ->
                m land (1 lsl (v - 1)) <> 0)
          in
          let mi = ref 0 in
          for v = 1 to n do
            if full.(v) then mi := !mi lor (1 lsl (v - 1))
          done;
          if sat_under !mi clauses then true
          else
            QCheck.Test.fail_report
              "reconstructed model does not satisfy the original CNF")

(* The portfolio's frame pipeline end to end: encode through a buffer
   sink, preprocess with the inputs frozen, solve, reconstruct — every
   in-cone net of the reconstructed model must match the scalar
   simulator bit for bit. *)
let preprocessed_cnf_matches_sim =
  QCheck.Test.make
    ~name:"preprocessed frame reconstructs scalar Sim settle bit-for-bit"
    ~count:80
    QCheck.(
      triple
        (list_of_size
           Gen.(int_range 1 40)
           (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
        bool bool)
    (fun (script, va, vb) ->
      let nl = random_netlist script in
      let root = Netlist.find_output nl "sink" in
      let cone = Netlist.in_cone nl ~through_dffs:true ~roots:[ root ] () in
      let s = Solver.create () in
      let buf = ref [] in
      let sink =
        {
          Cnf.fresh_var = (fun () -> Solver.new_var s);
          clause = (fun c -> buf := c :: !buf);
        }
      in
      let frame = Cnf.encode_frame_via sink nl ~cone ~prev:None () in
      let n_vars = Solver.n_vars s in
      let frozen = Array.make (n_vars + 1) false in
      Array.iter
        (fun (_, v) -> if v <> 0 then frozen.(v) <- true)
        (Cnf.inputs frame);
      let pp = Preprocess.create () in
      let simplified, _ =
        Preprocess.simplify pp ~frozen ~n_vars (List.rev !buf)
      in
      List.iter (Solver.add_clause s) simplified;
      let input_val = function "a" -> va | _ -> vb in
      let assumptions =
        Array.to_list (Cnf.inputs frame)
        |> List.filter_map (fun (nm, v) ->
               if v = 0 then None
               else Some (if input_val nm then v else -v))
      in
      (match Solver.solve ~assumptions s with
      | Solver.Sat -> ()
      | _ -> QCheck.Test.fail_report "fully-driven cone must stay Sat");
      let model = Preprocess.extend pp ~n_vars (fun v -> Solver.value s v) in
      let sim = Sim.create nl in
      Sim.set_input sim "a" va;
      Sim.set_input sim "b" vb;
      Sim.settle sim;
      Array.iter
        (fun net ->
          let v = Cnf.var frame net in
          if v <> 0 then begin
            let want = Sim.peek sim net in
            if model.(v) <> want then
              QCheck.Test.fail_reportf "net %d: reconstructed=%b sim=%b"
                (Netlist.net_index net) model.(v) want
          end)
        (Netlist.nets_in_order nl);
      true)

(* ---------------------------- induction ----------------------------- *)

let test_induction_comb_certificate () =
  let nl = Netlist.create ~name:"comb" in
  let a = Netlist.input nl "a" in
  let x = Netlist.and_ nl a (Netlist.not_ nl a) in
  Netlist.output nl "x" x;
  Netlist.finalise nl;
  match (Induction.prove nl [| (x, true) |]).(0) with
  | Bmc.Unreachable_unbounded c ->
      Alcotest.(check int) "depth 0" 0 c.Bmc.c_depth;
      Alcotest.(check string) "combinational" "combinational" c.Bmc.c_method
  | _ -> Alcotest.fail "a & ~a must earn a depth-0 certificate"

let test_induction_held_register_chain () =
  let nl = Netlist.create ~name:"held" in
  let z = Netlist.const nl false in
  let r1 = Netlist.dff nl ~init:false z in
  let r2 = Netlist.dff nl ~init:false r1 in
  let t = Netlist.and_ nl r1 r2 in
  Netlist.output nl "t" t;
  Netlist.finalise nl;
  match (Induction.prove ~bound:8 nl [| (t, true) |]).(0) with
  | Bmc.Unreachable_unbounded c ->
      Alcotest.(check string) "k-induction" "k-induction" c.Bmc.c_method;
      Alcotest.(check bool) "shallow certificate" true
        (c.Bmc.c_depth >= 1 && c.Bmc.c_depth <= 2)
  | _ -> Alcotest.fail "a held register chain must certify at small k"

(* The counter DOES reach 12 at depth 13: at bound 8 the portfolio must
   degrade to the bounded verdict, never a bogus certificate. *)
let test_induction_counter_stays_bounded () =
  let nl, hit = counter_netlist () in
  match (Induction.prove ~bound:8 nl [| (hit, true) |]).(0) with
  | Bmc.Unreachable 8 -> ()
  | Bmc.Unreachable_unbounded _ ->
      Alcotest.fail "unsound certificate: the counter reaches 12 at depth 13"
  | _ -> Alcotest.fail "expected the bounded unreachability verdict"

let test_induction_budget_inconclusive () =
  (* a real cone (free primary inputs) makes every base solve cost
     steps, so a 1-step budget dies on the first frame *)
  let h =
    Circuits.fig2b ~width:8 ~a_pattern:0xA5 ~b_pattern:0x5A ~mask:0xFF
      ~threshold:2 ~payload_mask:0xFF
  in
  let nl = h.Circuits.netlist in
  (match
     (Induction.prove ~bound:8 ~budget:1 nl
        [| (h.Circuits.trigger_net, true) |]).(0)
   with
  | Bmc.Inconclusive _ -> ()
  | _ -> Alcotest.fail "a 1-step budget cannot decide anything");
  (* the input-free counter is different: its base cases propagate for
     free, so only the step budget dies and the bounded verdict stands *)
  let nl, hit = counter_netlist () in
  match (Induction.prove ~bound:8 ~budget:1 nl [| (hit, true) |]).(0) with
  | Bmc.Unreachable 8 -> ()
  | _ ->
      Alcotest.fail
        "free base sweep must still yield the bounded verdict when the \
         step budget dies"

let test_induction_fig2b_portfolio () =
  let h =
    Circuits.fig2b ~width:8 ~a_pattern:0xA5 ~b_pattern:0x5A ~mask:0xFF
      ~threshold:2 ~payload_mask:0xFF
  in
  let nl = h.Circuits.netlist in
  let t = h.Circuits.trigger_net in
  let cands = [| (t, true); (t, false) |] in
  let check_outcomes label out =
    (match out.(0) with
    | Bmc.Reachable w ->
        Alcotest.(check int) (label ^ ": trigger at frame 3") 3 w.Bmc.w_cycle;
        Alcotest.(check bool) (label ^ ": witness replays") true
          (Bmc.replay nl w)
    | _ -> Alcotest.fail (label ^ ": trigger-high must be reachable"));
    match out.(1) with
    | Bmc.Reachable w ->
        Alcotest.(check int) (label ^ ": low at frame 1") 1 w.Bmc.w_cycle
    | _ -> Alcotest.fail (label ^ ": trigger-low must be immediate")
  in
  check_outcomes "jobs=1" (Induction.prove ~bound:8 nl cands);
  (* raced base-vs-step across two domains: same outcomes, same order *)
  check_outcomes "jobs=2" (Induction.prove ~bound:8 ~jobs:2 nl cands)

(* Past 32 candidates per domain the portfolio splits contiguous chunks
   across the pool instead of racing its two solvers; the merged array
   must still be verdict-identical to the sequential run. *)
let test_induction_chunked_determinism () =
  let nl = Netlist.create ~name:"shift70" in
  let a = Netlist.input nl "a" in
  let stages = Array.make 70 a in
  let prev = ref a in
  for i = 0 to 69 do
    let d = Netlist.dff nl ~init:false !prev in
    stages.(i) <- d;
    prev := d
  done;
  Array.iteri (fun i s -> Netlist.output nl (Printf.sprintf "s%d" i) s) stages;
  Netlist.finalise nl;
  let cands = Array.map (fun s -> (s, true)) stages in
  let shape = function
    | Bmc.Reachable w -> Printf.sprintf "reachable@%d" w.Bmc.w_cycle
    | Bmc.Unreachable b -> Printf.sprintf "unreachable@%d" b
    | Bmc.Unreachable_unbounded c ->
        Printf.sprintf "certified@%d:%s" c.Bmc.c_depth c.Bmc.c_method
    | Bmc.Inconclusive k -> Printf.sprintf "inconclusive@%d" k
  in
  let seq = Induction.prove ~bound:8 nl cands in
  let par = Induction.prove ~bound:8 ~jobs:2 nl cands in
  Array.iteri
    (fun i o ->
      Alcotest.(check string)
        (Printf.sprintf "stage %d" i)
        (shape o) (shape par.(i));
      match par.(i) with
      | Bmc.Reachable w ->
          Alcotest.(check bool)
            (Printf.sprintf "stage %d witness replays" i)
            true (Bmc.replay nl w)
      | _ -> ())
    seq

(* Agreement with plain BMC on random sequential netlists: the portfolio
   must reach exactly what BMC reaches (same shortest depth, replaying
   witness) and may only strengthen Unreachable to a certificate. *)
let induction_agrees_with_bmc =
  QCheck.Test.make ~name:"k-induction never contradicts BMC" ~count:60
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
    (fun script ->
      let nl = random_netlist script in
      let root = Netlist.find_output nl "sink" in
      let bmc = Bmc.check_net ~bound:6 nl ~net:root ~value:true in
      let port = (Induction.prove ~bound:6 nl [| (root, true) |]).(0) in
      match (bmc, port) with
      | Bmc.Reachable w, Bmc.Reachable w' ->
          if w.Bmc.w_cycle <> w'.Bmc.w_cycle then
            QCheck.Test.fail_reportf "depths differ: bmc=%d portfolio=%d"
              w.Bmc.w_cycle w'.Bmc.w_cycle
          else if not (Bmc.replay nl w') then
            QCheck.Test.fail_report "portfolio witness does not replay"
          else true
      | Bmc.Reachable _, _ ->
          QCheck.Test.fail_report "portfolio missed a BMC-reachable target"
      | _, Bmc.Reachable _ ->
          QCheck.Test.fail_report "portfolio reached what BMC refuted"
      | ( (Bmc.Unreachable _ | Bmc.Unreachable_unbounded _),
          (Bmc.Unreachable _ | Bmc.Unreachable_unbounded _) ) ->
          true
      | _ -> QCheck.Test.fail_report "Inconclusive without a budget")

let () =
  Alcotest.run "sat"
    [
      ( "solver",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "unit propagation" `Quick test_unit_propagation;
          Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "assumptions + incremental" `Quick
            test_incremental_assumptions;
          Alcotest.test_case "budget -> Unknown" `Quick test_budget_unknown;
          Alcotest.test_case "bad literals" `Quick test_bad_literals;
          QCheck_alcotest.to_alcotest solver_matches_brute_force;
        ] );
      ("cnf", [ QCheck_alcotest.to_alcotest cnf_matches_sim ]);
      ( "bmc",
        [
          Alcotest.test_case "counter unreachable at 8" `Quick
            test_bmc_counter_unreachable;
          Alcotest.test_case "counter reachable at 13" `Quick
            test_bmc_counter_reachable;
          Alcotest.test_case "budget inconclusive" `Quick
            test_bmc_budget_inconclusive;
          Alcotest.test_case "trivially low" `Quick test_bmc_trivially_low;
          Alcotest.test_case "fig2b trigger depth" `Quick
            test_bmc_fig2b_trigger;
          Alcotest.test_case "replay rejects bogus witness" `Quick
            test_bmc_replay_rejects_bogus;
        ] );
      ( "preprocess",
        [
          Alcotest.test_case "unit chain" `Quick test_pp_unit_chain;
          Alcotest.test_case "unsat" `Quick test_pp_unsat;
          Alcotest.test_case "frozen unit survives" `Quick
            test_pp_frozen_unit_survives;
          Alcotest.test_case "pure literal" `Quick test_pp_pure_literal;
          QCheck_alcotest.to_alcotest preprocess_preserves_sat;
          QCheck_alcotest.to_alcotest preprocessed_cnf_matches_sim;
        ] );
      ( "induction",
        [
          Alcotest.test_case "combinational certificate" `Quick
            test_induction_comb_certificate;
          Alcotest.test_case "held register chain certifies" `Quick
            test_induction_held_register_chain;
          Alcotest.test_case "counter stays bounded" `Quick
            test_induction_counter_stays_bounded;
          Alcotest.test_case "budget inconclusive" `Quick
            test_induction_budget_inconclusive;
          Alcotest.test_case "fig2b portfolio, jobs 1 and 2" `Quick
            test_induction_fig2b_portfolio;
          Alcotest.test_case "chunked determinism, 70 candidates" `Quick
            test_induction_chunked_determinism;
          QCheck_alcotest.to_alcotest induction_agrees_with_bmc;
        ] );
    ]
