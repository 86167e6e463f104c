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
let pigeonhole_into ~fresh ~add holes =
  let v =
    Array.init (holes + 1) (fun _ -> Array.init holes (fun _ -> fresh ()))
  in
  for p = 0 to holes do
    add (Array.to_list v.(p))
  done;
  for h = 0 to holes - 1 do
    for p = 0 to holes do
      for q = p + 1 to holes do
        add [ -v.(p).(h); -v.(q).(h) ]
      done
    done
  done

let pigeonhole holes =
  let s = Solver.create () in
  pigeonhole_into ~fresh:(fun () -> Solver.new_var s) ~add:(Solver.add_clause s)
    holes;
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

(* An assumption already true still opens a decision level, so a list
   repeating one literal holds more levels than there are variables. *)
let test_repeated_assumptions () =
  let s = Solver.create () in
  let x = Solver.new_var s in
  Alcotest.check result "x x x" Solver.Sat
    (Solver.solve ~assumptions:[ -x; -x; -x; -x ] s);
  Alcotest.(check bool) "x false" false (Solver.value s x);
  Alcotest.check result "x then -x" Solver.Unsat
    (Solver.solve ~assumptions:[ x; x; -x ] s);
  Alcotest.(check bool) "still ok" true (Solver.ok s)

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
          clause = (fun lits n -> buf := List.init n (Array.get lits) :: !buf);
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
  (* a pool of two domains: same outcomes, same order *)
  check_outcomes "jobs=2" (Induction.prove ~bound:8 ~jobs:2 nl cands)

(* A 70-stage shift chain: the nested cones make one cluster, which runs
   inline whatever [jobs] asks for; the array must be verdict-identical
   to the sequential run. *)
let test_induction_jobs_determinism () =
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

(* ----------------------------- oracle ------------------------------ *)

(* The record-per-clause solver that the flat clause arena replaced,
   kept verbatim as the oracle: on every input the arena solver must make
   the same decisions, conflicts, propagations and learnt clauses, reach
   the same answers and return the same models. *)
module Solver_oracle = struct
  (* CDCL SAT solver (MiniSat lineage): two-watched-literal propagation,
     VSIDS-style variable activities with an indexed max-heap, first-UIP
     conflict analysis, activity-driven learnt-clause deletion, Luby
     restarts, phase saving, and incremental solving under assumptions.

     External literals are DIMACS integers (variable [v >= 1], negation
     [-v]); internally a literal is [(var lsl 1) lor sign] with [sign = 1]
     for the negation, so arrays index by literal directly. *)

  module Trace = Thr_obs.Trace
  module Metrics = Thr_obs.Metrics

  type result = Sat | Unsat | Unknown

  type clause = {
    lits : int array; (* internal literals; lits.(0) and lits.(1) are watched *)
    learnt : bool;
    mutable act : float;
    mutable deleted : bool;
  }

  (* growable clause vector (watch lists, clause databases) *)
  type cvec = { mutable data : clause array; mutable sz : int }

  let dummy_clause = { lits = [||]; learnt = false; act = 0.0; deleted = true }

  let cvec () = { data = [||]; sz = 0 }

  let cpush v c =
    if v.sz = Array.length v.data then begin
      let cap = max 4 (2 * Array.length v.data) in
      let d = Array.make cap dummy_clause in
      Array.blit v.data 0 d 0 v.sz;
      v.data <- d
    end;
    v.data.(v.sz) <- c;
    v.sz <- v.sz + 1

  type t = {
    mutable n_vars : int;
    clauses : cvec;
    learnts : cvec;
    mutable watches : cvec array; (* indexed by internal literal *)
    mutable assign : int array;   (* per var: 1 true, -1 false, 0 undef *)
    mutable level : int array;
    mutable reason : clause option array;
    mutable activity : float array;
    mutable phase : bool array;   (* saved polarity *)
    mutable seen : bool array;    (* conflict-analysis scratch *)
    mutable heap : int array;     (* binary max-heap of vars by activity *)
    mutable heap_sz : int;
    mutable heap_pos : int array; (* var -> heap slot, -1 when absent *)
    mutable trail : int array;
    mutable trail_sz : int;
    mutable trail_lim : int array;
    mutable trail_lim_sz : int;
    mutable qhead : int;
    mutable var_inc : float;
    mutable cla_inc : float;
    mutable max_learnts : float;
    mutable ok : bool;            (* false once unsatisfiable at level 0 *)
    mutable model : int array;    (* last satisfying assignment *)
    mutable conflicts : int;
    mutable decisions : int;
    mutable propagations : int;
    mutable learned : int;
  }

  let var_decay = 1.0 /. 0.95

  let cla_decay = 1.0 /. 0.999

  let create () =
    {
      n_vars = 0;
      clauses = cvec ();
      learnts = cvec ();
      watches = [||];
      assign = [||];
      level = [||];
      reason = [||];
      activity = [||];
      phase = [||];
      seen = [||];
      heap = [||];
      heap_sz = 0;
      heap_pos = [||];
      trail = [||];
      trail_sz = 0;
      trail_lim = [||];
      trail_lim_sz = 0;
      qhead = 0;
      var_inc = 1.0;
      cla_inc = 1.0;
      max_learnts = 100.0;
      ok = true;
      model = [||];
      conflicts = 0;
      decisions = 0;
      propagations = 0;
      learned = 0;
    }

  (* ---------------------------- literals ----------------------------- *)

  let var l = l lsr 1

  let sign l = l land 1

  let mk_lit v s = (v lsl 1) lor s

  let of_dimacs t d =
    let v = abs d - 1 in
    if d = 0 || v >= t.n_vars then
      invalid_arg (Printf.sprintf "Solver: literal %d out of range" d);
    mk_lit v (if d < 0 then 1 else 0)

  (* 1 true, -1 false, 0 undef *)
  let value t l =
    let a = t.assign.(var l) in
    if sign l = 0 then a else -a

  let decision_level t = t.trail_lim_sz

  (* --------------------------- growth/heap --------------------------- *)

  let grow_int a n fill =
    if Array.length a >= n then a
    else begin
      let d = Array.make (max n (2 * Array.length a)) fill in
      Array.blit a 0 d 0 (Array.length a);
      d
    end

  let grow_bool a n =
    if Array.length a >= n then a
    else begin
      let d = Array.make (max n (2 * Array.length a)) false in
      Array.blit a 0 d 0 (Array.length a);
      d
    end

  let grow_float a n =
    if Array.length a >= n then a
    else begin
      let d = Array.make (max n (2 * Array.length a)) 0.0 in
      Array.blit a 0 d 0 (Array.length a);
      d
    end

  let heap_swap t i j =
    let u = t.heap.(i) and v = t.heap.(j) in
    t.heap.(i) <- v;
    t.heap.(j) <- u;
    t.heap_pos.(v) <- i;
    t.heap_pos.(u) <- j

  let rec heap_up t i =
    if i > 0 then begin
      let p = (i - 1) / 2 in
      if t.activity.(t.heap.(i)) > t.activity.(t.heap.(p)) then begin
        heap_swap t i p;
        heap_up t p
      end
    end

  let rec heap_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let best = ref i in
    if l < t.heap_sz && t.activity.(t.heap.(l)) > t.activity.(t.heap.(!best))
    then best := l;
    if r < t.heap_sz && t.activity.(t.heap.(r)) > t.activity.(t.heap.(!best))
    then best := r;
    if !best <> i then begin
      heap_swap t i !best;
      heap_down t !best
    end

  let heap_insert t v =
    if t.heap_pos.(v) < 0 then begin
      t.heap.(t.heap_sz) <- v;
      t.heap_pos.(v) <- t.heap_sz;
      t.heap_sz <- t.heap_sz + 1;
      heap_up t t.heap_pos.(v)
    end

  let heap_pop t =
    let v = t.heap.(0) in
    t.heap_sz <- t.heap_sz - 1;
    t.heap_pos.(v) <- -1;
    if t.heap_sz > 0 then begin
      t.heap.(0) <- t.heap.(t.heap_sz);
      t.heap_pos.(t.heap.(0)) <- 0;
      heap_down t 0
    end;
    v

  (* --------------------------- activities ---------------------------- *)

  let bump_var t v =
    t.activity.(v) <- t.activity.(v) +. t.var_inc;
    if t.activity.(v) > 1e100 then begin
      for u = 0 to t.n_vars - 1 do
        t.activity.(u) <- t.activity.(u) *. 1e-100
      done;
      t.var_inc <- t.var_inc *. 1e-100
    end;
    if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

  let decay_var t = t.var_inc <- t.var_inc *. var_decay

  let bump_clause t c =
    c.act <- c.act +. t.cla_inc;
    if c.act > 1e20 then begin
      for i = 0 to t.learnts.sz - 1 do
        let d = t.learnts.data.(i) in
        d.act <- d.act *. 1e-20
      done;
      t.cla_inc <- t.cla_inc *. 1e-20
    end

  let decay_clause t = t.cla_inc <- t.cla_inc *. cla_decay

  (* ----------------------------- new_var ----------------------------- *)

  let new_var t =
    let v = t.n_vars in
    t.n_vars <- v + 1;
    let n = t.n_vars in
    t.assign <- grow_int t.assign n 0;
    t.level <- grow_int t.level n 0;
    t.reason <-
      (if Array.length t.reason >= n then t.reason
       else begin
         let d = Array.make (max n (2 * Array.length t.reason)) None in
         Array.blit t.reason 0 d 0 (Array.length t.reason);
         d
       end);
    t.activity <- grow_float t.activity n;
    t.phase <- grow_bool t.phase n;
    t.seen <- grow_bool t.seen n;
    t.heap <- grow_int t.heap n 0;
    t.heap_pos <- grow_int t.heap_pos n (-1);
    t.heap_pos.(v) <- -1;
    t.trail <- grow_int t.trail n 0;
    t.trail_lim <- grow_int t.trail_lim n 0;
    t.model <- grow_int t.model n 0;
    (if Array.length t.watches < 2 * n then begin
       let d = Array.make (max (2 * n) (2 * Array.length t.watches)) (cvec ()) in
       Array.blit t.watches 0 d 0 (Array.length t.watches);
       for i = Array.length t.watches to Array.length d - 1 do
         d.(i) <- cvec ()
       done;
       t.watches <- d
     end);
    heap_insert t v;
    v + 1

  (* ----------------------- assignment and trail ---------------------- *)

  let enqueue t l reason =
    let v = var l in
    t.assign.(v) <- (if sign l = 0 then 1 else -1);
    t.level.(v) <- decision_level t;
    t.reason.(v) <- reason;
    t.trail.(t.trail_sz) <- l;
    t.trail_sz <- t.trail_sz + 1;
    t.propagations <- t.propagations + 1

  let new_decision_level t =
    t.trail_lim.(t.trail_lim_sz) <- t.trail_sz;
    t.trail_lim_sz <- t.trail_lim_sz + 1

  let cancel_until t lvl =
    if decision_level t > lvl then begin
      let bound = t.trail_lim.(lvl) in
      for i = t.trail_sz - 1 downto bound do
        let l = t.trail.(i) in
        let v = var l in
        t.phase.(v) <- t.assign.(v) = 1;
        t.assign.(v) <- 0;
        t.reason.(v) <- None;
        heap_insert t v
      done;
      t.trail_sz <- bound;
      t.qhead <- bound;
      t.trail_lim_sz <- lvl
    end

  (* --------------------------- propagation --------------------------- *)

  let attach t c =
    cpush t.watches.(c.lits.(0)) c;
    cpush t.watches.(c.lits.(1)) c

  let propagate t =
    let confl = ref None in
    while !confl = None && t.qhead < t.trail_sz do
      let p = t.trail.(t.qhead) in
      t.qhead <- t.qhead + 1;
      let false_lit = p lxor 1 in
      let ws = t.watches.(false_lit) in
      let n = ws.sz in
      let i = ref 0 and j = ref 0 in
      while !i < n do
        let c = ws.data.(!i) in
        incr i;
        if not c.deleted then begin
          let lits = c.lits in
          (* normalise: the false watched literal sits at index 1 *)
          if lits.(0) = false_lit then begin
            lits.(0) <- lits.(1);
            lits.(1) <- false_lit
          end;
          let first = lits.(0) in
          if value t first = 1 then begin
            (* clause already satisfied: keep the watch *)
            ws.data.(!j) <- c;
            incr j
          end
          else begin
            (* look for a non-false literal to watch instead *)
            let len = Array.length lits in
            let k = ref 2 in
            while !k < len && value t lits.(!k) = -1 do
              incr k
            done;
            if !k < len then begin
              lits.(1) <- lits.(!k);
              lits.(!k) <- false_lit;
              cpush t.watches.(lits.(1)) c
            end
            else begin
              ws.data.(!j) <- c;
              incr j;
              if value t first = -1 then begin
                (* conflict: keep the remaining watches and stop *)
                confl := Some c;
                while !i < n do
                  ws.data.(!j) <- ws.data.(!i);
                  incr j;
                  incr i
                done;
                t.qhead <- t.trail_sz
              end
              else enqueue t first (Some c)
            end
          end
        end
      done;
      ws.sz <- !j
    done;
    !confl

  (* ------------------------ conflict analysis ------------------------ *)

  (* First-UIP: walk the trail backwards resolving on literals of the
     current decision level until one remains; the learnt clause is that
     UIP's negation plus the lower-level literals met on the way. *)
  let analyze t confl =
    let lower = ref [] in
    let pathc = ref 0 in
    let p = ref (-1) in
    let c = ref confl in
    let index = ref (t.trail_sz - 1) in
    let to_clear = ref [] in
    let looping = ref true in
    while !looping do
      if !c.learnt then bump_clause t !c;
      let lits = !c.lits in
      let start = if !p = -1 then 0 else 1 in
      for k = start to Array.length lits - 1 do
        let q = lits.(k) in
        let v = var q in
        if (not t.seen.(v)) && t.level.(v) > 0 then begin
          bump_var t v;
          t.seen.(v) <- true;
          to_clear := v :: !to_clear;
          if t.level.(v) >= decision_level t then incr pathc
          else lower := q :: !lower
        end
      done;
      while not t.seen.(var t.trail.(!index)) do
        decr index
      done;
      p := t.trail.(!index);
      decr index;
      t.seen.(var !p) <- false;
      decr pathc;
      if !pathc = 0 then looping := false
      else
        c :=
          (match t.reason.(var !p) with
          | Some r -> r
          | None -> assert false (* a decision cannot be mid-path *))
    done;
    let learnt = Array.of_list ((!p lxor 1) :: !lower) in
    List.iter (fun v -> t.seen.(v) <- false) !to_clear;
    let bt =
      if Array.length learnt = 1 then 0
      else begin
        (* the second-highest decision level, swapped into the watch slot *)
        let mx = ref 1 in
        for k = 2 to Array.length learnt - 1 do
          if t.level.(var learnt.(k)) > t.level.(var learnt.(!mx)) then mx := k
        done;
        let tmp = learnt.(1) in
        learnt.(1) <- learnt.(!mx);
        learnt.(!mx) <- tmp;
        t.level.(var learnt.(1))
      end
    in
    (learnt, bt)

  let record_learnt t lits =
    if Array.length lits = 1 then enqueue t lits.(0) None
    else begin
      let c = { lits; learnt = true; act = 0.0; deleted = false } in
      attach t c;
      cpush t.learnts c;
      bump_clause t c;
      enqueue t lits.(0) (Some c)
    end;
    t.learned <- t.learned + 1

  (* ----------------------- learnt-DB reduction ----------------------- *)

  let locked t c =
    Array.length c.lits > 0
    &&
    match t.reason.(var c.lits.(0)) with
    | Some r -> r == c && value t c.lits.(0) = 1
    | None -> false

  let reduce_db t =
    let ls = Array.sub t.learnts.data 0 t.learnts.sz in
    Array.sort (fun a b -> Float.compare a.act b.act) ls;
    let keep_from = t.learnts.sz / 2 in
    Array.iteri
      (fun i c ->
        if i < keep_from && Array.length c.lits > 2 && not (locked t c) then
          c.deleted <- true)
      ls;
    let j = ref 0 in
    for i = 0 to t.learnts.sz - 1 do
      let c = t.learnts.data.(i) in
      if not c.deleted then begin
        t.learnts.data.(!j) <- c;
        incr j
      end
    done;
    t.learnts.sz <- !j;
    t.max_learnts <- t.max_learnts *. 1.15

  (* ---------------------------- add_clause --------------------------- *)

  let add_clause t dimacs =
    if t.ok then begin
      let lits = List.sort_uniq compare (List.map (of_dimacs t) dimacs) in
      let rec tautology = function
        | a :: (b :: _ as rest) -> a lxor 1 = b || tautology rest
        | _ -> false
      in
      if not (tautology lits) then
        if List.exists (fun l -> value t l = 1) lits then ()
        else
          match List.filter (fun l -> value t l <> -1) lits with
          | [] -> t.ok <- false
          | [ l ] -> (
              enqueue t l None;
              match propagate t with
              | Some _ -> t.ok <- false
              | None -> ())
          | ls ->
              let c =
                { lits = Array.of_list ls; learnt = false; act = 0.0;
                  deleted = false }
              in
              attach t c;
              cpush t.clauses c
    end

  (* ------------------------------ search ----------------------------- *)

  (* Luby restart sequence: 1 1 2 1 1 2 4 ... *)
  let rec luby i =
    let rec size_seq sz len = if sz >= i + 1 then (sz, len) else size_seq ((2 * sz) + 1) (len + 1) in
    let sz, len = size_seq 1 0 in
    if sz = i + 1 then 1 lsl len else luby (i - (sz / 2))

  let restart_first = 100

  let steps t = t.decisions + t.propagations + t.conflicts

  let choose_var t =
    let rec go () =
      if t.heap_sz = 0 then None
      else
        let v = heap_pop t in
        if t.assign.(v) = 0 then Some v else go ()
    in
    go ()

  let save_model t =
    Array.blit t.assign 0 t.model 0 t.n_vars

  let search t ~asms ~within_budget =
    let result = ref None in
    let restarts = ref 0 in
    let conflict_c = ref 0 in
    let limit = ref (restart_first * luby 0) in
    while !result = None do
      match propagate t with
      | Some confl ->
          t.conflicts <- t.conflicts + 1;
          incr conflict_c;
          if decision_level t = 0 then begin
            t.ok <- false;
            result := Some Unsat
          end
          else begin
            let learnt, bt = analyze t confl in
            cancel_until t bt;
            record_learnt t learnt;
            decay_var t;
            decay_clause t;
            if not (within_budget ()) then result := Some Unknown
          end
      | None ->
          if not (within_budget ()) then result := Some Unknown
          else if !conflict_c >= !limit then begin
            incr restarts;
            conflict_c := 0;
            limit := restart_first * luby !restarts;
            cancel_until t 0
          end
          else begin
            if float_of_int t.learnts.sz >= t.max_learnts then reduce_db t;
            (* assumptions are decided first, one level each, in order *)
            let rec pick () =
              if decision_level t < Array.length asms then begin
                let p = asms.(decision_level t) in
                match value t p with
                | 1 ->
                    new_decision_level t;
                    pick ()
                | -1 -> result := Some Unsat
                | _ ->
                    new_decision_level t;
                    enqueue t p None
              end
              else
                match choose_var t with
                | None ->
                    save_model t;
                    result := Some Sat
                | Some v ->
                    t.decisions <- t.decisions + 1;
                    new_decision_level t;
                    enqueue t (mk_lit v (if t.phase.(v) then 0 else 1)) None
            in
            pick ()
          end
    done;
    cancel_until t 0;
    match !result with Some r -> r | None -> assert false

  (* ----------------------------- metrics ----------------------------- *)

  let m_conflicts = Metrics.counter "thr_sat_conflicts_total"

  let m_decisions = Metrics.counter "thr_sat_decisions_total"

  let m_propagations = Metrics.counter "thr_sat_propagations_total"

  let m_learned = Metrics.counter "thr_sat_learned_clauses_total"

  let solve_buckets = [| 0.1; 1.0; 5.0; 10.0; 50.0; 100.0; 500.0; 1e3; 5e3; 3e4 |]

  let m_solve_ms = Metrics.histogram ~buckets:solve_buckets "thr_sat_solve_ms"

  (* per-phase siblings so `bench -- sat` can attribute solve time to the
     plain BMC sweep, the k-induction base case or the inductive step *)
  let m_solve_ms_bmc =
    Metrics.histogram ~buckets:solve_buckets "thr_sat_solve_ms_bmc"

  let m_solve_ms_base =
    Metrics.histogram ~buckets:solve_buckets "thr_sat_solve_ms_base"

  let m_solve_ms_step =
    Metrics.histogram ~buckets:solve_buckets "thr_sat_solve_ms_step"

  (* ------------------------------ solve ------------------------------ *)

  let solve ?(assumptions = []) ?phase ?max_steps t =
    Trace.with_span "sat.solve"
      ~args:
        [
          ("vars", string_of_int t.n_vars);
          ("clauses", string_of_int (t.clauses.sz + t.learnts.sz));
        ]
      (fun () ->
        let t0 = Trace.now_us () in
        let c0 = t.conflicts
        and d0 = t.decisions
        and p0 = t.propagations
        and l0 = t.learned in
        let s0 = steps t in
        let r =
          if not t.ok then Unsat
          else begin
            cancel_until t 0;
            let asms = Array.of_list (List.map (of_dimacs t) assumptions) in
            let within_budget () =
              match max_steps with None -> true | Some m -> steps t - s0 < m
            in
            search t ~asms ~within_budget
          end
        in
        Metrics.add m_conflicts (t.conflicts - c0);
        Metrics.add m_decisions (t.decisions - d0);
        Metrics.add m_propagations (t.propagations - p0);
        Metrics.add m_learned (t.learned - l0);
        let ms = (Trace.now_us () -. t0) /. 1e3 in
        Metrics.observe m_solve_ms ms;
        (match phase with
        | Some `Bmc -> Metrics.observe m_solve_ms_bmc ms
        | Some `Base -> Metrics.observe m_solve_ms_base ms
        | Some `Step -> Metrics.observe m_solve_ms_step ms
        | None -> ());
        r)

  let value t d =
    let v = abs d - 1 in
    if d = 0 || v >= t.n_vars then
      invalid_arg (Printf.sprintf "Solver.value: literal %d out of range" d);
    let a = t.model.(v) = 1 in
    if d > 0 then a else not a

  let ok t = t.ok

  let n_vars t = t.n_vars

  let n_clauses t = t.clauses.sz

  let n_learnts t = t.learnts.sz

  let conflicts t = t.conflicts

  let decisions t = t.decisions

  let propagations t = t.propagations

  let learned t = t.learned
end

let name_of_result = function
  | Solver.Sat -> "Sat"
  | Solver.Unsat -> "Unsat"
  | Solver.Unknown -> "Unknown"

let name_of_oracle_result = function
  | Solver_oracle.Sat -> "Sat"
  | Solver_oracle.Unsat -> "Unsat"
  | Solver_oracle.Unknown -> "Unknown"

(* Both solvers driven in lockstep; every step is compared. *)
type twin = { s : Solver.t; o : Solver_oracle.t }

let twin () = { s = Solver.create (); o = Solver_oracle.create () }

let tw_var t =
  let v = Solver.new_var t.s in
  if v <> Solver_oracle.new_var t.o then failwith "new_var numbering differs";
  v

let tw_clause t c =
  Solver.add_clause t.s c;
  Solver_oracle.add_clause t.o c

(* the first disagreement between the two solvers, if any *)
let disagreement t =
  let stat name a b =
    if a <> b then Some (Printf.sprintf "%s: arena %d, oracle %d" name a b)
    else None
  in
  List.find_map Fun.id
    [
      stat "n_vars" (Solver.n_vars t.s) (Solver_oracle.n_vars t.o);
      stat "conflicts" (Solver.conflicts t.s) (Solver_oracle.conflicts t.o);
      stat "decisions" (Solver.decisions t.s) (Solver_oracle.decisions t.o);
      stat "propagations" (Solver.propagations t.s)
        (Solver_oracle.propagations t.o);
      stat "learned" (Solver.learned t.s) (Solver_oracle.learned t.o);
      stat "n_clauses" (Solver.n_clauses t.s) (Solver_oracle.n_clauses t.o);
      stat "n_learnts" (Solver.n_learnts t.s) (Solver_oracle.n_learnts t.o);
      stat "ok" (Bool.to_int (Solver.ok t.s))
        (Bool.to_int (Solver_oracle.ok t.o));
    ]

(* solve both; [Error] names the first difference in the answer, the
   statistics or (after Sat) the model *)
let tw_solve ?assumptions ?max_steps t =
  let r = Solver.solve ?assumptions ?max_steps t.s in
  let r' = Solver_oracle.solve ?assumptions ?max_steps t.o in
  if name_of_result r <> name_of_oracle_result r' then
    Error
      (Printf.sprintf "result: arena %s, oracle %s" (name_of_result r)
         (name_of_oracle_result r'))
  else
    match disagreement t with
    | Some d -> Error d
    | None ->
        let model_diff = ref None in
        if r = Solver.Sat then
          for v = Solver.n_vars t.s downto 1 do
            if Solver.value t.s v <> Solver_oracle.value t.o v then
              model_diff := Some (Printf.sprintf "model differs at var %d" v)
          done;
        (match !model_diff with Some d -> Error d | None -> Ok r)

let tw_solve_ok ?assumptions ?max_steps label t =
  match tw_solve ?assumptions ?max_steps t with
  | Ok r -> r
  | Error d -> Alcotest.failf "%s: %s" label d

(* A random incremental session: variables, clauses of 0-5 literals
   (duplicates, tautologies, units and the empty clause included) and
   solves under random assumptions and step budgets.  Literals are drawn
   as raw ints and folded onto the variables allocated so far. *)
type op =
  | Op_var
  | Op_clause of (int * bool) list
  | Op_solve of (int * bool) list * int option

let session_gen =
  let open QCheck.Gen in
  let lit = pair (int_bound 1000) bool in
  let clause_len =
    frequency
      [ (1, return 0); (3, return 1); (6, return 2); (12, return 3);
        (4, return 4); (2, return 5) ]
  in
  let op =
    frequency
      [
        (1, return Op_var);
        (14, map (fun c -> Op_clause c) (list_size clause_len lit));
        ( 3,
          map2
            (fun a m -> Op_solve (a, m))
            (list_size (int_bound 3) lit)
            (opt (int_range 1 300)) );
      ]
  in
  pair (int_range 1 14) (list_size (int_range 1 120) op)

let print_session (n0, ops) =
  let lits l =
    String.concat " "
      (List.map
         (fun (k, neg) -> Printf.sprintf "%s%d" (if neg then "-" else "") k)
         l)
  in
  Printf.sprintf "%d vars; %s" n0
    (String.concat "; "
       (List.map
          (function
            | Op_var -> "var"
            | Op_clause c -> "[" ^ lits c ^ "]"
            | Op_solve (a, m) ->
                Printf.sprintf "solve{%s}%s" (lits a)
                  (match m with None -> "" | Some m -> Printf.sprintf "/%d" m))
          ops))

(* the first literal of each variable: the oracle indexes its decision
   levels by variable, so an assumption list naming one variable twice
   can overflow it *)
let distinct_vars lits =
  List.rev
    (List.fold_left
       (fun acc l ->
         if List.exists (fun m -> abs m = abs l) acc then acc else l :: acc)
       [] lits)

let oracle_sessions =
  QCheck.Test.make ~name:"arena solver replays the oracle on random sessions"
    ~count:400
    (QCheck.make ~print:print_session session_gen)
    (fun (n0, ops) ->
      let t = twin () in
      for _ = 1 to n0 do
        ignore (tw_var t)
      done;
      let lit (k, neg) =
        let v = 1 + (k mod Solver.n_vars t.s) in
        if neg then -v else v
      in
      let fail step d = QCheck.Test.fail_reportf "op %d: %s" step d in
      let rec go step = function
        | [] -> true
        | op :: rest -> (
            let outcome =
              match op with
              | Op_var ->
                  ignore (tw_var t);
                  Option.fold ~none:(Ok ()) ~some:Result.error (disagreement t)
              | Op_clause c ->
                  tw_clause t (List.map lit c);
                  Option.fold ~none:(Ok ()) ~some:Result.error (disagreement t)
              | Op_solve (a, max_steps) ->
                  Result.map ignore
                    (tw_solve ~assumptions:(distinct_vars (List.map lit a))
                       ?max_steps t)
            in
            match outcome with
            | Ok () -> go (step + 1) rest
            | Error d -> fail step d)
      in
      go 0 ops)

(* PHP(h+1, h) on both solvers: thousands of conflicts, so restarts,
   learnt-clause deletion and (at 7 holes) the variable-activity rescale
   all run *)
let twin_pigeonhole t ?guard holes =
  let g c = match guard with None -> c | Some g -> -g :: c in
  pigeonhole_into ~fresh:(fun () -> tw_var t) ~add:(fun c -> tw_clause t (g c))
    holes

let test_oracle_pigeonhole () =
  List.iter
    (fun holes ->
      let t = twin () in
      twin_pigeonhole t holes;
      let label = Printf.sprintf "php(%d,%d)" (holes + 1) holes in
      Alcotest.(check string) label "Unsat"
        (name_of_result (tw_solve_ok label t)))
    [ 4; 6; 7 ]

(* Guarded pigeonhole copies, each decided under its own activation
   literal with the earlier copies switched off: every solve runs under
   assumptions, and learnt clauses and activities carry across calls. *)
let test_oracle_guarded_pigeonholes () =
  let t = twin () in
  let guards = ref [] in
  List.iteri
    (fun i holes ->
      let g = tw_var t in
      twin_pigeonhole t ~guard:g holes;
      let label = Printf.sprintf "copy %d" i in
      let asms = g :: List.map (fun x -> -x) !guards in
      ignore (tw_solve_ok ~assumptions:asms ~max_steps:2000 label t);
      Alcotest.(check string) label "Unsat"
        (name_of_result (tw_solve_ok ~assumptions:asms label t));
      guards := g :: !guards)
    [ 5; 6; 7 ];
  Alcotest.(check string) "all off" "Sat"
    (name_of_result
       (tw_solve_ok ~assumptions:(List.map (fun x -> -x) !guards) "all off" t))

(* Random 3-SAT at the satisfiability threshold (4.26 clauses per
   variable), whole and fed in batches with solves in between. *)
let random_3sat st t n_vars n_clauses =
  for _ = 1 to n_clauses do
    tw_clause t
      (List.init 3 (fun _ ->
           let v = 1 + Random.State.int st n_vars in
           if Random.State.bool st then v else -v))
  done

let test_oracle_random_3sat () =
  for seed = 1 to 4 do
    let st = Random.State.make [| seed |] in
    let t = twin () in
    for _ = 1 to 150 do
      ignore (tw_var t)
    done;
    random_3sat st t 150 639;
    ignore (tw_solve_ok (Printf.sprintf "seed %d" seed) t)
  done;
  let st = Random.State.make [| 42 |] in
  let t = twin () in
  for _ = 1 to 120 do
    ignore (tw_var t)
  done;
  for batch = 1 to 6 do
    random_3sat st t 120 85;
    let asms =
      List.init 4 (fun _ ->
          let v = 1 + Random.State.int st 120 in
          if Random.State.bool st then v else -v)
    in
    let label = Printf.sprintf "batch %d" batch in
    ignore (tw_solve_ok ~assumptions:asms ~max_steps:20_000 label t);
    ignore (tw_solve_ok label t)
  done

(* The prove pin: outcome shapes and solver-counter deltas
   (conflicts, decisions, propagations, learnt clauses) of
   [Induction.prove ~bound:8 ~jobs:1] under the lint's default step
   budget, on the six paper benchmarks with each canned Trojan, as the
   oracle solver produced them.  fir16 and elliptic use the latencies of
   the CI lints, the others their critical path plus one. *)
let paper_pin =
  [
    ("polynom", "trojan", "R3;R3;R3;R3;R3", [ 69; 5374; 33541; 69 ]);
    ("polynom", "trojan-seq", "R1;R1;R1;R2;R3;R3;R2;R2;R1;R1;R2;R2;R2;R2",
     [ 0; 1885; 5127; 0 ]);
    ("polynom", "trojan-dud", String.concat ";" (List.init 16 (fun _ -> "C1k")),
     [ 14; 423; 4224; 14 ]);
    ("diff2", "trojan", "R1;R1;R1;R1;R5;R5", [ 0; 746; 12252; 0 ]);
    ("diff2", "trojan-seq", "R1;R1;R1;R2;R3;R3;R2;R2;R1;R1;R2;R2;R2;R2",
     [ 0; 2562; 45333; 0 ]);
    ("diff2", "trojan-dud", String.concat ";" (List.init 21 (fun _ -> "C1k")),
     [ 29; 737; 8501; 29 ]);
    ("dtmf", "trojan", "R1;R1;R1;R1", [ 6; 610; 9504; 6 ]);
    ("dtmf", "trojan-seq", "R1;R1;R1;R2;R3;R3;R2;R2;R1;R1;R2;R2;R2;R2",
     [ 83; 6557; 76832; 83 ]);
    ("dtmf", "trojan-dud", "C1k;C1k;C1k;C1k;C1k", [ 4; 0; 3004; 4 ]);
    ("mof2", "trojan", "R2;R2;R2;R2", [ 162; 4260; 72903; 162 ]);
    ("mof2", "trojan-seq", "R1;R1;R1;R2;R3;R3;R2;R2;R1;R1;R2;R2;R2;R2",
     [ 234; 7725; 209184; 234 ]);
    ("mof2", "trojan-dud", "C1k;C1k;C1k;C1k;C1k", [ 4; 0; 1478; 4 ]);
    ("elliptic", "trojan", "I7;R7;R2;R2;R2", [ 437; 52423; 737499; 437 ]);
    ("elliptic", "trojan-seq",
     "R1;R1;R1;R2;R3;R3;R2;R2;R1;R1;R2;R2;R2;R2;I5;R6;U8;R6;U8;R6;R6;R6;R6;\
      R5;R5;R6;U8;U8;R5;U8;R1;R1;R1;R2;R3;R3;R2;R2;R1;R1;R2;R2;R2;R2",
     [ 868; 335007; 3008681; 868 ]);
    ("elliptic", "trojan-dud",
     String.concat ";" (List.init 10 (fun _ -> "C1k")),
     [ 7; 0; 7273; 7 ]);
    ("fir16", "trojan", String.concat ";" (List.init 16 (fun _ -> "R4")),
     [ 56; 97311; 427817; 56 ]);
    ("fir16", "trojan-seq",
     String.concat ";"
       (List.init 4 (fun _ -> "R1;R1;R1;R2;R3;R3;R2;R2;R1;R1;R2;R2;R2;R2")),
     [ 0; 11002; 27940; 0 ]);
    ("fir16", "trojan-dud", String.concat ";" (List.init 47 (fun _ -> "C1k")),
     [ 39; 4078; 37671; 39 ]);
  ]

let pin_shape = function
  | Bmc.Reachable w -> Printf.sprintf "R%d" w.Bmc.w_cycle
  | Bmc.Unreachable b -> Printf.sprintf "U%d" b
  | Bmc.Unreachable_unbounded c ->
      Printf.sprintf "C%d%c" c.Bmc.c_depth c.Bmc.c_method.[0]
  | Bmc.Inconclusive k -> Printf.sprintf "I%d" k

let check_paper_pin ~jobs =
  let module Rtl = Thr_runtime.Rtl in
  let module Metrics = Thr_obs.Metrics in
  let counters =
    List.map Metrics.counter
      [ "thr_sat_conflicts_total"; "thr_sat_decisions_total";
        "thr_sat_propagations_total"; "thr_sat_learned_clauses_total" ]
  in
  let design_of name =
    let dfg = Option.get (Thr_benchmarks.Suite.find name) in
    let cp = Thr_dfg.Dfg.critical_path dfg in
    let l_det, l_rec =
      match name with
      | "fir16" -> (7, 5)
      | "elliptic" -> (9, 8)
      | _ -> (cp + 1, cp)
    in
    let spec =
      Thr_hls.Spec.make ~dfg ~catalog:Thr_iplib.Catalog.eight_vendors
        ~latency_detect:l_det ~latency_recover:l_rec
        ~area_limit:(10 * 7000 * Thr_dfg.Dfg.n_ops dfg)
        ()
    in
    match Thr_opt.License_search.search spec with
    | Thr_opt.License_search.Solved { design; _ }, _ -> design
    | _ -> Alcotest.fail ("no design for " ^ name)
  in
  let injection = function
    | "trojan" -> Rtl.canned_injection
    | "trojan-seq" -> Rtl.canned_sequential_injection
    | _ -> Rtl.canned_dud_injection
  in
  List.iter
    (fun (name, mutant, shapes, deltas) ->
      let design = design_of name in
      let rtl =
        Rtl.elaborate ~width:16
          ~injections:[ injection mutant ~width:16 design ]
          design
      in
      (* the candidates [lint --prove] hands the portfolio, in its order *)
      let cands = ref [] in
      let prover ~net ~value =
        cands := (net, value) :: !cands;
        Bmc.Inconclusive 0
      in
      ignore (Rtl.check ~prove:8 ~prover rtl);
      let cands = Array.of_list (List.rev !cands) in
      let before = List.map Metrics.counter_value counters in
      let out =
        Induction.prove ~bound:8 ~budget:Thr_check.Check.default_prove_budget
          ~jobs rtl.Rtl.netlist cands
      in
      let label = Printf.sprintf "%s %s jobs=%d" name mutant jobs in
      Alcotest.(check string) (label ^ " outcomes") shapes
        (String.concat ";" (Array.to_list (Array.map pin_shape out)));
      Alcotest.(check (list int)) (label ^ " solver counters") deltas
        (List.map2 (fun c b -> Metrics.counter_value c - b) counters before))
    paper_pin

let test_oracle_paper_pin () = check_paper_pin ~jobs:1

(* Clusters fan out whole and keep their own solvers and meters, so the
   budgeted [jobs = 1] pin holds verbatim on bigger pools. *)
let test_paper_pin_jobs () =
  check_paper_pin ~jobs:2;
  check_paper_pin ~jobs:3

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
          Alcotest.test_case "repeated assumptions" `Quick
            test_repeated_assumptions;
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
          Alcotest.test_case "jobs-independent, 70 candidates" `Quick
            test_induction_jobs_determinism;
          QCheck_alcotest.to_alcotest induction_agrees_with_bmc;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest oracle_sessions;
          Alcotest.test_case "pigeonhole" `Quick test_oracle_pigeonhole;
          Alcotest.test_case "guarded pigeonholes under assumptions" `Quick
            test_oracle_guarded_pigeonholes;
          Alcotest.test_case "random 3-SAT at the threshold" `Quick
            test_oracle_random_3sat;
          Alcotest.test_case "paper benchmarks pinned" `Quick
            test_oracle_paper_pin;
          Alcotest.test_case "paper pin holds at jobs 2 and 3" `Quick
            test_paper_pin_jobs;
        ] );
    ]
