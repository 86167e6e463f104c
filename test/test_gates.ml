(* Tests for the gate-level netlist and simulator. *)

module Netlist = Thr_gates.Netlist
module Sim = Thr_gates.Sim
module Bus = Thr_gates.Bus

let truth_table2 build expected =
  let nl = Netlist.create ~name:"tt" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  Netlist.output nl "o" (build nl a b);
  let sim = Sim.create nl in
  List.iter
    (fun ((va, vb), want) ->
      Sim.set_inputs sim [ ("a", va); ("b", vb) ];
      Sim.settle sim;
      Alcotest.(check bool)
        (Printf.sprintf "(%b,%b)" va vb)
        want (Sim.output sim "o"))
    (List.combine
       [ (false, false); (false, true); (true, false); (true, true) ]
       expected)

let test_and () = truth_table2 Netlist.and_ [ false; false; false; true ]

let test_or () = truth_table2 Netlist.or_ [ false; true; true; true ]

let test_xor () = truth_table2 Netlist.xor_ [ false; true; true; false ]

let test_nand () = truth_table2 Netlist.nand_ [ true; true; true; false ]

let test_nor () = truth_table2 Netlist.nor_ [ true; false; false; false ]

let test_not_const_mux () =
  let nl = Netlist.create ~name:"m" in
  let s = Netlist.input nl "s" in
  let t0 = Netlist.const nl false and t1 = Netlist.const nl true in
  Netlist.output nl "mux" (Netlist.mux nl ~sel:s ~t0 ~t1);
  Netlist.output nl "ns" (Netlist.not_ nl s);
  let sim = Sim.create nl in
  Sim.set_input sim "s" false;
  Sim.settle sim;
  Alcotest.(check bool) "mux 0" false (Sim.output sim "mux");
  Alcotest.(check bool) "not 0" true (Sim.output sim "ns");
  Sim.set_input sim "s" true;
  Sim.settle sim;
  Alcotest.(check bool) "mux 1" true (Sim.output sim "mux");
  Alcotest.(check bool) "not 1" false (Sim.output sim "ns")

let test_dff_delay () =
  let nl = Netlist.create ~name:"d" in
  let d = Netlist.input nl "d" in
  let q = Netlist.dff nl d in
  Netlist.output nl "q" q;
  let sim = Sim.create nl in
  Alcotest.(check bool) "powers on at init" false (Sim.output sim "q" = true);
  Sim.step sim [ ("d", true) ];
  Alcotest.(check bool) "captured" true (Sim.output sim "q");
  Sim.step sim [ ("d", false) ];
  Alcotest.(check bool) "updated" false (Sim.output sim "q")

let test_dff_init () =
  let nl = Netlist.create ~name:"d1" in
  let d = Netlist.input nl "d" in
  Netlist.output nl "q" (Netlist.dff nl ~init:true d);
  let sim = Sim.create nl in
  Sim.settle sim;
  Alcotest.(check bool) "init 1" true (Sim.output sim "q")

let test_dff_loop_toggle () =
  (* q = dff(not q) toggles every cycle *)
  let nl = Netlist.create ~name:"t" in
  let q = Netlist.dff_loop nl (fun q -> Netlist.not_ nl q) in
  Netlist.output nl "q" q;
  let sim = Sim.create nl in
  let observed = List.init 4 (fun _ ->
      Sim.clock sim;
      Sim.output sim "q")
  in
  Alcotest.(check (list bool)) "toggle" [ true; false; true; false ] observed

let test_counter () =
  let nl = Netlist.create ~name:"c" in
  let en = Netlist.input nl "en" in
  let c = Bus.counter nl ~width:4 ~enable:en in
  Netlist.output nl "tc" (Bus.all_ones nl c);
  let sim = Sim.create nl in
  Sim.set_input sim "en" true;
  for expect = 1 to 15 do
    Sim.clock sim;
    Alcotest.(check int) (Printf.sprintf "count %d" expect) expect
      (Bus.to_int (Sim.peek sim) c)
  done;
  Alcotest.(check bool) "terminal count" true (Sim.output sim "tc");
  Sim.clock sim;
  Alcotest.(check int) "wraps" 0 (Bus.to_int (Sim.peek sim) c);
  Sim.set_input sim "en" false;
  Sim.clock sim;
  Alcotest.(check int) "holds when disabled" 0 (Bus.to_int (Sim.peek sim) c)

let test_reset () =
  let nl = Netlist.create ~name:"r" in
  let en = Netlist.input nl "en" in
  let c = Bus.counter nl ~width:3 ~enable:en in
  ignore c;
  let sim = Sim.create nl in
  Sim.set_input sim "en" true;
  Sim.clock sim;
  Sim.clock sim;
  Sim.reset sim;
  Sim.set_input sim "en" true;
  Sim.clock sim;
  Alcotest.(check int) "back to 1 after reset" 1 (Bus.to_int (Sim.peek sim) c)

let test_bus_eq_const () =
  let nl = Netlist.create ~name:"eq" in
  let b = Bus.inputs nl "b" 4 in
  Netlist.output nl "is5" (Bus.eq_const nl b 5);
  let sim = Sim.create nl in
  Bus.drive_int (Sim.set_input sim) "b" 4 5;
  Sim.settle sim;
  Alcotest.(check bool) "matches 5" true (Sim.output sim "is5");
  Bus.drive_int (Sim.set_input sim) "b" 4 6;
  Sim.settle sim;
  Alcotest.(check bool) "rejects 6" false (Sim.output sim "is5")

let test_bus_eq () =
  let nl = Netlist.create ~name:"eq2" in
  let a = Bus.inputs nl "a" 3 and b = Bus.inputs nl "b" 3 in
  Netlist.output nl "eq" (Bus.eq nl a b);
  let sim = Sim.create nl in
  Bus.drive_int (Sim.set_input sim) "a" 3 6;
  Bus.drive_int (Sim.set_input sim) "b" 3 6;
  Sim.settle sim;
  Alcotest.(check bool) "equal" true (Sim.output sim "eq");
  Bus.drive_int (Sim.set_input sim) "b" 3 2;
  Sim.settle sim;
  Alcotest.(check bool) "unequal" false (Sim.output sim "eq")

let test_bus_xor_enable () =
  let nl = Netlist.create ~name:"x" in
  let d = Bus.inputs nl "d" 8 in
  let en = Netlist.input nl "en" in
  let out = Bus.xor_enable nl d ~enable:en ~mask:0x0F in
  Bus.outputs nl "o" out;
  let sim = Sim.create nl in
  Bus.drive_int (Sim.set_input sim) "d" 8 0xAB;
  Sim.set_input sim "en" false;
  Sim.settle sim;
  Alcotest.(check int) "pass-through" 0xAB (Bus.to_int (Sim.peek sim) out);
  Sim.set_input sim "en" true;
  Sim.settle sim;
  Alcotest.(check int) "flipped low nibble" (0xAB lxor 0x0F)
    (Bus.to_int (Sim.peek sim) out)

let test_combinational_cycle_detected () =
  (* close a loop without a DFF: a = not a *)
  let nl = Netlist.create ~name:"cyc" in
  let q = Netlist.dff_loop nl (fun q -> q) in
  ignore q;
  (* that one is fine (identity through register); a real cycle needs a
     self-feeding gate, which the combinator API cannot express, so check
     the unconnected-DFF error path instead via a hand-built attempt *)
  Netlist.finalise nl;
  Alcotest.(check int) "one dff" 1 (Netlist.n_dffs nl)

let test_duplicate_names () =
  let nl = Netlist.create ~name:"dup" in
  let a = Netlist.input nl "a" in
  Alcotest.check_raises "duplicate input"
    (Invalid_argument "Netlist.input: duplicate input \"a\"") (fun () ->
      ignore (Netlist.input nl "a"));
  Netlist.output nl "o" a;
  Alcotest.check_raises "duplicate output"
    (Invalid_argument "Netlist.output: duplicate output \"o\"") (fun () ->
      Netlist.output nl "o" a)

let test_frozen_after_finalise () =
  let nl = Netlist.create ~name:"fr" in
  let a = Netlist.input nl "a" in
  Netlist.output nl "o" a;
  Netlist.finalise nl;
  Alcotest.check_raises "frozen"
    (Invalid_argument "Netlist.const: netlist is finalised") (fun () ->
      ignore (Netlist.const nl true))

let test_stats () =
  let nl = Netlist.create ~name:"st" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  let x = Netlist.and_ nl a b in
  let q = Netlist.dff nl x in
  Netlist.output nl "o" (Netlist.or_ nl q x);
  Alcotest.(check int) "gates" 2 (Netlist.n_gates nl);
  Alcotest.(check int) "dffs" 1 (Netlist.n_dffs nl);
  Alcotest.(check (list string)) "inputs" [ "a"; "b" ] (Netlist.input_names nl);
  Alcotest.(check (list string)) "outputs" [ "o" ] (Netlist.output_names nl)

let test_and_or_list () =
  let nl = Netlist.create ~name:"lists" in
  let ins = List.init 5 (fun i -> Netlist.input nl (Printf.sprintf "i%d" i)) in
  Netlist.output nl "all" (Netlist.and_list nl ins);
  Netlist.output nl "any" (Netlist.or_list nl ins);
  let sim = Sim.create nl in
  List.iteri (fun i _ -> Sim.set_input sim (Printf.sprintf "i%d" i) true) ins;
  Sim.settle sim;
  Alcotest.(check bool) "all true" true (Sim.output sim "all");
  Sim.set_input sim "i3" false;
  Sim.settle sim;
  Alcotest.(check bool) "one false kills and" false (Sim.output sim "all");
  Alcotest.(check bool) "or still true" true (Sim.output sim "any")

(* ------------------------ graph traversal ------------------------- *)

let test_readers_fanout () =
  let nl = Netlist.create ~name:"rd" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  let x = Netlist.and_ nl a b in
  let y = Netlist.or_ nl x a in
  let q = Netlist.dff nl x in
  Netlist.output nl "o" y;
  Netlist.output nl "q" q;
  Netlist.finalise nl;
  let fo = Netlist.fanout nl in
  let at n = fo.(Netlist.net_index n) in
  Alcotest.(check int) "x is read by y and the DFF" 2 (at x);
  Alcotest.(check int) "a is read by x and y" 2 (at a);
  Alcotest.(check int) "b is read by x" 1 (at b);
  Alcotest.(check int) "q drives nothing" 0 (at q)

let test_fold_cone () =
  let nl = Netlist.create ~name:"cone" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  let c = Netlist.input nl "c" in
  let x = Netlist.and_ nl a b in
  let q = Netlist.dff nl x in
  let y = Netlist.or_ nl q c in
  Netlist.output nl "o" y;
  Netlist.finalise nl;
  let idx = Netlist.net_index in
  let sorted_cone ?through_dffs roots =
    Netlist.fold_cone nl ?through_dffs ~roots (fun acc n -> idx n :: acc) []
    |> List.sort compare
  in
  (* through registers (default): the whole history of y *)
  Alcotest.(check (list int)) "cone of y through dffs"
    (List.sort compare [ idx a; idx b; idx c; idx x; idx q; idx y ])
    (sorted_cone [ y ]);
  (* combinational only: stops at the register boundary *)
  Alcotest.(check (list int)) "combinational cone of y"
    (List.sort compare [ idx c; idx q; idx y ])
    (sorted_cone ~through_dffs:false [ y ]);
  (* the membership mask agrees with the fold *)
  let mask = Netlist.in_cone nl ~through_dffs:false ~roots:[ y ] () in
  let members = ref [] in
  Array.iteri (fun i m -> if m then members := i :: !members) mask;
  Alcotest.(check (list int)) "in_cone mask agrees"
    (sorted_cone ~through_dffs:false [ y ])
    (List.sort compare !members);
  (* every net is in the cone of all outputs plus dff data nets *)
  Alcotest.(check int) "full design cone covers everything"
    (Netlist.n_nets nl)
    (Netlist.fold_cone nl ~roots:[ y ] (fun n _ -> n + 1) 0)

(* Property: an 8-bit ripple counter built from gates tracks an integer
   counter over a random enable sequence. *)
let counter_matches_integer =
  QCheck.Test.make ~name:"gate counter matches integer counter" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 60) bool)
    (fun enables ->
      let nl = Netlist.create ~name:"pc" in
      let en = Netlist.input nl "en" in
      let c = Bus.counter nl ~width:8 ~enable:en in
      let sim = Sim.create nl in
      let reference = ref 0 in
      List.for_all
        (fun e ->
          Sim.step sim [ ("en", e) ];
          if e then reference := (!reference + 1) land 0xFF;
          Bus.to_int (Sim.peek sim) c = !reference)
        enables)

(* ----------------------------- verilog ---------------------------- *)

module Verilog = Thr_gates.Verilog

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_verilog_structure () =
  let nl = Netlist.create ~name:"demo one" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b.0" in
  let x = Netlist.xor_ nl a b in
  let q = Netlist.dff nl ~init:true x in
  Netlist.output nl "out" (Netlist.mux nl ~sel:a ~t0:q ~t1:x);
  let v = Verilog.to_string nl in
  List.iter
    (fun frag -> Alcotest.(check bool) ("has " ^ frag) true (contains v frag))
    [
      "module demo_one";
      "input wire clk";
      "input wire rst";
      "input wire a";
      "input wire b_0";
      "output wire out";
      "a ^ b_0";
      "always @(posedge clk or posedge rst)";
      "<= 1'b1;";
      "endmodule";
    ]

let test_verilog_gate_counts () =
  (* one assign per combinational driver, one reg per DFF *)
  let nl = Netlist.create ~name:"counts" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  let g1 = Netlist.and_ nl a b in
  let g2 = Netlist.nor_ nl g1 a in
  let q = Netlist.dff nl g2 in
  Netlist.output nl "o" q;
  let v = Verilog.to_string nl in
  let count needle =
    let n = ref 0 in
    String.split_on_char '\n' v
    |> List.iter (fun l -> if contains l needle then incr n);
    !n
  in
  (* 2 gates + 1 output alias = 3 assigns, 1 reg *)
  Alcotest.(check int) "assigns" 3 (count "assign ");
  Alcotest.(check int) "regs" 1 (count "  reg ")

(* Build a random netlist from a seed script: each step picks a gate kind
   and operands among the nets built so far.  Reader-less nets are OR'd
   into a sink output so the emitted Verilog has no dangling wires by
   construction — which is exactly what the self-lint then verifies. *)
let random_netlist script =
  let nl = Netlist.create ~name:"rand" in
  let nets = ref [| Netlist.input nl "a"; Netlist.input nl "b" |] in
  let push n = nets := Array.append !nets [| n |] in
  List.iter
    (fun (kind, i, j) ->
      let pick k = !nets.(k mod Array.length !nets) in
      let x = pick i and y = pick j in
      push
        (match kind mod 9 with
        | 0 -> Netlist.and_ nl x y
        | 1 -> Netlist.or_ nl x y
        | 2 -> Netlist.xor_ nl x y
        | 3 -> Netlist.nand_ nl x y
        | 4 -> Netlist.nor_ nl x y
        | 5 -> Netlist.not_ nl x
        | 6 -> Netlist.mux nl ~sel:x ~t0:y ~t1:(pick (i + j))
        | 7 -> Netlist.dff nl ~init:(i mod 2 = 0) x
        | _ -> Netlist.and_ nl x (Netlist.const nl (j mod 2 = 0))))
    script;
  let fo = Netlist.fanout nl in
  let dangling =
    Array.to_list !nets
    |> List.filter (fun n -> fo.(Netlist.net_index n) = 0)
  in
  Netlist.output nl "sink" (Netlist.or_list nl dangling);
  Netlist.finalise nl;
  nl

(* The emitter's own lint: every declared wire has exactly one driver
   (one [assign]), every reg exactly two non-blocking assignments (reset
   arm + update arm), and every declared name is referenced at least
   once beyond its declaration and driver. *)
let verilog_self_lint v =
  let ident_counts = Hashtbl.create 64 in
  let n = String.length v in
  let is_ident c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9') || c = '_'
  in
  let i = ref 0 in
  while !i < n do
    if is_ident v.[!i] then begin
      let start = !i in
      while !i < n && is_ident v.[!i] do incr i done;
      let tok = String.sub v start (!i - start) in
      Hashtbl.replace ident_counts tok
        (1 + Option.value ~default:0 (Hashtbl.find_opt ident_counts tok))
    end
    else incr i
  done;
  let count_sub needle =
    let nn = String.length needle in
    let c = ref 0 in
    for k = 0 to n - nn do
      if String.sub v k nn = needle then incr c
    done;
    !c
  in
  let occurrences tok =
    Option.value ~default:0 (Hashtbl.find_opt ident_counts tok)
  in
  let failures = ref [] in
  let check cond msg = if not cond then failures := msg :: !failures in
  String.split_on_char '\n' v
  |> List.iter (fun line ->
         let declared prefix =
           if
             String.length line > String.length prefix
             && String.sub line 0 (String.length prefix) = prefix
           then
             Some
               (String.sub line (String.length prefix)
                  (String.length line - String.length prefix - 1))
           else None
         in
         (match declared "  wire " with
         | Some w ->
             check
               (count_sub (Printf.sprintf "  assign %s = " w) = 1)
               (w ^ " must have exactly one driver");
             check (occurrences w >= 3) (w ^ " is never read")
         | None -> ());
         (match declared "  reg " with
         | Some r ->
             check
               (count_sub (Printf.sprintf "      %s <= " r) = 2)
               (r ^ " must be assigned in both always arms");
             check (occurrences r >= 4) (r ^ " is never read")
         | None -> ()));
  List.rev !failures

let verilog_emits_linted_netlists =
  QCheck.Test.make ~name:"emitted verilog passes self-lint" ~count:40
    QCheck.(
      list_of_size
        Gen.(int_range 1 40)
        (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
    (fun script ->
      let nl = random_netlist script in
      match verilog_self_lint (Verilog.to_string nl) with
      | [] -> true
      | fs -> QCheck.Test.fail_report (String.concat "; " fs))

(* Reference fan-in walk: a list stack and each driver's operand list,
   pushed in operand order.  [Netlist.fold_cone] must visit the same
   nets in the same order. *)
let list_cone nl ~through_dffs ~roots =
  let seen = Array.make (Netlist.n_nets nl) false in
  let visit stack n =
    let i = Netlist.net_index n in
    if seen.(i) then stack
    else begin
      seen.(i) <- true;
      n :: stack
    end
  in
  let deps n =
    match Netlist.driver nl n with
    | Netlist.D_input _ | Netlist.D_const _ -> []
    | Netlist.D_dff k -> if through_dffs then [ Netlist.dff_data nl k ] else []
    | Netlist.D_not a -> [ a ]
    | Netlist.D_and (a, b)
    | Netlist.D_or (a, b)
    | Netlist.D_xor (a, b)
    | Netlist.D_nand (a, b)
    | Netlist.D_nor (a, b) ->
        [ a; b ]
    | Netlist.D_mux (s, a, b) -> [ s; a; b ]
  in
  let rec go acc = function
    | [] -> List.rev acc
    | n :: stack -> go (n :: acc) (List.fold_left visit stack (deps n))
  in
  go [] (List.fold_left visit [] roots)

let cone_matches_list_walk =
  QCheck.Test.make ~name:"fold_cone/in_cone = list walk" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 60)
           (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
        (list_of_size Gen.(int_range 1 4) (int_bound 1000)))
    (fun (script, picks) ->
      let nl = random_netlist script in
      let nets = Netlist.nets_in_order nl in
      let roots =
        List.map (fun k -> nets.(k mod Array.length nets)) picks
      in
      List.for_all
        (fun through_dffs ->
          let expected = list_cone nl ~through_dffs ~roots in
          let order =
            List.rev
              (Netlist.fold_cone nl ~through_dffs ~roots
                 (fun acc n -> n :: acc) [])
          in
          let mask = Netlist.in_cone nl ~through_dffs ~roots () in
          let members = Array.make (Netlist.n_nets nl) false in
          List.iter (fun n -> members.(Netlist.net_index n) <- true) expected;
          order = expected && mask = members)
        [ true; false ])

(* ------------------------- packed engine -------------------------- *)

module Packed = Thr_gates.Packed
module Prng = Thr_util.Prng

let test_lane_mask_popcount () =
  Alcotest.(check int) "mask 0" 0 (Packed.lane_mask 0);
  Alcotest.(check int) "mask 1" 1 (Packed.lane_mask 1);
  Alcotest.(check int) "mask 5" 31 (Packed.lane_mask 5);
  Alcotest.(check int) "mask lanes" (-1) (Packed.lane_mask Packed.lanes);
  Alcotest.(check int) "mask beyond" (-1) (Packed.lane_mask (Packed.lanes + 9));
  Alcotest.(check int) "pop 0" 0 (Packed.popcount 0);
  Alcotest.(check int) "pop 1" 1 (Packed.popcount 1);
  Alcotest.(check int) "pop 0xffff" 16 (Packed.popcount 0xffff);
  Alcotest.(check int) "pop full word" Sys.int_size (Packed.popcount (-1));
  Alcotest.(check int) "pop alternating" (Sys.int_size / 2)
    (Packed.popcount (Packed.lane_mask Packed.lanes land 0x2AAAAAAAAAAAAAAA))

(* All lanes of a packed counter advance independently: lanes whose
   enable bit is set count every cycle, the rest hold at zero. *)
let test_packed_counter_lanes () =
  let nl = Netlist.create ~name:"pcnt" in
  let en = Netlist.input nl "en" in
  let c = Bus.counter nl ~width:6 ~enable:en in
  Netlist.output nl "tc" (Bus.all_ones nl c);
  let st = Packed.strip ~words:1 nl in
  let lane n k = (Packed.strip_peek st n 0 lsr k) land 1 = 1 in
  (* enable every third lane *)
  let en_word = ref 0 in
  for k = 0 to Packed.lanes - 1 do
    if k mod 3 = 0 then en_word := !en_word lor (1 lsl k)
  done;
  Packed.strip_set_input st "en" 0 !en_word;
  let cycles = 11 in
  for _ = 1 to cycles do
    (* one Sim.clock edge *)
    Packed.strip_settle st;
    Packed.strip_latch st;
    Packed.strip_settle st
  done;
  for k = 0 to Packed.lanes - 1 do
    let v = Bus.to_int (fun n -> lane n k) c in
    Alcotest.(check int)
      (Printf.sprintf "lane %d" k)
      (if k mod 3 = 0 then cycles else 0)
      v
  done;
  (* reset returns every lane to power-on *)
  Packed.strip_reset st;
  Packed.strip_settle st;
  Alcotest.(check int) "reset clears" 0 (Bus.to_int (fun n -> lane n 0) c)

let test_packed_matches_scalar_basics () =
  (* same netlist, same stimulus, 1-word strip vs scalar, lane by lane *)
  let nl = Netlist.create ~name:"pbasic" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  let x = Netlist.xor_ nl a b in
  let q = Netlist.dff nl ~init:true (Netlist.nand_ nl x a) in
  Netlist.output nl "o" (Netlist.mux nl ~sel:q ~t0:x ~t1:b);
  let prng = Prng.create ~seed:7 in
  let batch = Packed.batch ~prng ~cycles:3 100 in
  let packed = Packed.run_strips ~words:1 nl batch in
  let scalar = Packed.run_reference nl batch in
  Alcotest.(check bool) "packed = scalar" true
    (Packed.equal_outputs packed scalar)

let test_packed_tape_cached () =
  let nl = Netlist.create ~name:"pcache" in
  let a = Netlist.input nl "a" in
  Netlist.output nl "o" (Netlist.not_ nl a);
  Alcotest.(check bool) "same tape object" true
    (Packed.tape nl == Packed.tape nl)

let test_packed_errors () =
  let nl = Netlist.create ~name:"perr" in
  let a = Netlist.input nl "a" in
  Netlist.output nl "o" a;
  let st = Packed.strip ~words:1 nl in
  Alcotest.check_raises "unknown input"
    (Invalid_argument "Packed.strip_set_input: unknown input \"zz\"")
    (fun () -> Packed.strip_set_input st "zz" 0 0);
  let prng = Prng.create ~seed:1 in
  Alcotest.check_raises "negative batch"
    (Invalid_argument "Packed.batch: negative size") (fun () ->
      ignore (Packed.batch ~prng (-1)));
  Alcotest.check_raises "zero cycles"
    (Invalid_argument "Packed.batch: cycles < 1") (fun () ->
      ignore (Packed.batch ~prng ~cycles:0 5))

(* ------------------------- strip engine --------------------------- *)

(* The equivalence property behind the engine: over random netlists
   (muxes, DFFs with mixed inits, multi-cycle sequences) and random
   batch sizes, both strip widths — single-domain and sharded over three
   domains, at full and low input activity — agree bit-for-bit with the
   scalar oracle.  Batches of up to 1200 vectors span several 8-word
   strips, so shards really form, and rarely end on a strip boundary. *)
let strips_equal_scalar =
  QCheck.Test.make
    ~name:
      "strip engine matches scalar Sim (S in {1,8}, activity 1.0/0.3, \
       sharded)"
    ~count:40
    QCheck.(
      triple
        (list_of_size
           Gen.(int_range 1 40)
           (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
        (int_range 1 1200)
        (int_range 1 5))
    (fun (script, n_vectors, cycles) ->
      let nl = random_netlist script in
      let prng = Prng.create ~seed:(n_vectors + (cycles * 1009)) in
      List.for_all
        (fun activity ->
          let batch = Packed.batch ~prng ~cycles ~activity n_vectors in
          let scalar = Packed.run_reference nl batch in
          List.for_all
            (fun (words, jobs) ->
              Packed.equal_outputs
                (Packed.run_strips ~jobs ~words nl batch)
                scalar
              ||
              (ignore
                 (QCheck.Test.fail_report
                    (Printf.sprintf
                       "strip run (S=%d, jobs=%d, activity %.1f) disagrees \
                        with scalar oracle"
                       words jobs activity));
               false))
            [ (1, 1); (8, 1); (1, 3); (8, 3) ])
        [ 1.0; 0.3 ])

(* Concurrent fault simulation: per-lane forced words over a shared
   stimulus stream agree with running each lane through scalar Sim. *)
let mutants_equal_reference =
  QCheck.Test.make ~name:"mutant-lane packing matches per-lane scalar runs"
    ~count:40
    QCheck.(
      quad
        (list_of_size
           Gen.(int_range 1 40)
           (triple (int_bound 1000) (int_bound 1000) (int_bound 1000)))
        (int_range 1 6)
        (pair int int)
        (int_range 0 3))
    (fun (script, cycles, (wa, wb), which) ->
      let nl = random_netlist script in
      let forced =
        match which with
        | 0 -> []
        | 1 -> [ ("a", wa) ]
        | 2 -> [ ("b", wb) ]
        | _ -> [ ("a", wa); ("b", wb) ]
      in
      let prng = Prng.create ~seed:(cycles + (which * 17)) in
      let packed = Packed.run_mutants ~cycles ~prng ~forced nl in
      let scalar = Packed.run_mutants_reference ~cycles ~prng ~forced nl in
      Packed.equal_outputs packed scalar
      || QCheck.Test.fail_report
           "mutant-lane run disagrees with per-lane scalar runs")

(* Strip tapes are cached under (uid, words), separately from the scalar
   tape: a new width compiles (tape bytes grow), re-requesting a width
   hits the cache. *)
let test_strip_tape_cache_keys () =
  let nl = Netlist.create ~name:"scache" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  let q = Netlist.dff nl ~init:false (Netlist.xor_ nl a b) in
  Netlist.output nl "o" (Netlist.and_ nl q (Netlist.or_ nl a b));
  Netlist.finalise nl;
  let module M = Thr_obs.Metrics in
  let compiles = M.counter "thr_sim_compiles_total" in
  let hits = M.counter "thr_sim_compile_cache_hits_total" in
  let bytes = M.counter "thr_sim_tape_bytes_total" in
  let c0 = M.counter_value compiles and b0 = M.counter_value bytes in
  ignore (Packed.strip ~words:1 nl);
  let c1 = M.counter_value compiles and b1 = M.counter_value bytes in
  Alcotest.(check bool) "first strip width compiles scalar + strip tapes" true
    (c1 - c0 >= 2);
  Alcotest.(check bool) "tape bytes accounted" true (b1 > b0);
  ignore (Packed.strip ~words:8 nl);
  let c2 = M.counter_value compiles and b2 = M.counter_value bytes in
  Alcotest.(check bool) "second width recompiles under its own key" true
    (c2 > c1 && b2 > b1);
  let h0 = M.counter_value hits in
  ignore (Packed.strip ~words:1 nl);
  ignore (Packed.strip ~words:8 nl);
  let c3 = M.counter_value compiles in
  Alcotest.(check int) "re-requested widths hit the cache" c2 c3;
  Alcotest.(check bool) "cache hits counted" true (M.counter_value hits > h0)

let test_strip_errors () =
  let nl = Netlist.create ~name:"serr" in
  let a = Netlist.input nl "a" in
  Netlist.output nl "o" (Netlist.not_ nl a);
  Alcotest.check_raises "bad width"
    (Invalid_argument "Packed.strip: words must be 1 or 8 (got 3)")
    (fun () -> ignore (Packed.strip ~words:3 nl));
  Alcotest.check_raises "no 4-word kernel"
    (Invalid_argument "Packed.strip: words must be 1 or 8 (got 4)")
    (fun () -> ignore (Packed.strip ~words:4 nl));
  let prng = Prng.create ~seed:1 in
  Alcotest.check_raises "bad activity"
    (Invalid_argument "Packed.batch: activity must be in (0, 1]") (fun () ->
      ignore (Packed.batch ~prng ~activity:0.0 5))

(* The per-lane bus writer and reader [Packed.strip_drive] and
   [Packed.strip_lane] used to be, kept verbatim as oracles for the
   word-at-a-time transposes. *)
module Lane_oracle = struct
  let lanes = Packed.lanes

  let strip_drive st bus n value =
    let nb = Array.length bus in
    let acc = Array.make nb 0 in
    for w = 0 to Packed.strip_words st - 1 do
      let base = w * lanes in
      for k = 0 to min lanes (n - base) - 1 do
        let v = value (base + k) in
        if v <> 0 then
          for i = 0 to nb - 1 do
            if (v lsr i) land 1 = 1 then acc.(i) <- acc.(i) lor (1 lsl k)
          done
      done;
      for i = 0 to nb - 1 do
        Packed.strip_poke st bus.(i) w acc.(i);
        acc.(i) <- 0
      done
    done

  let strip_lane st bus l =
    let w = l / lanes and k = l mod lanes in
    let v = ref 0 in
    for i = Array.length bus - 1 downto 0 do
      v := (!v lsl 1) lor ((Packed.strip_peek_index st bus.(i) w lsr k) land 1)
    done;
    !v
end

(* a bus of [nb] primary inputs, each also a primary output *)
let bus_netlist nb =
  let nl = Netlist.create ~name:(Printf.sprintf "bus%d" nb) in
  let bus = Bus.inputs nl "x" nb in
  Bus.outputs nl "y" bus;
  Netlist.finalise nl;
  (nl, Array.map Netlist.net_index bus)

let transpose_cases =
  QCheck.(
    quad (oneofl [ 1; 16; 61 ]) (int_range 1 504) (oneofl [ 1; 8 ]) small_int)

(* [strip_drive] against the oracle: identical bus words in every word
   of the strip (lanes at and past [n] zero, a word already holding
   stimulus overwritten), and [value] called once per lane in the same
   order *)
let drive_matches_oracle =
  QCheck.Test.make ~name:"strip_drive = per-lane oracle (widths 1/16/61)"
    ~count:300 transpose_cases (fun (nb, n, words, seed) ->
      let n = min n (words * Packed.lanes) in
      let nl, bus = bus_netlist nb in
      let vals =
        let prng = Prng.create ~seed in
        Array.init n (fun _ ->
            match Prng.int prng 4 with
            | 0 -> 0
            | 1 -> (1 lsl nb) - 1
            | _ -> Prng.int prng (1 lsl min nb 30) lor (Prng.int prng 2 lsl (nb - 1)))
      in
      let drive f =
        let st = Packed.strip ~words nl in
        (* garbage from an earlier drive must not survive *)
        Array.iter (fun net -> for w = 0 to words - 1 do Packed.strip_poke st net w (-1) done) bus;
        let calls = ref [] in
        f st bus n (fun l ->
            calls := l :: !calls;
            vals.(l));
        ( List.rev !calls,
          Array.map (fun net -> Array.init words (Packed.strip_peek_index st net)) bus )
      in
      drive Packed.strip_drive = drive Lane_oracle.strip_drive)

(* [strip_read] against the oracle, lane by lane over the first [n] lanes
   after a settle of random stimulus *)
let read_matches_oracle =
  QCheck.Test.make ~name:"strip_read = per-lane oracle (widths 1/16/61)"
    ~count:300 transpose_cases (fun (nb, n, words, seed) ->
      let nl, bus = bus_netlist nb in
      let st = Packed.strip ~words nl in
      let prng = Prng.create ~seed in
      Array.iter
        (fun net ->
          for w = 0 to words - 1 do
            Packed.strip_poke st net w (Prng.int prng max_int)
          done)
        bus;
      Packed.strip_settle st;
      let out = Array.make Packed.lanes (-1) in
      List.for_all
        (fun l ->
          if l mod Packed.lanes = 0 then Packed.strip_read st bus (l / Packed.lanes) out;
          out.(l mod Packed.lanes) = Lane_oracle.strip_lane st bus l)
        (List.init (min n (words * Packed.lanes)) Fun.id))

let test_verilog_module_name_override () =
  let nl = Netlist.create ~name:"x" in
  let a = Netlist.input nl "a" in
  Netlist.output nl "o" a;
  let v = Verilog.to_string ~module_name:"My Top!" nl in
  Alcotest.(check bool) "sanitised override" true (contains v "module My_Top_")

let () =
  Alcotest.run "gates"
    [
      ( "gates",
        [
          Alcotest.test_case "and" `Quick test_and;
          Alcotest.test_case "or" `Quick test_or;
          Alcotest.test_case "xor" `Quick test_xor;
          Alcotest.test_case "nand" `Quick test_nand;
          Alcotest.test_case "nor" `Quick test_nor;
          Alcotest.test_case "not/const/mux" `Quick test_not_const_mux;
          Alcotest.test_case "and_list/or_list" `Quick test_and_or_list;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "dff delay" `Quick test_dff_delay;
          Alcotest.test_case "dff init" `Quick test_dff_init;
          Alcotest.test_case "dff_loop toggle" `Quick test_dff_loop_toggle;
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "reset" `Quick test_reset;
          QCheck_alcotest.to_alcotest counter_matches_integer;
        ] );
      ( "bus",
        [
          Alcotest.test_case "eq_const" `Quick test_bus_eq_const;
          Alcotest.test_case "eq" `Quick test_bus_eq;
          Alcotest.test_case "xor_enable" `Quick test_bus_xor_enable;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "registered loop ok" `Quick test_combinational_cycle_detected;
          Alcotest.test_case "duplicate names" `Quick test_duplicate_names;
          Alcotest.test_case "frozen" `Quick test_frozen_after_finalise;
          Alcotest.test_case "stats" `Quick test_stats;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "readers and fanout" `Quick test_readers_fanout;
          Alcotest.test_case "fold_cone" `Quick test_fold_cone;
          QCheck_alcotest.to_alcotest cone_matches_list_walk;
        ] );
      ( "packed",
        [
          Alcotest.test_case "lane_mask/popcount" `Quick test_lane_mask_popcount;
          Alcotest.test_case "counter lanes independent" `Quick
            test_packed_counter_lanes;
          Alcotest.test_case "matches scalar (sequential mux)" `Quick
            test_packed_matches_scalar_basics;
          Alcotest.test_case "tape cached" `Quick test_packed_tape_cached;
          Alcotest.test_case "errors" `Quick test_packed_errors;
        ] );
      ( "strips",
        [
          Alcotest.test_case "tape cache keys + bytes" `Quick
            test_strip_tape_cache_keys;
          Alcotest.test_case "errors" `Quick test_strip_errors;
          QCheck_alcotest.to_alcotest drive_matches_oracle;
          QCheck_alcotest.to_alcotest read_matches_oracle;
          QCheck_alcotest.to_alcotest strips_equal_scalar;
          QCheck_alcotest.to_alcotest mutants_equal_reference;
        ] );
      ( "verilog",
        [
          Alcotest.test_case "structure" `Quick test_verilog_structure;
          Alcotest.test_case "gate counts" `Quick test_verilog_gate_counts;
          Alcotest.test_case "module name override" `Quick
            test_verilog_module_name_override;
          QCheck_alcotest.to_alcotest verilog_emits_linted_netlists;
        ] );
    ]
