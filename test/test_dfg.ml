(* Tests for thr_dfg: graph construction, analysis, parsing, evaluation,
   input profiling. *)

module Dfg = Thr_dfg.Dfg
module B = Thr_dfg.Dfg.Builder
module Op = Thr_dfg.Op
module Parse = Thr_dfg.Parse
module Eval = Thr_dfg.Eval
module Profile = Thr_dfg.Profile
open Thr_dfg.Op

(* diamond: n0 = a+b; n1 = n0*c; n2 = n0-d; n3 = n1+n2 *)
let diamond () =
  let b = B.create ~name:"diamond" in
  let a = B.input b "a" and bb = B.input b "b" in
  let c = B.input b "c" and d = B.input b "d" in
  let n0 = B.add_op b Add [ a; bb ] in
  let n1 = B.add_op b Mul [ n0; c ] in
  let n2 = B.add_op b Sub [ n0; d ] in
  let _ = B.add_op b Add [ n1; n2 ] in
  B.build b

let test_builder_basics () =
  let d = diamond () in
  Alcotest.(check int) "n_ops" 4 (Dfg.n_ops d);
  Alcotest.(check string) "name" "diamond" (Dfg.name d);
  Alcotest.(check (list string)) "inputs in first-use order" [ "a"; "b"; "c"; "d" ]
    (Dfg.inputs d)

let test_builder_arity_check () =
  let b = B.create ~name:"bad" in
  let a = B.input b "a" in
  Alcotest.check_raises "one operand"
    (Invalid_argument "Dfg.Builder.add_op: add expects 2 operands") (fun () ->
      ignore (B.add_op b Add [ a ]))

let test_builder_dangling () =
  let b = B.create ~name:"bad" in
  Alcotest.check_raises "dangling node"
    (Invalid_argument "Dfg.Builder.add_op: dangling node operand") (fun () ->
      ignore (B.add_op b Add [ Dfg.Node 3; Dfg.Const 1 ]))

let test_builder_empty () =
  let b = B.create ~name:"empty" in
  Alcotest.check_raises "empty graph"
    (Invalid_argument "Dfg.Builder.build: empty graph") (fun () ->
      ignore (B.build b))

let test_edges_preds_succs () =
  let d = diamond () in
  Alcotest.(check (list (pair int int))) "edges"
    [ (0, 1); (0, 2); (1, 3); (2, 3) ]
    (Dfg.edges d);
  Alcotest.(check (list int)) "preds of 3" [ 1; 2 ] (Dfg.preds d 3);
  Alcotest.(check (list int)) "succs of 0" [ 1; 2 ] (Dfg.succs d 0);
  Alcotest.(check (list int)) "outputs" [ 3 ] (Dfg.outputs d)

let test_duplicate_operand_edges () =
  let b = B.create ~name:"square" in
  let x = B.input b "x" in
  let n0 = B.add_op b Mul [ x; x ] in
  let _ = B.add_op b Mul [ n0; n0 ] in
  let d = B.build b in
  Alcotest.(check (list (pair int int))) "edge deduplicated" [ (0, 1) ] (Dfg.edges d);
  Alcotest.(check (list int)) "single pred" [ 0 ] (Dfg.preds d 1)

let test_asap_alap_mobility () =
  let d = diamond () in
  Alcotest.(check (array int)) "asap" [| 1; 2; 2; 3 |] (Dfg.asap d);
  Alcotest.(check int) "critical path" 3 (Dfg.critical_path d);
  Alcotest.(check (array int)) "alap at cp" [| 1; 2; 2; 3 |] (Dfg.alap d ~latency:3);
  Alcotest.(check (array int)) "alap slack" [| 2; 3; 3; 4 |] (Dfg.alap d ~latency:4);
  Alcotest.(check (array int)) "mobility" [| 1; 1; 1; 1 |] (Dfg.mobility d ~latency:4)

let test_alap_too_tight () =
  let d = diamond () in
  Alcotest.check_raises "latency below cp"
    (Invalid_argument "Dfg.alap: latency 2 below critical path 3") (fun () ->
      ignore (Dfg.alap d ~latency:2))

let test_sibling_pairs () =
  let d = diamond () in
  (* co-parents: (a,b) feed n0 are inputs not ops; (n1,n2) feed n3 *)
  Alcotest.(check (list (pair int int))) "siblings" [ (1, 2) ] (Dfg.sibling_pairs d)

let test_count_kind () =
  let d = diamond () in
  Alcotest.(check int) "adds" 2 (Dfg.count_kind d Add);
  Alcotest.(check int) "muls" 1 (Dfg.count_kind d Mul);
  Alcotest.(check int) "subs" 1 (Dfg.count_kind d Sub);
  Alcotest.(check int) "lts" 0 (Dfg.count_kind d Lt)

let test_node_out_of_range () =
  let d = diamond () in
  Alcotest.check_raises "bad id" (Invalid_argument "Dfg.node: id out of range")
    (fun () -> ignore (Dfg.node d 4))

let test_to_dot () =
  let s = Dfg.to_dot (diamond ()) in
  Alcotest.(check bool) "digraph" true (String.length s > 10);
  List.iter
    (fun frag ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("contains " ^ frag) true (contains s frag))
    [ "digraph"; "n0 -> n1"; "n2 -> n3"; "in_a" ]

(* ------------------------------ ops ------------------------------- *)

let test_op_strings () =
  List.iter
    (fun k ->
      Alcotest.(check (option string)) "round trip" (Some (Op.to_string k))
        (Option.map Op.to_string (Op.of_string (Op.to_string k))))
    Op.all;
  Alcotest.(check (option string)) "unknown" None
    (Option.map Op.to_string (Op.of_string "div"))

let test_op_eval () =
  Alcotest.(check int) "add" 7 (Op.eval Add 3 4);
  Alcotest.(check int) "sub" (-1) (Op.eval Sub 3 4);
  Alcotest.(check int) "mul" 12 (Op.eval Mul 3 4);
  Alcotest.(check int) "lt true" 1 (Op.eval Lt 3 4);
  Alcotest.(check int) "lt false" 0 (Op.eval Lt 4 3);
  Alcotest.(check int) "shl" 12 (Op.eval Shl 3 2);
  Alcotest.(check int) "shr" (-2) (Op.eval Shr (-8) 2)

(* ----------------------------- parse ------------------------------ *)

let test_parse_round_trip () =
  let d = diamond () in
  match Parse.of_string (Parse.to_string d) with
  | Ok d' -> Alcotest.(check bool) "equal" true (Dfg.equal d d')
  | Error e -> Alcotest.fail (Format.asprintf "%a" Parse.pp_error e)

let test_parse_errors () =
  let bad l =
    match Parse.of_string l with
    | Ok _ -> Alcotest.fail ("should not parse: " ^ l)
    | Error _ -> ()
  in
  bad "";
  bad "dfg x\nn0 = add a b";            (* undeclared input *)
  bad "dfg x\ninput a\nn1 = add a a";   (* wrong lhs numbering *)
  bad "dfg x\ninput a\nn0 = frob a a";  (* unknown op *)
  bad "dfg x\ninput a\nn0 = add a";     (* arity *)
  bad "dfg x\ninput a\nn0 = add a n0";  (* forward/self reference *)
  bad "dfg x\ndfg y\ninput a\nn0 = add a a"; (* duplicate header *)
  bad "input a\nn0 = add a a";          (* op before any header *)
  bad "dfg x\ninput a\nn0 = add a a\nn0 = add a a"; (* lhs repeats *)
  bad "dfg x\ninput a\nn2 = add a a";   (* numbering skips ahead *)
  bad "dfg x\ninput a\nn0 add a a";     (* missing '=' *)
  bad "dfg x\ninput a\nn0 = add a a a"; (* too many operands *)
  bad "dfg x\ninput a\nn0 = add a n99"  (* node id out of range *)

let test_parse_comments_and_consts () =
  let src = "# header comment\ndfg t\ninput a\n\nn0 = add a -3 # trailing\n" in
  match Parse.of_string src with
  | Ok d ->
      Alcotest.(check int) "one op" 1 (Dfg.n_ops d);
      Alcotest.(check (list (pair int int))) "evaluates" [ (0, 4) ]
        (Eval.outputs d [ ("a", 7) ])
  | Error e -> Alcotest.fail (Format.asprintf "%a" Parse.pp_error e)

let parse_round_trip_prop =
  QCheck.Test.make ~name:"parse round-trips generated DFGs" ~count:100
    QCheck.(small_int)
    (fun seed ->
      let prng = Thr_util.Prng.create ~seed in
      let d = Thr_benchmarks.Generator.generate ~prng () in
      match Parse.of_string (Parse.to_string d) with
      | Ok d' -> Dfg.equal d d'
      | Error _ -> false)

(* same property over the generator's whole shape space: op counts from a
   single op up to 40, any layering that fits, mul-heavy to mul-free *)
let parse_round_trip_varied_prop =
  QCheck.Test.make ~name:"parse round-trips varied DFG shapes" ~count:100
    QCheck.(triple small_int (int_bound 39) (int_bound 10))
    (fun (seed, ops, tenths) ->
      let n_ops = 1 + ops in
      let config =
        {
          Thr_benchmarks.Generator.n_ops;
          n_layers = 1 + (seed mod min n_ops 7);
          mul_ratio = float_of_int tenths /. 10.0;
          other_ratio = (10.0 -. float_of_int tenths) /. 20.0;
        }
      in
      let prng = Thr_util.Prng.create ~seed:(seed + (41 * ops)) in
      let d = Thr_benchmarks.Generator.generate ~config ~prng () in
      match Parse.of_string (Parse.to_string d) with
      | Ok d' -> Dfg.equal d d'
      | Error _ -> false)

(* ------------------------------ eval ------------------------------ *)

let test_eval_diamond () =
  let d = diamond () in
  let env = [ ("a", 2); ("b", 3); ("c", 4); ("d", 1) ] in
  (* n0=5, n1=20, n2=4, n3=24 *)
  Alcotest.(check (array int)) "values" [| 5; 20; 4; 24 |] (Eval.run d env)

let test_eval_missing_input () =
  let d = diamond () in
  Alcotest.check_raises "missing" (Invalid_argument "Eval: missing input \"d\"")
    (fun () -> ignore (Eval.run d [ ("a", 1); ("b", 1); ("c", 1) ]))

let test_eval_operand_values () =
  let d = diamond () in
  let env = [ ("a", 2); ("b", 3); ("c", 4); ("d", 1) ] in
  let values = Eval.run d env in
  Alcotest.(check (pair int int)) "n1 sees (n0, c)" (5, 4)
    (Eval.operand_values d env values 1)

let test_eval_fir16_dot_product () =
  let d = Thr_benchmarks.Suite.fir16 () in
  let env =
    List.concat
      (List.init 16 (fun i ->
           [ (Printf.sprintf "h%d" i, i + 1); (Printf.sprintf "x%d" i, 2) ]))
  in
  let expected = 2 * (16 * 17 / 2) in
  Alcotest.(check (list (pair int int))) "dot product"
    [ (30, expected) ]
    (Eval.outputs d env)

(* The assoc-walk evaluator [Eval.run] used to be, kept verbatim as the
   oracle for the compiled one: one [List.assoc_opt] per operand read. *)
module Assoc_eval = struct
  let lookup env name =
    match List.assoc_opt name env with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Eval: missing input %S" name)

  let operand_value _d env values = function
    | Dfg.Const v -> v
    | Dfg.Input s -> lookup env s
    | Dfg.Node i -> values.(i)

  let run d env =
    let n = Dfg.n_ops d in
    let values = Array.make n 0 in
    for i = 0 to n - 1 do
      let nd = Dfg.node d i in
      let a = operand_value d env values nd.Dfg.operands.(0) in
      let b = operand_value d env values nd.Dfg.operands.(1) in
      values.(i) <- Op.eval nd.Dfg.kind a b
    done;
    values
end

(* A [Generator] DFG rebuilt so that every op kind and constant operands
   occur, with some inputs declared ahead of use in a shuffled order and
   some declared but never read. *)
let varied_dfg prng =
  let n_ops = 1 + Thr_util.Prng.int prng 24 in
  let config =
    {
      Thr_benchmarks.Generator.n_ops;
      n_layers = 1 + Thr_util.Prng.int prng (min n_ops 5);
      mul_ratio = 0.3;
      other_ratio = 0.3;
    }
  in
  let g = Thr_benchmarks.Generator.generate ~config ~prng () in
  let b = B.create ~name:"varied" in
  let early = Array.of_list (Dfg.inputs g) in
  Thr_util.Prng.shuffle prng early;
  Array.iteri
    (fun k nm ->
      if Thr_util.Prng.bool prng then ignore (B.input b nm);
      if k mod 3 = 0 then ignore (B.input b (Printf.sprintf "unread%d" k)))
    early;
  let ids = Array.make (Dfg.n_ops g) (B.const 0) in
  let kinds = Array.of_list Op.all in
  Array.iter
    (fun nd ->
      let kind =
        if Thr_util.Prng.int prng 3 = 0 then Thr_util.Prng.pick prng kinds
        else nd.Dfg.kind
      in
      let operand = function
        | Dfg.Input _ when Thr_util.Prng.int prng 4 = 0 ->
            B.const (Thr_util.Prng.int_in prng (-70) 70)
        | Dfg.Input s -> B.input b s
        | Dfg.Const c -> B.const c
        | Dfg.Node i -> ids.(i)
      in
      let x = operand nd.Dfg.operands.(0) in
      let y = operand nd.Dfg.operands.(1) in
      ids.(nd.Dfg.id) <- B.add_op b kind [ x; y ])
    (Dfg.nodes g);
  B.build b

(* An environment for [d]: bindings in [Dfg.inputs] order (the order
   campaigns draw them in), or that order broken by an early duplicate,
   or fully shuffled; sometimes with later duplicates and unknown names,
   sometimes missing an input. *)
let varied_env prng d =
  let value () =
    if Thr_util.Prng.int prng 8 = 0 then Thr_util.Prng.int_in prng (-1 lsl 40) (1 lsl 40)
    else Thr_util.Prng.int_in prng (-300) 300
  in
  let base = List.map (fun nm -> (nm, value ())) (Dfg.inputs d) in
  let base =
    if Thr_util.Prng.int prng 3 = 0 && base <> [] then
      let drop = Thr_util.Prng.int prng (List.length base) in
      List.filteri (fun k _ -> k <> drop) base
    else base
  in
  let extras =
    List.init (Thr_util.Prng.int prng 3) (fun k -> (Printf.sprintf "extra%d" k, value ()))
  in
  let dups =
    List.filter_map
      (fun (nm, _) -> if Thr_util.Prng.int prng 4 = 0 then Some (nm, value ()) else None)
      base
  in
  match Thr_util.Prng.int prng 4 with
  | 0 -> base
  | 1 -> base @ dups @ extras
  | 2 -> (
      (* a duplicate right behind the first binding *)
      match base with
      | (nm, v) :: rest -> (nm, v) :: (nm, value ()) :: rest @ extras
      | [] -> extras)
  | _ ->
      let all = Array.of_list (base @ dups @ extras) in
      Thr_util.Prng.shuffle prng all;
      Array.to_list all

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let eval_matches_assoc_oracle =
  QCheck.Test.make ~name:"Eval.run/outputs = assoc-walk oracle" ~count:500
    QCheck.small_int (fun seed ->
      let prng = Thr_util.Prng.create ~seed in
      let d = varied_dfg prng in
      List.for_all
        (fun _ ->
          let env = varied_env prng d in
          let want = outcome (fun () -> Assoc_eval.run d env) in
          let want_outputs =
            Result.map (fun v -> List.map (fun i -> (i, v.(i))) (Dfg.outputs d)) want
          in
          (outcome (fun () -> Eval.run d env) = want
          && outcome (fun () -> Eval.outputs d env) = want_outputs)
          || QCheck.Test.fail_reportf "env %s disagrees"
               (String.concat "; "
                  (List.map (fun (nm, v) -> Printf.sprintf "%s=%d" nm v) env)))
        (List.init 8 Fun.id))

(* a missing input is an error only when it is read, and the error names
   the first unbound input in operand-read order, not declaration order *)
let test_eval_missing_read_order () =
  let b = B.create ~name:"order" in
  let a = B.input b "a" and bb = B.input b "b" in
  ignore (B.input b "never");
  let _ = B.add_op b Sub [ bb; a ] in
  let d = B.build b in
  Alcotest.(check (list string)) "declaration order" [ "a"; "b"; "never" ]
    (Dfg.inputs d);
  Alcotest.(check (array int)) "unread input may be missing" [| 3 |]
    (Eval.run d [ ("b", 5); ("a", 2) ]);
  Alcotest.check_raises "first read wins"
    (Invalid_argument "Eval: missing input \"b\"") (fun () ->
      ignore (Eval.run d []));
  Alcotest.check_raises "outputs too"
    (Invalid_argument "Eval: missing input \"a\"") (fun () ->
      ignore (Eval.outputs d [ ("b", 1) ]))

(* ---------------------------- profile ----------------------------- *)

let test_profile_identical_ops () =
  (* two adds with literally the same inputs must be closely related *)
  let b = B.create ~name:"twins" in
  let x = B.input b "x" and y = B.input b "y" in
  let _ = B.add_op b Add [ x; y ] in
  let _ = B.add_op b Add [ x; y ] in
  let _ = B.add_op b Mul [ x; y ] in
  let d = B.build b in
  let prng = Thr_util.Prng.create ~seed:3 in
  let related = Profile.closely_related ~prng d in
  Alcotest.(check (list (pair int int))) "adds related, mul not" [ (0, 1) ] related

let test_profile_distant_ops () =
  (* n0 = x+y vs n1 = (x*1000)+y: operands diverge far beyond delta *)
  let b = B.create ~name:"far" in
  let x = B.input b "x" and y = B.input b "y" in
  let big = B.add_op b Mul [ x; B.const 1000 ] in
  let _ = B.add_op b Add [ x; y ] in
  let _ = B.add_op b Add [ big; y ] in
  let d = B.build b in
  let prng = Thr_util.Prng.create ~seed:4 in
  let config = { Profile.default_config with input_lo = 50; input_hi = 1000 } in
  let related = Profile.closely_related ~config ~prng d in
  Alcotest.(check (list (pair int int))) "no pairs" [] related

let test_profile_max_distance () =
  let b = B.create ~name:"d" in
  let x = B.input b "x" in
  let _ = B.add_op b Add [ x; B.const 0 ] in
  let _ = B.add_op b Add [ x; B.const 5 ] in
  let d = B.build b in
  let prng = Thr_util.Prng.create ~seed:5 in
  Alcotest.(check int) "constant offset" 5 (Profile.max_distance ~prng d 0 1)

let test_profile_kind_mismatch () =
  let d = diamond () in
  let prng = Thr_util.Prng.create ~seed:6 in
  Alcotest.check_raises "kinds differ"
    (Invalid_argument "Profile.max_distance: ops have different kinds") (fun () ->
      ignore (Profile.max_distance ~prng d 0 1))

let () =
  Alcotest.run "dfg"
    [
      ( "builder",
        [
          Alcotest.test_case "basics" `Quick test_builder_basics;
          Alcotest.test_case "arity" `Quick test_builder_arity_check;
          Alcotest.test_case "dangling" `Quick test_builder_dangling;
          Alcotest.test_case "empty" `Quick test_builder_empty;
        ] );
      ( "graph",
        [
          Alcotest.test_case "edges/preds/succs" `Quick test_edges_preds_succs;
          Alcotest.test_case "duplicate operands" `Quick test_duplicate_operand_edges;
          Alcotest.test_case "asap/alap/mobility" `Quick test_asap_alap_mobility;
          Alcotest.test_case "alap too tight" `Quick test_alap_too_tight;
          Alcotest.test_case "siblings" `Quick test_sibling_pairs;
          Alcotest.test_case "count_kind" `Quick test_count_kind;
          Alcotest.test_case "node range" `Quick test_node_out_of_range;
          Alcotest.test_case "dot export" `Quick test_to_dot;
        ] );
      ( "op",
        [
          Alcotest.test_case "strings" `Quick test_op_strings;
          Alcotest.test_case "eval" `Quick test_op_eval;
        ] );
      ( "parse",
        [
          Alcotest.test_case "round trip" `Quick test_parse_round_trip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "comments/constants" `Quick test_parse_comments_and_consts;
          QCheck_alcotest.to_alcotest parse_round_trip_prop;
          QCheck_alcotest.to_alcotest parse_round_trip_varied_prop;
        ] );
      ( "eval",
        [
          Alcotest.test_case "diamond" `Quick test_eval_diamond;
          Alcotest.test_case "missing input" `Quick test_eval_missing_input;
          Alcotest.test_case "operand values" `Quick test_eval_operand_values;
          Alcotest.test_case "fir16 dot product" `Quick test_eval_fir16_dot_product;
          Alcotest.test_case "missing input read order" `Quick
            test_eval_missing_read_order;
          QCheck_alcotest.to_alcotest eval_matches_assoc_oracle;
        ] );
      ( "profile",
        [
          Alcotest.test_case "identical ops" `Quick test_profile_identical_ops;
          Alcotest.test_case "distant ops" `Quick test_profile_distant_ops;
          Alcotest.test_case "max distance" `Quick test_profile_max_distance;
          Alcotest.test_case "kind mismatch" `Quick test_profile_kind_mismatch;
        ] );
    ]
