(* Tests for thr_util: PRNG, priority queue, table formatting. *)

module Prng = Thr_util.Prng
module Pqueue = Thr_util.Pqueue
module Tablefmt = Thr_util.Tablefmt
module Dpool = Thr_util.Dpool

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_copy_independent () =
  let a = Prng.create ~seed:5 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b)

let test_prng_int_range () =
  let t = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int t 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done

let test_prng_int_in_range () =
  let t = Prng.create ~seed:8 in
  for _ = 1 to 1000 do
    let v = Prng.int_in t (-5) 5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done

let test_prng_int_invalid () =
  let t = Prng.create ~seed:9 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in t 3 2))

(* Stream pin: the MD5 of the first 64 outputs of every draw function,
   and of a split and a copied child, for a few seeds.  Every seeded
   experiment (campaigns, generated DFGs, perfbench inputs) reads these
   streams, so a change of representation must leave them bit-identical. *)
let prng_streams seed =
  let draws name f =
    let t = Prng.create ~seed in
    (name, String.concat " " (List.init 64 (fun _ -> f t)))
  in
  let child name make =
    let t = Prng.create ~seed in
    let c = make t in
    let of_c = List.init 64 (fun _ -> Printf.sprintf "%Lx" (Prng.next_int64 c)) in
    let of_t = List.init 64 (fun _ -> Printf.sprintf "%Lx" (Prng.next_int64 t)) in
    (name, String.concat " " (of_c @ ("|" :: of_t)))
  in
  [
    draws "next_int64" (fun t -> Printf.sprintf "%Lx" (Prng.next_int64 t));
    draws "int" (fun t -> string_of_int (Prng.int t 1_000_003));
    draws "int max" (fun t -> string_of_int (Prng.int t max_int));
    draws "int_in" (fun t -> string_of_int (Prng.int_in t (-500) 500));
    draws "float" (fun t -> Printf.sprintf "%h" (Prng.float t 1.0));
    draws "bool" (fun t -> if Prng.bool t then "1" else "0");
    child "split" Prng.split;
    child "copy" (fun t ->
        for _ = 1 to 3 do
          ignore (Prng.next_int64 t)
        done;
        Prng.copy t);
  ]

let prng_pins =
  [
    ( 0,
      [
        ("next_int64", "75d15649d37054ae95c44224355b5dcf");
        ("int", "cbd0e60ae2f51c7806d4201eaa9f1794");
        ("int max", "27630be550df9059df1bf3b1a1d67a2b");
        ("int_in", "49e4e8ea2308b989898085485d43607e");
        ("float", "eb203c03ac69d3743e8e7ef8106a979e");
        ("bool", "2a9e483c81de1dad42bf9dbc783cbea0");
        ("split", "84299dc63e8aac36dfe1000f692eecdb");
        ("copy", "a6d0970946d1871db02d2d83281f80d2");
      ] );
    ( 1,
      [
        ("next_int64", "a84c62f2017cf3845266dbbe92a4d444");
        ("int", "0f7b73543c87e514b38cd8070d378038");
        ("int max", "1ead45a1336c5c919772fa16bb7ecf58");
        ("int_in", "704263ea53e037a938d04eae56eacce6");
        ("float", "274fe19dc447ad7152c906600ae51762");
        ("bool", "d56c8a7990c92f35dbb9abb10dade4e1");
        ("split", "81c00ec016914c6c665e70f760a72d29");
        ("copy", "f31910638e26d091fa64714d4b80cf88");
      ] );
    ( 42,
      [
        ("next_int64", "5ef1a1aff34b3421837f71ba5ff9cf32");
        ("int", "7ef2cc2f1be0d2dd02c87c1860a40019");
        ("int max", "6390aa6794f092624977d9387e8695dd");
        ("int_in", "d10121702ffa42eb1393c32e9b76aa7e");
        ("float", "e9c585e6853f1393bd47d7ab33e9c093");
        ("bool", "67a82f03994cb007cb5bd620cad39c3e");
        ("split", "64f1fdebcd93e9a97b2c12b361a69445");
        ("copy", "9d2d97e53b5630918dec5016149600fc");
      ] );
    ( -1,
      [
        ("next_int64", "291c30e1672363eae5ba7aa6a5163a01");
        ("int", "d200b81b79181ee1813b3a49b3bb9140");
        ("int max", "acc8c8d1c7bf04e08eb147e223579be5");
        ("int_in", "7ed1d8e219ccc42e92ad5ad73896df00");
        ("float", "600d77e4a1622ba03c860efe941545e0");
        ("bool", "f962db4539f94fc86594219ffec6be8c");
        ("split", "b10546b8eb1f50ec6d24a958318acd48");
        ("copy", "3e8436113575b58ab0f956a28182a883");
      ] );
  ]

let test_prng_stream_pin () =
  (* the reference SplitMix64 stream from state 0 *)
  Alcotest.(check int64) "splitmix64 seed 0" 0xE220A8397B1DCDAFL
    (Prng.next_int64 (Prng.create ~seed:0));
  List.iter
    (fun (seed, pins) ->
      List.iter
        (fun (name, text) ->
          let got = Digest.to_hex (Digest.string text) in
          Alcotest.(check string)
            (Printf.sprintf "seed %d %s" seed name)
            (Option.value (List.assoc_opt name pins) ~default:"unpinned")
            got)
        (prng_streams seed))
    prng_pins

let test_prng_int_covers () =
  let t = Prng.create ~seed:10 in
  let seen = Array.make 6 false in
  for _ = 1 to 600 do
    seen.(Prng.int t 6) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let t = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Prng.float t 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_shuffle_permutation () =
  let t = Prng.create ~seed:12 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let t = Prng.create ~seed:13 in
  let s = Prng.sample_without_replacement t 10 30 in
  Alcotest.(check int) "size" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq compare s));
  List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 30)) s

let test_pick () =
  let t = Prng.create ~seed:14 in
  let a = [| 3; 1; 4 |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "member" true (Array.mem (Prng.pick t a) a)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick t [||]))

let test_split_streams_differ () =
  let t = Prng.create ~seed:15 in
  let u = Prng.split t in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 t <> Prng.next_int64 u then differs := true
  done;
  Alcotest.(check bool) "split independent" true !differs

(* ------------------------- priority queue ------------------------- *)

let test_pqueue_order () =
  let q = Pqueue.create () in
  List.iter (fun p -> Pqueue.push q p (string_of_int p)) [ 5; 1; 4; 1; 3 ];
  let popped = ref [] in
  let rec drain () =
    match Pqueue.pop q with
    | Some (p, _) ->
        popped := p :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending" [ 1; 1; 3; 4; 5 ] (List.rev !popped)

let test_pqueue_fifo_ties () =
  let q = Pqueue.create () in
  Pqueue.push q 1 "first";
  Pqueue.push q 1 "second";
  Pqueue.push q 1 "third";
  let next () = match Pqueue.pop q with Some (_, v) -> v | None -> "?" in
  let a = next () in
  let b = next () in
  let c = next () in
  Alcotest.(check (list string)) "insertion order on ties"
    [ "first"; "second"; "third" ] [ a; b; c ]

let test_pqueue_peek () =
  let q = Pqueue.create () in
  Alcotest.(check bool) "empty" true (Pqueue.peek q = None);
  Pqueue.push q 2 "b";
  Pqueue.push q 1 "a";
  (match Pqueue.peek q with
  | Some (1, "a") -> ()
  | _ -> Alcotest.fail "peek should see minimum");
  Alcotest.(check int) "peek does not remove" 2 (Pqueue.length q)

let pqueue_sorted_prop =
  QCheck.Test.make ~name:"pqueue pops sorted" ~count:200
    QCheck.(list small_int)
    (fun l ->
      let q = Pqueue.create () in
      List.iter (fun p -> Pqueue.push q p p) l;
      let rec drain acc =
        match Pqueue.pop q with Some (p, _) -> drain (p :: acc) | None -> List.rev acc
      in
      drain [] = List.sort compare l)

(* --------------------------- domain pool --------------------------- *)

let test_dpool_map_sequential () =
  let order = ref [] in
  let out =
    Dpool.run ~jobs:1 (fun pool ->
        Dpool.map pool
          (fun x ->
            order := x :: !order;
            x * x)
          [ 1; 2; 3; 4 ])
  in
  Alcotest.(check (list int)) "results" [ 1; 4; 9; 16 ] out;
  Alcotest.(check (list int)) "inline, in submission order" [ 1; 2; 3; 4 ]
    (List.rev !order)

let test_dpool_map_parallel_order () =
  let xs = List.init 50 Fun.id in
  let out = Dpool.run ~jobs:4 (fun pool -> Dpool.map pool (fun x -> 2 * x) xs) in
  Alcotest.(check (list int)) "input order kept" (List.map (fun x -> 2 * x) xs) out

let test_dpool_map_exception () =
  Alcotest.check_raises "first exception re-raised" (Failure "boom") (fun () ->
      ignore
        (Dpool.run ~jobs:3 (fun pool ->
             Dpool.map pool
               (fun x -> if x = 7 then failwith "boom" else x)
               (List.init 20 Fun.id))))

let test_dpool_both () =
  List.iter
    (fun jobs ->
      let a, b = Dpool.run ~jobs (fun pool -> Dpool.both pool (fun () -> 6 * 7) (fun () -> "ok")) in
      Alcotest.(check int) "left" 42 a;
      Alcotest.(check string) "right" "ok" b)
    [ 1; 2 ]

let test_dpool_default_jobs () =
  Alcotest.(check bool) "at least one" true (Dpool.default_jobs () >= 1)

let test_dpool_invalid_jobs () =
  Alcotest.check_raises "create jobs=0"
    (Invalid_argument "Dpool.create: jobs must be >= 1, got 0") (fun () ->
      ignore (Dpool.create ~jobs:0));
  Alcotest.check_raises "create negative"
    (Invalid_argument "Dpool.create: jobs must be >= 1, got -3") (fun () ->
      ignore (Dpool.create ~jobs:(-3)));
  Alcotest.check_raises "run jobs=0"
    (Invalid_argument "Dpool.run: jobs must be >= 1, got 0") (fun () ->
      ignore (Dpool.run ~jobs:0 (fun _ -> ())))

(* ------------------------------ json ------------------------------- *)

module Json = Thr_util.Json

let sample =
  Json.Obj
    [
      ("null", Json.Null);
      ("flag", Json.Bool true);
      ("count", Json.Int (-42));
      ("ratio", Json.Float 1.5);
      ("name", Json.String "a \"quoted\"\n\ttab \\ slash");
      ("items", Json.List [ Json.Int 1; Json.String "two"; Json.Bool false ]);
      ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ]);
    ]

let test_json_round_trip () =
  List.iter
    (fun pretty ->
      match Json.parse (Json.to_string ~pretty sample) with
      | Ok j -> Alcotest.(check bool) "round trip" true (j = sample)
      | Error e -> Alcotest.fail e)
    [ false; true ]

let test_json_parse_literals () =
  let ok s v =
    match Json.parse s with
    | Ok j -> Alcotest.(check bool) ("parse " ^ s) true (j = v)
    | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  ok "null" Json.Null;
  ok "true" (Json.Bool true);
  ok " -17 " (Json.Int (-17));
  ok "2.5e2" (Json.Float 250.0);
  ok {|"Aé"|} (Json.String "A\xc3\xa9");
  ok {|"😀"|} (Json.String "\xf0\x9f\x98\x80");
  ok "[1, [2], {}]"
    (Json.List [ Json.Int 1; Json.List [ Json.Int 2 ]; Json.Obj [] ])

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.fail ("should not parse: " ^ s)
    | Error e ->
        Alcotest.(check bool) "error names an offset" true
          (String.length e >= 5 && String.sub e 0 5 = "json:")
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":}";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "\"bad \\q escape\"";
  bad "01";
  bad "1 trailing";
  bad "nul";
  bad "{'single':1}"

let test_json_float_special () =
  (* non-finite floats have no JSON spelling; they serialise as null *)
  Alcotest.(check string) "nan" "null" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf" "null"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "whole floats keep a point" "2.0"
    (Json.to_string (Json.Float 2.0))

let test_json_accessors () =
  Alcotest.(check (option int)) "mem_int" (Some (-42))
    (Json.mem_int "count" sample);
  Alcotest.(check (option string)) "mem_str missing" None
    (Json.mem_str "absent" sample);
  Alcotest.(check (option bool)) "mem_bool" (Some true)
    (Json.mem_bool "flag" sample);
  Alcotest.(check (option (float 1e-9))) "to_float accepts ints" (Some 3.0)
    (Json.to_float (Json.Int 3))

(* printable strings and int/bool/null scalars; floats are checked
   separately because the printer's %.12g is not a lossless codec *)
let json_gen =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [
                return Json.Null;
                map (fun b -> Json.Bool b) bool;
                map (fun i -> Json.Int i) int;
                map (fun s -> Json.String s) (string_size ~gen:printable (0 -- 12));
              ]
          in
          if n <= 0 then scalar
          else
            frequency
              [
                (2, scalar);
                (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
                ( 1,
                  map
                    (fun kvs -> Json.Obj kvs)
                    (list_size (0 -- 4)
                       (pair (string_size ~gen:printable (0 -- 8)) (self (n / 2))))
                );
              ])
        n)

let json_round_trip_prop =
  QCheck.Test.make ~name:"json parse inverts to_string" ~count:300
    (QCheck.make json_gen) (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> j' = j
      | Error _ -> false)

(* --------------------------- table fmt ---------------------------- *)

let test_table_basic () =
  let t = Tablefmt.create ~header:[ "a"; "bb" ] () in
  Tablefmt.add_row t [ "1"; "22" ];
  let s = Tablefmt.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.index_opt s 'a' <> None);
  Alcotest.(check bool) "box drawing" true (String.index_opt s '+' <> None)

let test_table_width_mismatch () =
  let t = Tablefmt.create ~header:[ "a"; "b" ] () in
  Alcotest.check_raises "row too short"
    (Invalid_argument "Tablefmt.add_row: width mismatch") (fun () ->
      Tablefmt.add_row t [ "only" ])

let test_table_alignment () =
  let t =
    Tablefmt.create ~aligns:[ Tablefmt.Left; Tablefmt.Right ] ~header:[ "x"; "y" ] ()
  in
  Tablefmt.add_row t [ "ab"; "c" ];
  Tablefmt.add_row t [ "a"; "cd" ];
  let lines = String.split_on_char '\n' (Tablefmt.render t) in
  (* data row with short left cell is padded on the right *)
  Alcotest.(check bool) "left-aligned cell" true
    (List.exists (fun l -> String.length l > 0 && l.[1] = ' ' || true) lines);
  Alcotest.(check bool) "renders all rows" true (List.length lines >= 6)

let test_table_separator () =
  let t = Tablefmt.create ~header:[ "h" ] () in
  Tablefmt.add_row t [ "1" ];
  Tablefmt.add_separator t;
  Tablefmt.add_row t [ "2" ];
  let rules =
    String.split_on_char '\n' (Tablefmt.render t)
    |> List.filter (fun l -> String.length l > 0 && l.[0] = '+')
  in
  Alcotest.(check int) "four rules" 4 (List.length rules)

(* ---------------------------- exit codes -------------------------- *)

module Exit_code = Thr_util.Exit_code

let test_exit_code_table () =
  Alcotest.(check (list int)) "ascending dense codes" [ 0; 1; 2; 3; 4; 5 ]
    (List.map Exit_code.code Exit_code.all);
  Alcotest.(check int) "ok" 0 (Exit_code.code Exit_code.Ok);
  Alcotest.(check int) "usage" 1 (Exit_code.code Exit_code.Usage);
  Alcotest.(check int) "infeasible" 2 (Exit_code.code Exit_code.Infeasible);
  Alcotest.(check int) "budget" 3 (Exit_code.code Exit_code.Budget);
  Alcotest.(check int) "lint" 4 (Exit_code.code Exit_code.Lint);
  Alcotest.(check int) "inconclusive" 5
    (Exit_code.code Exit_code.Inconclusive);
  (* descriptions are one-line, non-empty and pairwise distinct *)
  let descs = List.map Exit_code.describe Exit_code.all in
  List.iter
    (fun d ->
      Alcotest.(check bool) "non-empty" true (String.length d > 0);
      Alcotest.(check bool) "single line" false (String.contains d '\n'))
    descs;
  Alcotest.(check int) "distinct descriptions"
    (List.length descs)
    (List.length (List.sort_uniq compare descs))

let () =
  Alcotest.run "util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_prng_copy_independent;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in_range;
          Alcotest.test_case "invalid args" `Quick test_prng_int_invalid;
          Alcotest.test_case "covers values" `Quick test_prng_int_covers;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "pick" `Quick test_pick;
          Alcotest.test_case "split" `Quick test_split_streams_differ;
          Alcotest.test_case "stream pin" `Quick test_prng_stream_pin;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "pop order" `Quick test_pqueue_order;
          Alcotest.test_case "tie order" `Quick test_pqueue_fifo_ties;
          Alcotest.test_case "peek" `Quick test_pqueue_peek;
          QCheck_alcotest.to_alcotest pqueue_sorted_prop;
        ] );
      ( "dpool",
        [
          Alcotest.test_case "map jobs=1 inline" `Quick test_dpool_map_sequential;
          Alcotest.test_case "map jobs=4 order" `Quick test_dpool_map_parallel_order;
          Alcotest.test_case "map exception" `Quick test_dpool_map_exception;
          Alcotest.test_case "both" `Quick test_dpool_both;
          Alcotest.test_case "default jobs" `Quick test_dpool_default_jobs;
          Alcotest.test_case "invalid jobs" `Quick test_dpool_invalid_jobs;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "literals" `Quick test_json_parse_literals;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "special floats" `Quick test_json_float_special;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          QCheck_alcotest.to_alcotest json_round_trip_prop;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "basic render" `Quick test_table_basic;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "separator" `Quick test_table_separator;
        ] );
      ( "exit_code",
        [ Alcotest.test_case "table" `Quick test_exit_code_table ] );
    ]
