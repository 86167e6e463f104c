(* Tests for thr_server: canonical instance keys, the content-addressed
   LRU solve cache (including persistence reload), the service request
   handler, and a full client/server round trip over a Unix socket. *)

module T = Trojan_hls
module Json = Thr_util.Json
module Canon = Thr_dfg.Canon
module Key = Thr_server.Key
module Cache = Thr_server.Cache
module Service = Thr_server.Service
module Server = Thr_server.Server
module Client = Thr_server.Client

let parse_dfg text =
  match T.Dfg_parse.of_string text with
  | Ok d -> d
  | Error e -> Alcotest.fail (Format.asprintf "%a" T.Dfg_parse.pp_error e)

let spec_of ?(mode = T.Spec.Detection_and_recovery) ?latency ?area text =
  let dfg = parse_dfg text in
  let cp = T.Dfg.critical_path dfg in
  let latency_detect = match latency with Some l -> l | None -> cp + 1 in
  let area_limit =
    match area with Some a -> a | None -> 10 * 7000 * T.Dfg.n_ops dfg
  in
  T.Spec.make ~mode ~dfg ~catalog:T.Catalog.eight_vendors ~latency_detect
    ~area_limit ()

(* the paper's polynom DFG, and the same graph with its ops listed in a
   different (still topological) order and its inputs declared in a
   different order — isomorphic, so the canonical key must not move *)
let poly_a =
  "dfg pa\ninput a\ninput x\ninput b\ninput y\ninput c\ninput d\n\
   n0 = mul a x\nn1 = mul b y\nn2 = mul c d\nn3 = add n0 n1\nn4 = add n3 n2\n"

let poly_b =
  "dfg pb\ninput c\ninput d\ninput b\ninput y\ninput a\ninput x\n\
   n0 = mul c d\nn1 = mul b y\nn2 = mul a x\nn3 = add n2 n1\nn4 = add n3 n0\n"

(* a genuinely different graph: one add swapped for a sub *)
let poly_c =
  "dfg pc\ninput a\ninput x\ninput b\ninput y\ninput c\ninput d\n\
   n0 = mul a x\nn1 = mul b y\nn2 = mul c d\nn3 = sub n0 n1\nn4 = add n3 n2\n"

(* ------------------------------ keys ------------------------------- *)

let test_canon_fingerprint () =
  Alcotest.(check string)
    "isomorphic graphs fingerprint identically"
    (Canon.fingerprint (parse_dfg poly_a))
    (Canon.fingerprint (parse_dfg poly_b));
  Alcotest.(check bool)
    "different graph, different fingerprint" false
    (Canon.fingerprint (parse_dfg poly_a) = Canon.fingerprint (parse_dfg poly_c))

let test_key_canonical () =
  let solver = T.Optimize.License_search in
  let ka = Key.of_spec ~solver (spec_of poly_a) in
  let kb = Key.of_spec ~solver (spec_of poly_b) in
  Alcotest.(check string) "same content" ka.Key.content kb.Key.content;
  Alcotest.(check int64) "same hash" ka.Key.hash kb.Key.hash

let test_key_discriminates () =
  let solver = T.Optimize.License_search in
  let base = Key.of_spec ~solver (spec_of poly_a) in
  let differs label k =
    Alcotest.(check bool) label false (k.Key.content = base.Key.content)
  in
  differs "graph" (Key.of_spec ~solver (spec_of poly_c));
  differs "mode" (Key.of_spec ~solver (spec_of ~mode:T.Spec.Detection_only poly_a));
  differs "latency" (Key.of_spec ~solver (spec_of ~latency:6 poly_a));
  differs "area" (Key.of_spec ~solver (spec_of ~area:50_000 poly_a));
  differs "solver" (Key.of_spec ~solver:T.Optimize.Greedy (spec_of poly_a))

(* ------------------------------ cache ------------------------------ *)

(* one real solved design, reused (with synthetic content strings) by the
   cache plumbing tests *)
let solved_entry =
  lazy
    (let spec = spec_of poly_a in
     let key = Key.of_spec ~solver:T.Optimize.License_search spec in
     match T.Optimize.run spec with
     | Ok { T.Optimize.design; quality; seconds; candidates; _ } ->
         ( key,
           {
             Cache.content = key.Key.content;
             design;
             perm = key.Key.perm;
             quality;
             solve_seconds = seconds;
             candidates;
           } )
     | Error _ -> Alcotest.fail "polynom must solve")

let entry_with content =
  let _, e = Lazy.force solved_entry in
  { e with Cache.content }

let test_cache_capacity_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Cache.create: capacity must be >= 1") (fun () ->
      ignore (Cache.create ~capacity:0 ()))

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.store c ~key:1L (entry_with "one");
  Cache.store c ~key:2L (entry_with "two");
  Cache.store c ~key:3L (entry_with "three");
  Alcotest.(check int) "size capped" 2 (Cache.size c);
  Alcotest.(check int) "one eviction" 1 (Cache.counters c).Cache.evictions;
  Alcotest.(check bool) "oldest evicted" true
    (Cache.find c ~key:1L ~content:"one" = None);
  Alcotest.(check bool) "newest kept" true
    (Cache.find c ~key:3L ~content:"three" <> None)

let test_cache_lru_touch () =
  let c = Cache.create ~capacity:2 () in
  Cache.store c ~key:1L (entry_with "one");
  Cache.store c ~key:2L (entry_with "two");
  (* touching 1 makes 2 the LRU entry *)
  Alcotest.(check bool) "hit" true (Cache.find c ~key:1L ~content:"one" <> None);
  Cache.store c ~key:3L (entry_with "three");
  Alcotest.(check bool) "touched survives" true
    (Cache.find c ~key:1L ~content:"one" <> None);
  Alcotest.(check bool) "untouched evicted" true
    (Cache.find c ~key:2L ~content:"two" = None)

let test_cache_collision_is_miss () =
  let c = Cache.create ~capacity:4 () in
  Cache.store c ~key:5L (entry_with "A");
  Alcotest.(check bool) "same address, other instance" true
    (Cache.find c ~key:5L ~content:"B" = None);
  Alcotest.(check bool) "matching content hits" true
    (Cache.find c ~key:5L ~content:"A" <> None);
  let k = Cache.counters c in
  Alcotest.(check int) "one miss" 1 k.Cache.misses;
  Alcotest.(check int) "one hit" 1 k.Cache.hits

let temp_dir () =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "thls-test-cache-%d-%.0f" (Unix.getpid ())
         (Unix.gettimeofday () *. 1e6))
  in
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let test_cache_persistence_reload () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let key, entry = Lazy.force solved_entry in
      let c1 = Cache.create ~capacity:4 ~persist_dir:dir () in
      Cache.store c1 ~key:key.Key.hash entry;
      (* a fresh cache over the same directory refills from disk *)
      let c2 = Cache.create ~capacity:4 ~persist_dir:dir () in
      (match Cache.find c2 ~key:key.Key.hash ~content:key.Key.content with
      | None -> Alcotest.fail "persisted entry not reloaded"
      | Some e ->
          Alcotest.(check string) "content restored" key.Key.content
            e.Cache.content;
          Alcotest.(check int) "design cost restored"
            (T.Design.cost entry.Cache.design)
            (T.Design.cost e.Cache.design));
      Alcotest.(check int) "counted as disk hit" 1
        (Cache.counters c2).Cache.disk_hits;
      (* second lookup is served from memory *)
      ignore (Cache.find c2 ~key:key.Key.hash ~content:key.Key.content);
      Alcotest.(check int) "still one disk hit" 1
        (Cache.counters c2).Cache.disk_hits)

let test_cache_persistence_corrupt_file () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let key, entry = Lazy.force solved_entry in
      let c1 = Cache.create ~capacity:4 ~persist_dir:dir () in
      Cache.store c1 ~key:key.Key.hash entry;
      (* clobber the file: the reload must degrade to a miss, not crash *)
      let file = Filename.concat dir (Printf.sprintf "%016Lx.solve" key.Key.hash) in
      let oc = open_out_bin file in
      output_string oc "junk";
      close_out oc;
      let c2 = Cache.create ~capacity:4 ~persist_dir:dir () in
      Alcotest.(check bool) "corrupt file is a miss" true
        (Cache.find c2 ~key:key.Key.hash ~content:key.Key.content = None))

(* ----------------------------- service ----------------------------- *)

let err_code j = Json.mem_str "code" j

let test_service_parse_error () =
  let s = Service.create () in
  let r = Service.handle_line s "this is not json" in
  Alcotest.(check (option string)) "status" (Some "error") (Json.mem_str "status" r);
  Alcotest.(check (option string)) "code" (Some "parse") (err_code r)

let test_service_bad_request () =
  let s = Service.create () in
  let code line = err_code (Service.handle_line s line) in
  Alcotest.(check (option string)) "unknown op" (Some "bad_request")
    (code {|{"op":"frobnicate"}|});
  Alcotest.(check (option string)) "missing dfg" (Some "bad_request")
    (code {|{"op":"solve"}|});
  Alcotest.(check (option string)) "broken dfg" (Some "bad_request")
    (code {|{"op":"solve","dfg":"dfg x\nn0 = add a b"}|});
  Alcotest.(check (option string)) "non-object" (Some "bad_request")
    (code {|[1,2,3]|});
  Alcotest.(check (option string)) "bad field type" (Some "bad_request")
    (code {|{"op":"solve","dfg":"x","latency_detect":"six"}|})

let solve_line ?(extra = []) text =
  Json.to_string
    (Json.Obj ([ ("op", Json.String "solve"); ("dfg", Json.String text) ] @ extra))

let test_service_solve_and_hit () =
  let s = Service.create () in
  let r1 = Service.handle_line s (solve_line poly_a) in
  let r2 = Service.handle_line s (solve_line poly_a) in
  Alcotest.(check (option bool)) "first misses" (Some false)
    (Json.mem_bool "cache_hit" r1);
  Alcotest.(check (option bool)) "second hits" (Some true)
    (Json.mem_bool "cache_hit" r2);
  let result r = Option.map Json.to_string (Json.member "result" r) in
  Alcotest.(check bool) "results bit-identical" true
    (result r1 = result r2 && result r1 <> None);
  (* a renumbered isomorphic submission also hits *)
  let r3 = Service.handle_line s (solve_line poly_b) in
  Alcotest.(check (option bool)) "isomorphic graph hits" (Some true)
    (Json.mem_bool "cache_hit" r3);
  (* ... and its design is re-expressed over the request's own numbering,
     with the same cost *)
  let mc r = Option.bind (Json.member "result" r) (Json.mem_int "mc") in
  Alcotest.(check bool) "same optimum" true (mc r1 = mc r3 && mc r1 <> None)

let test_service_stats () =
  let s = Service.create () in
  ignore (Service.handle_line s (solve_line poly_a));
  ignore (Service.handle_line s (solve_line poly_a));
  let r = Service.handle_line s {|{"op":"stats"}|} in
  let stat name =
    Option.bind (Json.member "stats" r) (Json.mem_int name)
  in
  Alcotest.(check (option int)) "requests" (Some 2) (stat "requests");
  Alcotest.(check (option int)) "hits" (Some 1) (stat "hits");
  Alcotest.(check (option int)) "misses" (Some 1) (stat "misses");
  Alcotest.(check (option int)) "cache size" (Some 1) (stat "cache_size");
  Alcotest.(check (option int)) "queue depth" (Some 0) (stat "queue_depth");
  let p name =
    Option.bind (Json.member "stats" r) (fun st ->
        Option.bind (Json.member name st) Json.to_float)
  in
  Alcotest.(check bool) "latency percentiles present" true
    (p "p50_ms" <> None && p "p95_ms" <> None && p "p50_ms" <= p "p95_ms");
  (* the runtime journal summary is merged into stats *)
  Alcotest.(check bool) "journal summary present" true
    (match Option.bind (Json.member "stats" r) (Json.member "journal") with
    | Some (Json.Obj fields) -> List.mem_assoc "mismatch_detected" fields
    | _ -> false)

let test_service_events () =
  let module Journal = Thr_obs.Journal in
  Journal.enable ();
  Journal.clear ();
  Fun.protect
    ~finally:(fun () ->
      Journal.disable ();
      Journal.clear ())
    (fun () ->
      Journal.emit ~cycle:2 Journal.Trigger_candidate_active;
      Journal.emit ~cycle:5 Journal.Mismatch_detected;
      Journal.emit ~cycle:7 Journal.Recovery_ok;
      let s = Service.create () in
      let r = Service.handle_line s {|{"op":"events"}|} in
      Alcotest.(check (option string)) "status ok" (Some "ok")
        (Json.mem_str "status" r);
      let kinds r =
        match Json.member "events" r with
        | Some (Json.List evs) -> List.filter_map (Json.mem_str "kind") evs
        | _ -> []
      in
      Alcotest.(check (list string)) "all events, oldest first"
        [ "Trigger_candidate_active"; "Mismatch_detected"; "Recovery_ok" ]
        (kinds r);
      Alcotest.(check (option int)) "summary reports the detection cycle"
        (Some 5)
        (Option.bind (Json.member "summary" r)
           (Json.mem_int "first_detection_cycle"));
      (* "n" limits to the newest n events *)
      let r2 = Service.handle_line s {|{"op":"events","n":1}|} in
      Alcotest.(check (list string)) "tail 1" [ "Recovery_ok" ] (kinds r2);
      (* a malformed n is a structured bad_request *)
      Alcotest.(check (option string)) "bad n" (Some "bad_request")
        (err_code (Service.handle_line s {|{"op":"events","n":"all"}|})))

let lint_line ?(extra = []) text =
  Json.to_string
    (Json.Obj ([ ("op", Json.String "lint"); ("dfg", Json.String text) ] @ extra))

let test_service_lint () =
  let s = Service.create () in
  let r = Service.handle_line s (lint_line poly_a) in
  Alcotest.(check (option string)) "status ok" (Some "ok")
    (Json.mem_str "status" r);
  Alcotest.(check (option bool)) "clean elaboration" (Some true)
    (Json.mem_bool "clean" r);
  let report_int name r =
    Option.bind (Json.member "report" r) (Json.mem_int name)
  in
  Alcotest.(check (option int)) "no errors" (Some 0) (report_int "errors" r);
  (* lint solves (or reuses) the same cached design as solve *)
  let r2 = Service.handle_line s (solve_line poly_a) in
  Alcotest.(check (option bool)) "design cached by lint" (Some true)
    (Json.mem_bool "cache_hit" r2);
  (* the comparator-bypass mutant must be flagged by the taint pass *)
  let rb =
    Service.handle_line s
      (lint_line ~extra:[ ("mutant", Json.String "bypass") ] poly_a)
  in
  Alcotest.(check (option bool)) "bypass not clean" (Some false)
    (Json.mem_bool "clean" rb);
  Alcotest.(check bool) "bypass has errors" true
    (match report_int "errors" rb with Some n -> n > 0 | None -> false);
  (* the canned Trojan must be flagged by the rare-net pass *)
  let rt =
    Service.handle_line s
      (lint_line ~extra:[ ("mutant", Json.String "trojan") ] poly_a)
  in
  Alcotest.(check (option bool)) "trojan not clean" (Some false)
    (Json.mem_bool "clean" rt);
  (* malformed lint options are structured bad_request errors *)
  Alcotest.(check (option string)) "bad mutant" (Some "bad_request")
    (err_code
       (Service.handle_line s
          (lint_line ~extra:[ ("mutant", Json.String "wat") ] poly_a)));
  Alcotest.(check (option string)) "bad width" (Some "bad_request")
    (err_code
       (Service.handle_line s
          (lint_line ~extra:[ ("width", Json.Int 2) ] poly_a)));
  Alcotest.(check (option string)) "prove 0" (Some "bad_request")
    (err_code
       (Service.handle_line s
          (lint_line ~extra:[ ("prove", Json.Int 0) ] poly_a)));
  Alcotest.(check (option string)) "jobs 0" (Some "bad_request")
    (err_code
       (Service.handle_line s
          (lint_line ~extra:[ ("jobs", Json.Int 0) ] poly_a)));
  (* ... and the service keeps serving lints after refusing them *)
  Alcotest.(check (option string)) "lint after refusals" (Some "ok")
    (Json.mem_str "status" (Service.handle_line s (lint_line poly_a)))

let test_service_config_invalid () =
  Alcotest.check_raises "max_queue 0"
    (Invalid_argument "Service.create: max_queue must be >= 1") (fun () ->
      ignore
        (Service.create ~config:{ Service.default_config with max_queue = 0 } ()))

(* --------------------------- socket e2e ---------------------------- *)

let rpc_ok c req =
  match Client.rpc c req with
  | Ok j -> j
  | Error e -> Alcotest.fail ("rpc failed: " ^ e)

let test_e2e_socket () =
  let socket_path =
    Printf.sprintf "%s/thls-test-%d.sock"
      (Filename.get_temp_dir_name ())
      (Unix.getpid ())
  in
  let service = Service.create () in
  let server =
    Domain.spawn (fun () -> Server.serve_unix service ~socket_path ())
  in
  let rec await n =
    if Sys.file_exists socket_path then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else begin
      Unix.sleepf 0.05;
      await (n - 1)
    end
  in
  await 100;
  Client.with_connection ~socket_path (fun c ->
      (* a deliberately slow cold solve (literal ILP), then the same
         request again: the second must come from the cache, bit-identical
         and at least 10x faster *)
      let solve =
        Json.Obj
          [
            ("op", Json.String "solve");
            ("dfg", Json.String poly_a);
            ("mode", Json.String "detection");
            ("latency_detect", Json.Int 6);
            ("solver", Json.String "ilp");
          ]
      in
      let r1 = rpc_ok c solve in
      let r2 = rpc_ok c solve in
      Alcotest.(check (option bool)) "cold miss" (Some false)
        (Json.mem_bool "cache_hit" r1);
      Alcotest.(check (option bool)) "warm hit" (Some true)
        (Json.mem_bool "cache_hit" r2);
      let result r = Option.map Json.to_string (Json.member "result" r) in
      Alcotest.(check bool) "bit-identical result" true
        (result r1 = result r2 && result r1 <> None);
      let seconds r =
        match Option.bind (Json.member "seconds" r) Json.to_float with
        | Some s -> s
        | None -> Alcotest.fail "response without seconds"
      in
      Alcotest.(check bool) "hit at least 10x faster" true
        (10.0 *. seconds r2 <= seconds r1);
      (* a malformed line gets a structured error and the server lives on *)
      (match Client.rpc_line c "this is not json {" with
      | Ok e ->
          Alcotest.(check (option string)) "structured parse error"
            (Some "parse") (err_code e)
      | Error e -> Alcotest.fail ("malformed line killed connection: " ^ e));
      let stats = rpc_ok c (Json.Obj [ ("op", Json.String "stats") ]) in
      Alcotest.(check (option string)) "server still answers" (Some "ok")
        (Json.mem_str "status" stats);
      (* a zero-deadline request degrades to the greedy incumbent *)
      let degrade =
        Json.Obj
          [
            ("op", Json.String "solve");
            ("dfg", Json.String poly_c);
            ("deadline_ms", Json.Int 0);
          ]
      in
      let r3 = rpc_ok c degrade in
      let field name =
        Option.bind (Json.member "result" r3) (Json.mem_str name)
      in
      Alcotest.(check (option string)) "degraded to incumbent"
        (Some "incumbent") (field "quality");
      Alcotest.(check (option bool)) "flagged degraded" (Some true)
        (Option.bind (Json.member "result" r3) (Json.mem_bool "degraded"));
      (* degraded results are not cached: a repeat is still a miss *)
      let r4 = rpc_ok c degrade in
      Alcotest.(check (option bool)) "degraded not cached" (Some false)
        (Json.mem_bool "cache_hit" r4);
      (* shutdown stops the accept loop *)
      let bye = rpc_ok c (Json.Obj [ ("op", Json.String "shutdown") ]) in
      Alcotest.(check (option bool)) "acknowledged" (Some true)
        (Json.mem_bool "shutting_down" bye));
  Domain.join server;
  Alcotest.(check bool) "socket unlinked after shutdown" false
    (Sys.file_exists socket_path)

let () =
  Alcotest.run "server"
    [
      ( "key",
        [
          Alcotest.test_case "canonical fingerprint" `Quick test_canon_fingerprint;
          Alcotest.test_case "renumbering invariant" `Quick test_key_canonical;
          Alcotest.test_case "discriminates instances" `Quick test_key_discriminates;
        ] );
      ( "cache",
        [
          Alcotest.test_case "capacity invalid" `Quick test_cache_capacity_invalid;
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "lru touch order" `Quick test_cache_lru_touch;
          Alcotest.test_case "hash collision is miss" `Quick test_cache_collision_is_miss;
          Alcotest.test_case "persistence reload" `Quick test_cache_persistence_reload;
          Alcotest.test_case "corrupt file" `Quick test_cache_persistence_corrupt_file;
        ] );
      ( "service",
        [
          Alcotest.test_case "parse error" `Quick test_service_parse_error;
          Alcotest.test_case "bad requests" `Quick test_service_bad_request;
          Alcotest.test_case "solve then hit" `Quick test_service_solve_and_hit;
          Alcotest.test_case "stats" `Quick test_service_stats;
          Alcotest.test_case "events" `Quick test_service_events;
          Alcotest.test_case "lint" `Quick test_service_lint;
          Alcotest.test_case "config invalid" `Quick test_service_config_invalid;
        ] );
      ( "e2e",
        [ Alcotest.test_case "socket round trip" `Slow test_e2e_socket ] );
    ]
