(* Tests for Thr_obs: metrics registry (bucket boundaries, counter
   atomicity under Dpool), span tracer (nesting, exception unwinding,
   Chrome JSON validity round-tripped through Thr_util.Json.parse) and
   the structured logger. *)

module Metrics = Thr_obs.Metrics
module Trace = Thr_obs.Trace
module Log = Thr_obs.Log
module Journal = Thr_obs.Journal
module Recorder = Thr_obs.Recorder
module Vcd = Thr_obs.Vcd
module Json = Thr_util.Json
module Dpool = Thr_util.Dpool

let raises_invalid f =
  match f () with exception Invalid_argument _ -> true | _ -> false

(* ----------------------------- metrics ----------------------------- *)

let test_counter_basics () =
  let c = Metrics.counter "test_counter_basics_total" in
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "42" 42 (Metrics.counter_value c);
  (* same name interns to the same counter *)
  let c' = Metrics.counter "test_counter_basics_total" in
  Metrics.incr c';
  Alcotest.(check int) "shared" 43 (Metrics.counter_value c)

let test_name_canonicalisation () =
  (* the ISSUE-style dotted names land on the Prometheus charset *)
  let c = Metrics.counter "test.dotted-name total" in
  Metrics.incr c;
  let prom = Metrics.to_prometheus () in
  Alcotest.(check bool) "canonical name rendered" true
    (let re = "test_dotted_name_total 1" in
     let rec find i =
       i + String.length re <= String.length prom
       && (String.sub prom i (String.length re) = re || find (i + 1))
     in
     find 0)

let test_kind_clash () =
  ignore (Metrics.histogram "test_kind_clash");
  Alcotest.(check bool) "counter over histogram rejected" true
    (raises_invalid (fun () -> Metrics.counter "test_kind_clash"));
  Alcotest.(check bool) "empty name rejected" true
    (raises_invalid (fun () -> Metrics.counter ""));
  Alcotest.(check bool) "bad char rejected" true
    (raises_invalid (fun () -> Metrics.counter "a{b}"))

let test_counter_atomicity_dpool () =
  let c = Metrics.counter "test_atomicity_total" in
  let per_task = 25_000 in
  let results =
    Dpool.run ~jobs:4 (fun pool ->
        Dpool.map pool
          (fun _ ->
            for _ = 1 to per_task do
              Metrics.incr c
            done;
            ())
          [ 0; 1; 2; 3 ])
  in
  Alcotest.(check int) "all tasks ran" 4 (List.length results);
  Alcotest.(check int) "no lost increments" (4 * per_task)
    (Metrics.counter_value c)

let test_histogram_buckets () =
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 5.0 |] "test_hist_ms" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 5.0; 7.5 ];
  (* le semantics: the boundary value belongs to its own bucket *)
  Alcotest.(check (list (pair (float 0.0) int)))
    "per-bucket counts"
    [ (1.0, 2); (2.0, 2); (5.0, 1); (infinity, 1) ]
    (Metrics.bucket_counts h);
  Alcotest.(check int) "count" 6 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 17.5 (Metrics.histogram_sum h);
  Alcotest.(check bool) "non-increasing buckets rejected" true
    (raises_invalid (fun () ->
         Metrics.histogram ~buckets:[| 2.0; 1.0 |] "test_hist_bad"))

let test_prometheus_render () =
  let c = Metrics.counter "test_prom_total" in
  Metrics.add c 7;
  let h = Metrics.histogram ~buckets:[| 1.0 |] "test_prom_ms" in
  Metrics.observe h 0.5;
  Metrics.observe h 3.0;
  let prom = Metrics.to_prometheus () in
  let contains needle =
    let n = String.length needle and m = String.length prom in
    let rec go i = i + n <= m && (String.sub prom i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun line -> Alcotest.(check bool) line true (contains line))
    [
      "# TYPE test_prom_total counter";
      "test_prom_total 7";
      "# TYPE test_prom_ms histogram";
      "test_prom_ms_bucket{le=\"1\"} 1";
      (* cumulative: the +Inf bucket counts everything *)
      "test_prom_ms_bucket{le=\"+Inf\"} 2";
      "test_prom_ms_sum 3.5";
      "test_prom_ms_count 2";
    ]

let test_metrics_json_and_snapshot () =
  let c = Metrics.counter "test_json_total" in
  Metrics.add c 3;
  (match Json.member "test_json_total" (Metrics.to_json ()) with
  | Some (Json.Int 3) -> ()
  | other ->
      Alcotest.failf "to_json: expected Int 3, got %s"
        (match other with Some j -> Json.to_string j | None -> "absent"));
  let before = Metrics.snapshot () in
  Metrics.add c 5;
  let after = Metrics.snapshot () in
  let v l = List.assoc "test_json_total" l in
  Alcotest.(check (float 1e-9)) "snapshot delta" 5.0 (v after -. v before)

let test_default_buckets () =
  let b = Metrics.default_buckets in
  Alcotest.(check bool) "includes 5000" true (Array.exists (( = ) 5000.0) b);
  let increasing = ref true in
  for i = 1 to Array.length b - 1 do
    if b.(i) <= b.(i - 1) then increasing := false
  done;
  Alcotest.(check bool) "strictly increasing" true !increasing

(* Cumulative Prometheus bucket lines must be monotonically
   non-decreasing in the boundary order, and the +Inf bucket must equal
   _count — for any observation list and any (sorted, distinct) bucket
   boundaries. *)
let prom_lines_for name prom =
  String.split_on_char '\n' prom
  |> List.filter_map (fun line ->
         let pre = name ^ "_bucket{le=\"" in
         if String.length line > String.length pre
            && String.sub line 0 (String.length pre) = pre
         then
           match String.index_opt line '}' with
           | Some i ->
               let le =
                 String.sub line
                   (String.length pre)
                   (i - 1 - String.length pre)
               in
               let v =
                 int_of_string
                   (String.trim
                      (String.sub line (i + 1) (String.length line - i - 1)))
               in
               Some (le, v)
           | None -> None
         else None)

let prom_value name prom =
  String.split_on_char '\n' prom
  |> List.find_map (fun line ->
         let pre = name ^ " " in
         if String.length line > String.length pre
            && String.sub line 0 (String.length pre) = pre
         then
           int_of_string_opt
             (String.trim
                (String.sub line (String.length pre)
                   (String.length line - String.length pre)))
         else None)

let qcheck_prometheus_cumulative =
  let id = ref 0 in
  QCheck.Test.make ~name:"prometheus buckets cumulative and +Inf = _count"
    ~count:100
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 30) (float_bound_inclusive 120.0))
        (list_of_size Gen.(int_range 1 6) (float_range 0.5 100.0)))
    (fun (obs, raw_bounds) ->
      let bounds =
        List.sort_uniq compare raw_bounds |> Array.of_list
      in
      incr id;
      let name = Printf.sprintf "qcheck_prom_hist_%d" !id in
      let h = Metrics.histogram ~buckets:bounds name in
      List.iter (Metrics.observe h) obs;
      let prom = Metrics.to_prometheus () in
      let lines = prom_lines_for name prom in
      if List.length lines <> Array.length bounds + 1 then
        QCheck.Test.fail_reportf "expected %d bucket lines, got %d"
          (Array.length bounds + 1)
          (List.length lines);
      let values = List.map snd lines in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b && monotone rest
        | _ -> true
      in
      let inf =
        match List.rev lines with
        | ("+Inf", v) :: _ -> v
        | _ -> QCheck.Test.fail_reportf "last bucket is not +Inf"
      in
      monotone values
      && inf = List.length obs
      && prom_value (name ^ "_count") prom = Some (List.length obs))

(* ------------------------------ trace ------------------------------ *)

let test_trace_ring_bound () =
  Trace.enable ();
  Trace.set_capacity 8;
  Trace.clear ();
  Journal.clear ();
  (* journal empty, so its provider adds nothing to the export *)
  for i = 1 to 20 do
    Trace.instant (Printf.sprintf "ev%d" i) ()
  done;
  Trace.disable ();
  let exported =
    match Json.member "traceEvents" (Trace.export ()) with
    | Some (Json.List evs) -> evs
    | _ -> []
  in
  Alcotest.(check int) "ring keeps the newest 8" 8 (List.length exported);
  Alcotest.(check int) "12 dropped" 12 (Trace.dropped ());
  (* oldest-drop: the survivors are the last 8 instants, in order *)
  Alcotest.(check (list string)) "newest events survive"
    (List.init 8 (fun i -> Printf.sprintf "ev%d" (i + 13)))
    (List.filter_map (Json.mem_str "name") exported);
  Trace.set_capacity 262_144;
  Trace.clear ()

let test_trace_disabled_is_noop () =
  Trace.disable ();
  Trace.clear ();
  let r = Trace.with_span "ghost" (fun () -> 17) in
  Alcotest.(check int) "value through" 17 r;
  Trace.instant "ghost.instant" ();
  Alcotest.(check int) "nothing recorded" 0 (Trace.completed ())

let test_trace_nesting () =
  Trace.enable ();
  Trace.clear ();
  let seen = ref [] in
  let r =
    Trace.with_span "outer" ~args:[ ("k", "v") ] (fun () ->
        seen := Trace.depth () :: !seen;
        let x =
          Trace.with_span "inner" (fun () ->
              seen := Trace.depth () :: !seen;
              21)
        in
        x * 2)
  in
  Trace.disable ();
  Alcotest.(check int) "result" 42 r;
  Alcotest.(check (list int)) "depths inner-first" [ 2; 1 ] !seen;
  Alcotest.(check int) "stack unwound" 0 (Trace.depth ());
  Alcotest.(check int) "two spans" 2 (Trace.completed ())

let test_trace_exception_unwinds () =
  Trace.enable ();
  Trace.clear ();
  (match Trace.with_span "boom" (fun () -> raise Exit) with
  | () -> Alcotest.fail "expected Exit"
  | exception Exit -> ());
  Trace.disable ();
  Alcotest.(check int) "stack unwound after raise" 0 (Trace.depth ());
  Alcotest.(check int) "span still recorded" 1 (Trace.completed ())

let test_trace_chrome_json_roundtrip () =
  Trace.enable ();
  Trace.clear ();
  ignore
    (Trace.with_span "parent" (fun () ->
         Trace.instant "mark" ~args:[ ("n", "1") ] ();
         Trace.with_span "child" (fun () -> 1)));
  Trace.disable ();
  (* the export must survive our own strict RFC 8259 parser *)
  let text = Json.to_string (Trace.export ()) in
  match Json.parse text with
  | Error e -> Alcotest.failf "trace JSON does not re-parse: %s" e
  | Ok j -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) ->
          Alcotest.(check int) "three events" 3 (List.length evs);
          let complete =
            List.filter (fun e -> Json.mem_str "ph" e = Some "X") evs
          in
          Alcotest.(check int) "two complete spans" 2 (List.length complete);
          List.iter
            (fun e ->
              Alcotest.(check bool) "has name" true (Json.mem_str "name" e <> None);
              Alcotest.(check bool) "has pid" true (Json.mem_int "pid" e <> None);
              Alcotest.(check bool) "has tid" true (Json.mem_int "tid" e <> None);
              let ts = Option.bind (Json.member "ts" e) Json.to_float in
              Alcotest.(check bool) "ts >= 0" true
                (match ts with Some t -> t >= 0.0 | None -> false);
              if Json.mem_str "ph" e = Some "X" then
                let dur = Option.bind (Json.member "dur" e) Json.to_float in
                Alcotest.(check bool) "dur >= 0" true
                  (match dur with Some d -> d >= 0.0 | None -> false))
            evs;
          (* the child completes before the parent, so it is recorded
             first; its interval nests inside the parent's *)
          let span name =
            let e =
              List.find (fun e -> Json.mem_str "name" e = Some name) complete
            in
            let f k = Option.get (Option.bind (Json.member k e) Json.to_float) in
            (f "ts", f "ts" +. f "dur")
          in
          let c0, c1 = span "child" and p0, p1 = span "parent" in
          (* reconstructing end = ts + dur from serialized floats can
             drift a few ulps when both spans close on the same clock
             tick; allow rounding-level slack *)
          let eps = 1e-3 in
          Alcotest.(check bool) "child within parent" true
            (p0 <= c0 +. eps && c1 <= p1 +. eps)
      | _ -> Alcotest.fail "no traceEvents list")

let test_trace_write_file () =
  Trace.enable ();
  Trace.clear ();
  ignore (Trace.with_span "filed" (fun () -> ()));
  Trace.disable ();
  let path = Filename.temp_file "thls_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Trace.write_file path;
      let text = In_channel.with_open_text path In_channel.input_all in
      match Json.parse (String.trim text) with
      | Ok j ->
          Alcotest.(check bool) "file has events" true
            (match Json.member "traceEvents" j with
            | Some (Json.List (_ :: _)) -> true
            | _ -> false)
      | Error e -> Alcotest.failf "trace file does not parse: %s" e)

(* ----------------------------- journal ----------------------------- *)

let with_journal f =
  Journal.enable ();
  Journal.clear ();
  Fun.protect
    ~finally:(fun () ->
      Journal.disable ();
      Journal.clear ())
    f

let test_journal_basics () =
  with_journal (fun () ->
      Journal.emit ~cycle:2 ~ctx:[ ("net", "rare_n7") ]
        Journal.Trigger_candidate_active;
      Journal.emit ~cycle:5 Journal.Mismatch_detected;
      Journal.emit ~cycle:6 Journal.Recovery_started;
      Journal.emit ~cycle:9 ~lane:3 Journal.Recovery_ok;
      let evs = Journal.events () in
      Alcotest.(check int) "four events" 4 (List.length evs);
      Alcotest.(check (list int)) "seq dense from 0" [ 0; 1; 2; 3 ]
        (List.map (fun e -> e.Journal.seq) evs);
      Alcotest.(check (list string)) "kinds in order"
        [
          "Trigger_candidate_active"; "Mismatch_detected"; "Recovery_started";
          "Recovery_ok";
        ]
        (List.map (fun e -> Journal.kind_name e.Journal.kind) evs);
      Alcotest.(check (option int)) "first detection cycle" (Some 5)
        (Journal.first_detection_cycle ());
      Alcotest.(check int) "lane carried" 3
        (List.nth evs 3).Journal.lane;
      Alcotest.(check (list string)) "tail 2"
        [ "Recovery_started"; "Recovery_ok" ]
        (List.map
           (fun e -> Journal.kind_name e.Journal.kind)
           (Journal.tail 2));
      (* kind names round-trip through the wire encoding *)
      List.iter
        (fun e ->
          Alcotest.(check bool) "kind_of_name inverts kind_name" true
            (Journal.kind_of_name (Journal.kind_name e.Journal.kind)
            = Some e.Journal.kind))
        evs)

let test_journal_disabled_is_noop () =
  Journal.disable ();
  Journal.clear ();
  Journal.emit ~cycle:1 Journal.Mismatch_detected;
  Alcotest.(check int) "nothing buffered" 0 (List.length (Journal.events ()));
  Alcotest.(check (option int)) "no detection" None
    (Journal.first_detection_cycle ())

let test_journal_json_roundtrip () =
  with_journal (fun () ->
      Journal.emit ~cycle:3 ~lane:7
        ~ctx:[ ("net", "rare_n9"); ("design", "motivational") ]
        Journal.Trigger_candidate_active;
      Journal.emit ~cycle:4 Journal.Mismatch_detected;
      let evs = Journal.events () in
      List.iter
        (fun e ->
          match Journal.event_of_json (Journal.event_to_json e) with
          | Ok e' ->
              Alcotest.(check bool) "event round-trips" true (e = e')
          | Error m -> Alcotest.failf "event_of_json: %s" m)
        evs;
      (* the whole journal document, re-parsed from its serialised text.
         The text layer rounds floats to 12 significant digits, so wall
         timestamps (~1e15 us) round-trip only approximately; every
         cycle-domain field must round-trip exactly. *)
      let text = Json.to_string (Journal.to_json ()) in
      match Result.bind (Json.parse text) Journal.events_of_json with
      | Ok evs' ->
          Alcotest.(check bool) "document round-trips" true
            (List.for_all2
               (fun a b ->
                 { a with Journal.ts_us = 0.0 }
                 = { b with Journal.ts_us = 0.0 }
                 && Float.abs (a.Journal.ts_us -. b.Journal.ts_us) < 1e5)
               evs evs')
      | Error m -> Alcotest.failf "events_of_json: %s" m)

let test_journal_bounded_drop () =
  with_journal (fun () ->
      Journal.set_capacity 4;
      Fun.protect
        ~finally:(fun () -> Journal.set_capacity 65_536)
        (fun () ->
          for c = 1 to 10 do
            Journal.emit ~cycle:c Journal.Trigger_candidate_active
          done;
          let evs = Journal.events () in
          Alcotest.(check int) "ring keeps 4" 4 (List.length evs);
          Alcotest.(check int) "6 dropped" 6 (Journal.dropped ());
          Alcotest.(check (list int)) "newest survive, oldest first"
            [ 7; 8; 9; 10 ]
            (List.map (fun e -> e.Journal.cycle) evs);
          Alcotest.(check (list int)) "seq still dense" [ 6; 7; 8; 9 ]
            (List.map (fun e -> e.Journal.seq) evs)))

let test_journal_multidomain_ordering () =
  with_journal (fun () ->
      let per_task = 1000 in
      ignore
        (Dpool.run ~jobs:4 (fun pool ->
             Dpool.map pool
               (fun lane ->
                 for c = 1 to per_task do
                   Journal.emit ~cycle:c ~lane Journal.Trigger_candidate_active
                 done)
               [ 0; 1; 2; 3 ]));
      let evs = Journal.events () in
      Alcotest.(check int) "all 4000 buffered" (4 * per_task)
        (List.length evs);
      (* seq is assigned under the journal lock: strictly increasing and
         dense even when four domains emit concurrently *)
      let ok = ref true in
      List.iteri (fun i e -> if e.Journal.seq <> i then ok := false) evs;
      Alcotest.(check bool) "seq strictly increasing and dense" true !ok;
      (* no event lost: every lane contributed its full count *)
      let counts = Array.make 4 0 in
      List.iter (fun e -> counts.(e.Journal.lane) <- counts.(e.Journal.lane) + 1) evs;
      Array.iter
        (fun n -> Alcotest.(check int) "per-lane count" per_task n)
        counts;
      match Json.member "trigger_candidate_active" (Journal.summary_json ()) with
      | Some (Json.Int n) -> Alcotest.(check int) "summary count" 4000 n
      | _ -> Alcotest.fail "summary missing trigger_candidate_active")

(* ------------------------------- vcd ------------------------------- *)

let test_vcd_roundtrip_handbuilt () =
  let wave =
    {
      Vcd.v_names = [| "clk"; "mismatch"; "rare n7" |];
      v_cycles = [| 1; 2; 3; 5 |];
      v_bits =
        [|
          [| false; false; true |];
          [| true; false; true |];
          [| true; false; true |];
          [| false; true; false |];
        |];
    }
  in
  let text = Vcd.to_string wave in
  (match Vcd.parse text with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok w ->
      Alcotest.(check (array string)) "names (sanitised)"
        [| "clk"; "mismatch"; "rare_n7" |]
        w.Vcd.v_names;
      Alcotest.(check (array int)) "cycles" wave.Vcd.v_cycles w.Vcd.v_cycles;
      Alcotest.(check bool) "bits identical" true
        (w.Vcd.v_bits = wave.Vcd.v_bits));
  Alcotest.(check bool) "empty wave rejected" true
    (raises_invalid (fun () ->
         Vcd.to_string { Vcd.v_names = [||]; v_cycles = [||]; v_bits = [||] }))

let qcheck_vcd_roundtrip =
  QCheck.Test.make ~name:"VCD round-trips random waves" ~count:100
    QCheck.(pair (int_range 1 120) (int_range 1 40))
    (fun (n_signals, n_cycles) ->
      let prng = Thr_util.Prng.create ~seed:(n_signals * 1000 + n_cycles) in
      let wave =
        {
          Vcd.v_names = Array.init n_signals (Printf.sprintf "s%d");
          v_cycles = Array.init n_cycles (fun t -> (t * 2) + 1);
          v_bits =
            Array.init n_cycles (fun _ ->
                Array.init n_signals (fun _ -> Thr_util.Prng.bool prng));
        }
      in
      match Vcd.parse (Vcd.to_string wave) with
      | Ok w -> w = wave
      | Error m -> QCheck.Test.fail_reportf "parse: %s" m)

(* ----------------------------- recorder ---------------------------- *)

let test_recorder_window () =
  let r = Recorder.create ~names:[| "a"; "b" |] ~depth:3 () in
  for c = 1 to 5 do
    Recorder.push r ~cycle:c [| c; c * 16 |]
  done;
  Alcotest.(check int) "cycles seen" 5 (Recorder.cycles_seen r);
  let w = Recorder.window r in
  Alcotest.(check (array int)) "last depth cycles" [| 3; 4; 5 |] w.Recorder.w_cycles;
  Alcotest.(check bool) "words copied, oldest first" true
    (w.Recorder.w_words = [| [| 3; 48 |]; [| 4; 64 |]; [| 5; 80 |] |]);
  (* lane extraction: bit l of each word *)
  let bits4 = Recorder.lane_bits w ~lane:4 in
  Alcotest.(check bool) "lane 4 tracks bit 4 of each word" true
    (bits4
    = [|
        [| false; true |] (* 48 *); [| false; false |] (* 64 *);
        [| false; true |] (* 80 *);
      |]);
  Alcotest.(check bool) "width mismatch rejected" true
    (raises_invalid (fun () -> Recorder.push r ~cycle:6 [| 1 |]));
  Alcotest.(check bool) "lane out of range rejected" true
    (raises_invalid (fun () -> Recorder.lane_bits w ~lane:63))

(* ------------------------------- log ------------------------------- *)

let with_captured_log level f =
  let lines = ref [] in
  Log.set_sink (Some (fun l -> lines := l :: !lines));
  let saved = Log.level () in
  Log.set_level level;
  Fun.protect
    ~finally:(fun () ->
      Log.set_sink None;
      Log.set_level saved)
    (fun () -> f ());
  List.rev !lines

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_log_levels_and_format () =
  let lines =
    with_captured_log Log.Warn (fun () ->
        Log.debug "too_quiet" [];
        Log.info "still_quiet" [];
        Log.warn "heard" [ ("k", "v") ];
        Log.error "also_heard" [ ("msg", "two words") ])
  in
  Alcotest.(check int) "only warn+error pass" 2 (List.length lines);
  let warn_line = List.nth lines 0 and error_line = List.nth lines 1 in
  Alcotest.(check bool) "warn formatted" true
    (contains warn_line "level=warn event=heard k=v");
  Alcotest.(check bool) "value with space quoted" true
    (contains error_line "msg=\"two words\"");
  Alcotest.(check bool) "timestamp present" true (contains warn_line "ts=")

let test_log_level_of_string () =
  Alcotest.(check bool) "debug" true (Log.level_of_string "debug" = Some Log.Debug);
  Alcotest.(check bool) "WARN" true (Log.level_of_string "WARN" = Some Log.Warn);
  Alcotest.(check bool) "junk" true (Log.level_of_string "loud" = None)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "name canonicalisation" `Quick
            test_name_canonicalisation;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "counter atomicity (Dpool, 4 domains)" `Quick
            test_counter_atomicity_dpool;
          Alcotest.test_case "histogram bucket boundaries" `Quick
            test_histogram_buckets;
          Alcotest.test_case "prometheus render" `Quick test_prometheus_render;
          Alcotest.test_case "json + snapshot deltas" `Quick
            test_metrics_json_and_snapshot;
          Alcotest.test_case "default buckets" `Quick test_default_buckets;
          QCheck_alcotest.to_alcotest qcheck_prometheus_cumulative;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is a no-op" `Quick
            test_trace_disabled_is_noop;
          Alcotest.test_case "bounded ring drops oldest" `Quick
            test_trace_ring_bound;
          Alcotest.test_case "span nesting" `Quick test_trace_nesting;
          Alcotest.test_case "exception unwinds" `Quick
            test_trace_exception_unwinds;
          Alcotest.test_case "chrome JSON roundtrip" `Quick
            test_trace_chrome_json_roundtrip;
          Alcotest.test_case "write_file" `Quick test_trace_write_file;
        ] );
      ( "journal",
        [
          Alcotest.test_case "basics" `Quick test_journal_basics;
          Alcotest.test_case "disabled is a no-op" `Quick
            test_journal_disabled_is_noop;
          Alcotest.test_case "json round-trip" `Quick
            test_journal_json_roundtrip;
          Alcotest.test_case "bounded ring drops oldest" `Quick
            test_journal_bounded_drop;
          Alcotest.test_case "seq ordering under 4 domains" `Quick
            test_journal_multidomain_ordering;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "hand-built round-trip" `Quick
            test_vcd_roundtrip_handbuilt;
          QCheck_alcotest.to_alcotest qcheck_vcd_roundtrip;
        ] );
      ( "recorder",
        [ Alcotest.test_case "ring window and lanes" `Quick test_recorder_window ] );
      ( "log",
        [
          Alcotest.test_case "levels and format" `Quick
            test_log_levels_and_format;
          Alcotest.test_case "level_of_string" `Quick test_log_level_of_string;
        ] );
    ]
