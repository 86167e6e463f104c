(* The optimisation service: protocol dispatch, admission control, the
   content-addressed solve cache, and request metrics.

   One [t] is shared by every connection (and every worker domain) of a
   server.  [handle_line] never raises: anything wrong with a request
   comes back as a structured {"status":"error"} object, and an
   unexpected exception inside a solve is reported as code "internal"
   with the connection — and the server — left standing.

   Admission control is a bounded in-flight counter: a solve entering
   while [max_queue] solves are already running or queued is refused
   with code "queue_full" instead of piling latency onto everyone else.
   Deadlines degrade instead of hanging: a solve that exhausts its
   time budget falls back to the greedy heuristic and, when even that
   has nothing, errors with code "budget".  Degraded results are never
   cached — a later request with a larger budget deserves a real solve. *)

module Json = Thr_util.Json
module T = Trojan_hls
module Metrics = Thr_obs.Metrics
module Trace = Thr_obs.Trace

let m_requests = Metrics.counter "service_requests_total"
let m_lint_requests = Metrics.counter "service_lint_total"
let m_degraded = Metrics.counter "service_degraded_total"
let m_queue_refused = Metrics.counter "service_queue_refused_total"
let m_solve_ms = Metrics.histogram "service_solve_ms"

type config = {
  capacity : int;  (* solve-cache entries held in memory *)
  persist_dir : string option;  (* on-disk second tier, None = memory only *)
  max_queue : int;  (* admission control: max in-flight solves *)
  default_deadline_ms : int option;  (* applied when a request names none *)
}

let default_config =
  {
    capacity = 64;
    persist_dir = None;
    max_queue = 16;
    default_deadline_ms = None;
  }

type t = {
  config : config;
  cache : Cache.t;
  in_flight : int Atomic.t;
  stop : bool Atomic.t;
  mutex : Mutex.t;
  mutable requests : int;  (* solve requests accepted (not queue-refused) *)
  mutable degraded : int;  (* solves that fell back to the greedy incumbent *)
  mutable latencies_ms : float array;  (* per accepted solve, service-side *)
  mutable n_latencies : int;
}

let create ?(config = default_config) () =
  if config.max_queue < 1 then
    invalid_arg "Service.create: max_queue must be >= 1";
  {
    config;
    cache = Cache.create ~capacity:config.capacity ?persist_dir:config.persist_dir ();
    in_flight = Atomic.make 0;
    stop = Atomic.make false;
    mutex = Mutex.create ();
    requests = 0;
    degraded = 0;
    latencies_ms = Array.make 64 0.0;
    n_latencies = 0;
  }

let cache t = t.cache

let stopping t = Atomic.get t.stop

let record_latency t ms =
  Metrics.observe m_solve_ms ms;
  Mutex.protect t.mutex (fun () ->
      if t.n_latencies = Array.length t.latencies_ms then begin
        let bigger = Array.make (2 * t.n_latencies) 0.0 in
        Array.blit t.latencies_ms 0 bigger 0 t.n_latencies;
        t.latencies_ms <- bigger
      end;
      t.latencies_ms.(t.n_latencies) <- ms;
      t.n_latencies <- t.n_latencies + 1)

let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int (n - 1) +. 0.5)))

let latency_percentiles t =
  Mutex.protect t.mutex (fun () ->
      let a = Array.sub t.latencies_ms 0 t.n_latencies in
      Array.sort Stdlib.compare a;
      (percentile a 0.50, percentile a 0.95))

(* ---------------------------- spec build ---------------------------- *)

(* Mirrors the defaults of `thls optimize` so a CLI solve and a service
   solve of the same benchmark collide in the cache. *)
let spec_of_request (r : Protocol.solve) =
  match T.Dfg_parse.of_string r.Protocol.dfg_text with
  | Error e ->
      Error ("bad_request", Format.asprintf "dfg: %a" T.Dfg_parse.pp_error e)
  | Ok dfg -> (
      match Protocol.catalog_of_name r.Protocol.catalog_name with
      | Error m -> Error ("bad_request", m)
      | Ok catalog -> (
          let cp = T.Dfg.critical_path dfg in
          let latency_detect =
            match r.Protocol.latency_detect with Some l -> l | None -> cp + 1
          in
          let area_limit =
            match r.Protocol.area with
            | Some a -> a
            | None -> 10 * 7000 * T.Dfg.n_ops dfg
          in
          match
            T.Spec.make ~mode:r.Protocol.mode
              ?latency_recover:r.Protocol.latency_recover ~dfg ~catalog
              ~latency_detect ~area_limit ()
          with
          | spec -> Ok spec
          | exception Invalid_argument m -> Error ("bad_request", m)))

(* ------------------------- cache-hit remap ------------------------- *)

(* A cached design is numbered for the spec it was solved with; compose
   the two canonical permutations to re-express its schedule and binding
   in the numbering of the incoming request.  Identical requests compose
   to the identity, so their responses are bit-identical. *)
let remap_design (entry : Cache.entry) (spec_b : T.Spec.t) (perm_b : int array) =
  let design_a = entry.Cache.design in
  let spec_a = design_a.T.Design.spec in
  let n = Array.length entry.Cache.perm in
  let inv_a = Array.make n 0 in
  Array.iteri (fun op pos -> inv_a.(pos) <- op) entry.Cache.perm;
  let op_a op_b = inv_a.(perm_b.(op_b)) in
  let index_a idx_b =
    let c = T.Copy.of_index spec_b idx_b in
    T.Copy.index spec_a { c with T.Copy.op = op_a c.T.Copy.op }
  in
  let count = T.Copy.count spec_b in
  let steps =
    Array.init count (fun idx ->
        T.Schedule.step design_a.T.Design.schedule (index_a idx))
  in
  let vendors =
    Array.init count (fun idx ->
        T.Binding.vendor design_a.T.Design.binding (index_a idx))
  in
  T.Design.make spec_b (T.Schedule.make spec_b steps)
    (T.Binding.make spec_b vendors)

(* ------------------------------ solve ------------------------------ *)

let solve_miss t (r : Protocol.solve) spec (key : Key.t) =
  let deadline_ms =
    match r.Protocol.deadline_ms with
    | Some _ as d -> d
    | None -> t.config.default_deadline_ms
  in
  let time_limit =
    Option.map (fun ms -> float_of_int ms /. 1000.0) deadline_ms
  in
  match
    T.Optimize.run ~solver:r.Protocol.solver ?time_limit ~jobs:1 spec
  with
  | Ok { T.Optimize.design; quality; seconds; candidates; _ } ->
      Cache.store t.cache ~key:key.Key.hash
        {
          Cache.content = key.Key.content;
          design;
          perm = key.Key.perm;
          quality;
          solve_seconds = seconds;
          candidates;
        };
      Ok (design, quality, false)
  | Error T.Optimize.Infeasible_proven ->
      Error ("infeasible", "no design satisfies the constraints")
  | Error T.Optimize.Infeasible_budget -> (
      (* budget exhausted with no incumbent: degrade to the greedy
         heuristic rather than hanging or failing outright *)
      match
        if r.Protocol.solver = T.Optimize.Greedy then Error T.Optimize.Infeasible_budget
        else T.Optimize.run ~solver:T.Optimize.Greedy ~jobs:1 spec
      with
      | Ok { T.Optimize.design; _ } ->
          Mutex.protect t.mutex (fun () -> t.degraded <- t.degraded + 1);
          Metrics.incr m_degraded;
          Ok (design, T.Optimize.Incumbent, true)
      | Error _ ->
          Error
            ( "budget",
              "search budget exhausted with no incumbent (raise deadline_ms)" ))

(* cache-first design resolution, shared by solve and lint *)
let resolve_design t (r : Protocol.solve) spec =
  let key =
    Trace.with_span "service.key" (fun () ->
        Key.of_spec ~solver:r.Protocol.solver spec)
  in
  Trace.with_span "service.solve" (fun () ->
      match Cache.find t.cache ~key:key.Key.hash ~content:key.Key.content with
      | Some entry ->
          let design = remap_design entry spec key.Key.perm in
          Ok (true, design, entry.Cache.quality, false)
      | None -> (
          match solve_miss t r spec key with
          | Ok (design, quality, degraded) -> Ok (false, design, quality, degraded)
          | Error e -> Error e))

(* admission control shared by the solving ops *)
let with_admission t f =
  let depth = Atomic.fetch_and_add t.in_flight 1 in
  if depth >= t.config.max_queue then begin
    ignore (Atomic.fetch_and_add t.in_flight (-1));
    Metrics.incr m_queue_refused;
    Protocol.error_response ~code:"queue_full"
      (Printf.sprintf "service at admission limit (%d in flight)"
         t.config.max_queue)
  end
  else
    Fun.protect
      ~finally:(fun () -> ignore (Atomic.fetch_and_add t.in_flight (-1)))
      f

let handle_solve t (r : Protocol.solve) =
  with_admission t (fun () ->
      Mutex.protect t.mutex (fun () -> t.requests <- t.requests + 1);
      Metrics.incr m_requests;
      let t0 = Unix.gettimeofday () in
      let finish response =
        record_latency t ((Unix.gettimeofday () -. t0) *. 1000.0);
        response
      in
      match Trace.with_span "service.canon" (fun () -> spec_of_request r) with
      | Error (code, msg) -> finish (Protocol.error_response ~code msg)
      | Ok spec -> (
          Trace.with_span "service.respond" @@ fun () ->
          match resolve_design t r spec with
          | Ok (cache_hit, design, quality, degraded) ->
              let result = Protocol.design_json design ~quality ~degraded in
              finish
                (Protocol.solve_response ~cache_hit
                   ~seconds:(Unix.gettimeofday () -. t0)
                   result)
          | Error (code, msg) -> finish (Protocol.error_response ~code msg)))

let handle_lint t (l : Protocol.lint) =
  let r = l.Protocol.lint_solve in
  with_admission t (fun () ->
      Metrics.incr m_lint_requests;
      match Trace.with_span "service.canon" (fun () -> spec_of_request r) with
      | Error (code, msg) -> Protocol.error_response ~code msg
      | Ok spec -> (
          match resolve_design t r spec with
          | Error (code, msg) -> Protocol.error_response ~code msg
          | Ok (_, design, _, _) -> (
              Trace.with_span "service.lint" @@ fun () ->
              let width = Option.value ~default:16 l.Protocol.width in
              match
                match l.Protocol.mutant with
                | Protocol.No_mutant -> T.Rtl.elaborate ~width design
                | Protocol.Bypass ->
                    T.Rtl.elaborate ~width ~seeded_bug:T.Rtl.Comparator_skip
                      design
                | Protocol.Trojan ->
                    T.Rtl.elaborate ~width
                      ~injections:[ T.Rtl.canned_injection ~width design ]
                      design
                | Protocol.Trojan_seq ->
                    T.Rtl.elaborate ~width
                      ~injections:
                        [ T.Rtl.canned_sequential_injection ~width design ]
                      design
                | Protocol.Trojan_dud ->
                    T.Rtl.elaborate ~width
                      ~injections:[ T.Rtl.canned_dud_injection ~width design ]
                      design
              with
              | exception Invalid_argument m ->
                  Protocol.error_response ~code:"bad_request" m
              | rtl ->
                  let report =
                    T.Rtl.check ?rare_threshold:l.Protocol.threshold
                      ?prove:l.Protocol.prove
                      ?prove_budget:l.Protocol.prove_budget
                      ?jobs:l.Protocol.lint_jobs rtl
                  in
                  Protocol.lint_response report)))

(* ------------------------------ stats ------------------------------ *)

let stats_json t =
  let c = Cache.counters t.cache in
  let p50, p95 = latency_percentiles t in
  let requests, degraded =
    Mutex.protect t.mutex (fun () -> (t.requests, t.degraded))
  in
  Json.Obj
    [ ("status", Json.String "ok");
      ( "stats",
        Json.Obj
          [ ("requests", Json.Int requests);
            ("hits", Json.Int c.Cache.hits);
            ("misses", Json.Int c.Cache.misses);
            ("evictions", Json.Int c.Cache.evictions);
            ("disk_hits", Json.Int c.Cache.disk_hits);
            ("degraded", Json.Int degraded);
            ("cache_size", Json.Int (Cache.size t.cache));
            ("cache_capacity", Json.Int (Cache.capacity t.cache));
            ("queue_depth", Json.Int (Atomic.get t.in_flight));
            ("max_queue", Json.Int t.config.max_queue);
            ("p50_ms", Json.Float p50);
            ("p95_ms", Json.Float p95);
            (* runtime journal summary: per-kind event counts and the
               first detection cycle of this process's recorded runs *)
            ("journal", Trojan_hls.Journal.summary_json ()) ] );
      (* the full process-wide registry rides along with the service's
         own aggregates, so one stats request shows solver internals too *)
      ("metrics", Metrics.to_json ()) ]

(* --------------------------- entry point --------------------------- *)

let metrics_json () =
  Json.Obj
    [
      ("status", Json.String "ok");
      ("metrics", Json.String (Metrics.to_prometheus ()));
    ]

let handle_request t = function
  | Protocol.Stats -> stats_json t
  | Protocol.Metrics -> metrics_json ()
  | Protocol.Events n -> Protocol.events_response n
  | Protocol.Shutdown ->
      Atomic.set t.stop true;
      Json.Obj
        [ ("status", Json.String "ok"); ("shutting_down", Json.Bool true) ]
  | Protocol.Solve r -> (
      try handle_solve t r
      with e ->
        Protocol.error_response ~code:"internal" (Printexc.to_string e))
  | Protocol.Lint l -> (
      try handle_lint t l
      with e ->
        Protocol.error_response ~code:"internal" (Printexc.to_string e))

let handle_line t line =
  Trace.with_span "service.request" @@ fun () ->
  match Trace.with_span "service.parse" (fun () -> Protocol.request_of_line line) with
  | Error (code, msg) -> Protocol.error_response ~code msg
  | Ok req -> handle_request t req
