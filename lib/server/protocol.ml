(* Line-delimited JSON wire protocol of the optimisation service.

   Every request and every response is one JSON object on one line.

   Requests:
     {"op":"solve", "dfg":"<thls DFG text>", ...options}
     {"op":"lint",  "dfg":"<thls DFG text>", ...options,
                    "width":N, "threshold":F,
                    "mutant":"none|bypass|trojan|trojan-seq|trojan-dud",
                    "jobs":N,
                    "prove":K, "prove_budget":N}
     {"op":"stats"}
     {"op":"metrics"}
     {"op":"events", "n":N}
     {"op":"shutdown"}

   Lint extras: "prove" escalates every rare-net finding to the prover
   portfolio up to bound K >= 1 (replayed witnesses, unbounded
   k-induction certificates or bounded unreachability); "prove_budget"
   caps the per-candidate solver steps and "jobs" (>= 1) caps the
   domains the prover's independent candidate clusters fan out over;
   verdicts do not depend on it.  The lint response carries the process
   exit code a local `thls lint` would return (0 clean / 4 findings / 5
   proof budget exhausted).

   Solve options (all optional unless noted):
     "dfg"              required DFG text (Thr_dfg.Parse syntax)
     "catalog"          "table1" | "eight"            (default "eight")
     "mode"             "detection" | "detection_and_recovery"
                                                      (default the latter)
     "latency_detect"   int   (default: critical path + 1)
     "latency_recover"  int   (default: critical path)
     "area"             int   (default: generous, 10 * 7000 * n_ops)
     "solver"           "search" | "ilp" | "greedy"   (default "search")
     "deadline_ms"      int   per-request solve budget

   Responses:
     {"status":"ok", "cache_hit":B, "seconds":F, "result":{...}}
     {"status":"ok", "clean":B, "exit_code":N, "report":{...}}   (lint)
     {"status":"ok", "stats":{...}, "metrics":{...}}
     {"status":"ok", "metrics":"<Prometheus text exposition>"}
     {"status":"ok", "events":[...], "dropped":N, "summary":{...}}
     {"status":"error", "code":C, "error":MSG}
   with C one of "parse" | "bad_request" | "queue_full" | "infeasible" |
   "budget" | "internal".  The "result" object is a pure function of the
   returned design, so a cache hit serialises bit-identically to the
   solve that populated it. *)

module Json = Thr_util.Json
module T = Trojan_hls

type solve = {
  dfg_text : string;
  catalog_name : string;
  mode : T.Spec.mode;
  latency_detect : int option;
  latency_recover : int option;
  area : int option;
  solver : T.Optimize.solver;
  deadline_ms : int option;
}

type mutant = No_mutant | Bypass | Trojan | Trojan_seq | Trojan_dud

type lint = {
  lint_solve : solve;
  width : int option;
  threshold : float option;
  mutant : mutant;
  prove : int option;
  prove_budget : int option;
  lint_jobs : int option;
}

type request =
  | Solve of solve
  | Lint of lint
  | Stats
  | Metrics
  | Events of int option  (** journal tail: newest [n] events (all if None) *)
  | Shutdown

(* ----------------------------- decoding ---------------------------- *)

let field_int name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Int i) -> Ok (Some i)
  | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)

(* a count that must be at least 1 when given *)
let field_pos name j =
  match field_int name j with
  | Ok (Some i) when i < 1 ->
      Error (Printf.sprintf "field %S must be >= 1" name)
  | r -> r

let field_float name j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some (Json.Float f) -> Ok (Some f)
  | Some (Json.Int i) -> Ok (Some (float_of_int i))
  | Some _ -> Error (Printf.sprintf "field %S must be a number" name)

let catalog_of_name = function
  | "table1" -> Ok T.Catalog.table1
  | "eight" -> Ok T.Catalog.eight_vendors
  | s -> Error (Printf.sprintf "unknown catalogue %S (table1 | eight)" s)

(* the options shared by "solve" and "lint" (which optimises first) *)
let solve_of_json ~op j : (solve, string * string) result =
  let bad fmt = Printf.ksprintf (fun m -> Error ("bad_request", m)) fmt in
  match Json.mem_str "dfg" j with
  | None -> bad "%s requires a string field \"dfg\"" op
  | Some dfg_text ->
      let catalog_name =
        Option.value ~default:"eight" (Json.mem_str "catalog" j)
      in
      let mode_name =
        Option.value ~default:"detection_and_recovery" (Json.mem_str "mode" j)
      in
      let solver_name =
        Option.value ~default:"search" (Json.mem_str "solver" j)
      in
      let ( let* ) = Result.bind in
      let with_code r = Result.map_error (fun m -> ("bad_request", m)) r in
      let* mode =
        match mode_name with
        | "detection" | "detection_only" -> Ok T.Spec.Detection_only
        | "detection_and_recovery" | "detection+recovery" ->
            Ok T.Spec.Detection_and_recovery
        | s -> bad "unknown mode %S" s
      in
      let* solver =
        match solver_name with
        | "search" -> Ok T.Optimize.License_search
        | "ilp" -> Ok T.Optimize.Ilp
        | "greedy" -> Ok T.Optimize.Greedy
        | s -> bad "unknown solver %S" s
      in
      let* latency_detect = with_code (field_int "latency_detect" j) in
      let* latency_recover = with_code (field_int "latency_recover" j) in
      let* area = with_code (field_int "area" j) in
      let* deadline_ms = with_code (field_int "deadline_ms" j) in
      Ok
        {
          dfg_text;
          catalog_name;
          mode;
          latency_detect;
          latency_recover;
          area;
          solver;
          deadline_ms;
        }

let request_of_json j : (request, string * string) result =
  let bad fmt = Printf.ksprintf (fun m -> Error ("bad_request", m)) fmt in
  match j with
  | Json.Obj _ -> (
      match Json.mem_str "op" j with
      | None -> bad "missing or non-string field \"op\""
      | Some "stats" -> Ok Stats
      | Some "metrics" -> Ok Metrics
      | Some "events" -> (
          match field_int "n" j with
          | Ok n -> Ok (Events n)
          | Error m -> Error ("bad_request", m))
      | Some "shutdown" -> Ok Shutdown
      | Some "solve" ->
          Result.map (fun s -> Solve s) (solve_of_json ~op:"solve" j)
      | Some "lint" ->
          let ( let* ) = Result.bind in
          let with_code r = Result.map_error (fun m -> ("bad_request", m)) r in
          let* lint_solve = solve_of_json ~op:"lint" j in
          let* width = with_code (field_int "width" j) in
          let* threshold = with_code (field_float "threshold" j) in
          let* mutant =
            match Json.mem_str "mutant" j with
            | None | Some "none" -> Ok No_mutant
            | Some "bypass" -> Ok Bypass
            | Some "trojan" -> Ok Trojan
            | Some "trojan-seq" | Some "trojan_seq" -> Ok Trojan_seq
            | Some "trojan-dud" | Some "trojan_dud" -> Ok Trojan_dud
            | Some s ->
                bad
                  "unknown mutant %S (none | bypass | trojan | trojan-seq | \
                   trojan-dud)"
                  s
          in
          let* prove = with_code (field_pos "prove" j) in
          let* prove_budget = with_code (field_int "prove_budget" j) in
          let* lint_jobs = with_code (field_pos "jobs" j) in
          Ok
            (Lint
               {
                 lint_solve;
                 width;
                 threshold;
                 mutant;
                 prove;
                 prove_budget;
                 lint_jobs;
               })
      | Some op ->
          bad "unknown op %S (solve | lint | stats | metrics | events | shutdown)"
            op)
  | _ -> Error ("bad_request", "request must be a JSON object")

let request_of_line line : (request, string * string) result =
  match Json.parse line with
  | Error msg -> Error ("parse", msg)
  | Ok j -> request_of_json j

(* ----------------------------- encoding ---------------------------- *)

let error_response ~code msg =
  Json.Obj
    [ ("status", Json.String "error"); ("code", Json.String code);
      ("error", Json.String msg) ]

let quality_name = function
  | T.Optimize.Optimal -> "optimal"
  | T.Optimize.Incumbent -> "incumbent"
  | T.Optimize.Heuristic -> "heuristic"

(* the "result" object: everything below is a deterministic function of
   (design, quality, degraded) — timing lives one level up *)
let design_json (design : T.Design.t) ~quality ~degraded =
  let spec = design.T.Design.spec in
  let s = T.Design.stats design in
  let licences =
    List.map
      (fun (v, ty) ->
        Json.Obj
          [ ("vendor", Json.String (T.Vendor.name v));
            ("type", Json.String (T.Iptype.to_string ty));
            ("cost", Json.Int (T.Catalog.cost spec.T.Spec.catalog v ty)) ])
      (T.Design.licences design)
  in
  let schedule =
    List.map
      (fun c ->
        Json.Obj
          [ ("op", Json.Int c.T.Copy.op);
            ("phase", Json.String (T.Copy.phase_to_string c.T.Copy.phase));
            ("step", Json.Int (T.Schedule.step_of spec design.T.Design.schedule c));
            ("vendor",
             Json.String
               (T.Vendor.name (T.Binding.vendor_of spec design.T.Design.binding c)))
          ])
      (T.Copy.all spec)
  in
  Json.Obj
    [ ("bench", Json.String (T.Dfg.name spec.T.Spec.dfg));
      ("mc", Json.Int s.T.Design.mc);
      ("u", Json.Int s.T.Design.u);
      ("t", Json.Int s.T.Design.t);
      ("v", Json.Int s.T.Design.v);
      ("area", Json.Int s.T.Design.area);
      ("quality", Json.String (quality_name quality));
      ("degraded", Json.Bool degraded);
      ("licences", Json.List licences);
      ("schedule", Json.List schedule) ]

let solve_response ~cache_hit ~seconds result =
  Json.Obj
    [ ("status", Json.String "ok"); ("cache_hit", Json.Bool cache_hit);
      ("seconds", Json.Float seconds); ("result", result) ]

let lint_response report =
  Json.Obj
    [ ("status", Json.String "ok");
      ("clean", Json.Bool (T.Check.clean report));
      ("exit_code",
       Json.Int (Thr_util.Exit_code.code (T.Check.exit_code report)));
      ("report", T.Check.to_json report) ]

let events_response n =
  let events =
    match n with Some n -> T.Journal.tail n | None -> T.Journal.events ()
  in
  Json.Obj
    [ ("status", Json.String "ok");
      ("events", Json.List (List.map T.Journal.event_to_json events));
      ("dropped", Json.Int (T.Journal.dropped ()));
      ("summary", T.Journal.summary_json ()) ]
