(** Trojan-tolerant high-level synthesis.

    Reproduction of Cui, Ma, Shi & Wu, "High-Level Synthesis for Run-Time
    Hardware Trojan Detection and Recovery" (DAC 2014): design with
    untrusted third-party IP cores so that an activated Trojan is detected
    at run time by a diverse re-computation and neutralised by re-binding
    operations to different vendors.

    This module re-exports the whole public API under one roof:

    - {!Op}, {!Dfg}, {!Dfg_parse}, {!Dfg_eval}, {!Profile} — data-flow
      graphs and the closely-related-input profiler;
    - {!Iptype}, {!Vendor}, {!Catalog} — the IP-core market model;
    - {!Spec}, {!Copy}, {!Rules}, {!Schedule}, {!Binding}, {!Design} —
      the HLS layer and the four diversity rules;
    - {!Optimize} (with {!License_search}, {!Ilp_formulation}, {!Greedy},
      {!Csp} underneath) — minimum-licence-cost scheduling and binding;
    - {!Simplex}, {!Ilp_model}, {!Ilp_solve} — the bundled LP/ILP engines;
    - {!Netlist}, {!Gate_sim}, {!Bus}, {!Trojan}, {!Trojan_circuits} —
      gate-level substrate and the Trojan models of Figs. 2–3;
    - {!Engine}, {!Campaign} — run-time detection/recovery execution;
    - {!Check} (with {!Lint}, {!Taint}, {!Prob}, {!Finding}) — the
      gate-level static analyser behind [thls lint];
    - {!Sat_solver}, {!Sat_cnf}, {!Bmc} — the CDCL SAT solver, Tseitin
      CNF lowering and bounded model checker behind [thls lint --prove];
    - {!Benchmarks}, {!Dfg_generator} — the Section 5 workloads;
    - {!Prng}, {!Tablefmt}, {!Dpool}, {!Json} — deterministic randomness,
      table output, the domain pool behind every [--jobs] flag, and the
      JSON values spoken by the optimisation service (whose modules live
      in the separate [thr_server] library). *)

module Op = Thr_dfg.Op
module Dfg = Thr_dfg.Dfg
module Dfg_parse = Thr_dfg.Parse
module Dfg_eval = Thr_dfg.Eval
module Profile = Thr_dfg.Profile

module Iptype = Thr_iplib.Iptype
module Vendor = Thr_iplib.Vendor
module Catalog = Thr_iplib.Catalog

module Spec = Thr_hls.Spec
module Copy = Thr_hls.Copy
module Rules = Thr_hls.Rules
module Schedule = Thr_hls.Schedule
module Binding = Thr_hls.Binding
module Design = Thr_hls.Design

module Optimize = Optimize
module License_search = Thr_opt.License_search
module Ilp_formulation = Thr_opt.Ilp_formulation
module Greedy = Thr_opt.Greedy
module Csp = Thr_opt.Csp
module Opt_instance = Thr_opt.Instance
module Pareto = Thr_opt.Pareto
module Endurance = Thr_opt.Endurance

module Simplex = Thr_lp.Simplex
module Ilp_model = Thr_ilp.Model
module Ilp_solve = Thr_ilp.Solve
module Lp_format = Thr_ilp.Lp_format

module Netlist = Thr_gates.Netlist
module Gate_sim = Thr_gates.Sim
module Gate_packed = Thr_gates.Packed
module Bus = Thr_gates.Bus
module Trojan = Thr_trojan.Trojan
module Trojan_circuits = Thr_trojan.Circuits

module Engine = Thr_runtime.Engine
module Campaign = Thr_runtime.Campaign
module Rtl = Thr_runtime.Rtl
module Word = Thr_gates.Word
module Verilog = Thr_gates.Verilog

module Check = Thr_check.Check
module Lint = Thr_check.Lint
module Taint = Thr_check.Taint
module Prob = Thr_check.Prob
module Finding = Thr_check.Finding

module Sat_solver = Thr_sat.Solver
module Sat_cnf = Thr_sat.Cnf
module Sat_preprocess = Thr_sat.Preprocess
module Bmc = Thr_sat.Bmc
module Induction = Thr_sat.Induction

module Logic_test = Thr_testtime.Logic_test
module Side_channel = Thr_testtime.Side_channel
module Testtime = Thr_testtime.Harness

module Benchmarks = Thr_benchmarks.Suite
module Dfg_generator = Thr_benchmarks.Generator

module Prng = Thr_util.Prng
module Tablefmt = Thr_util.Tablefmt
module Dpool = Thr_util.Dpool
module Json = Thr_util.Json
module Exit_code = Thr_util.Exit_code

module Trace = Thr_obs.Trace
module Metrics = Thr_obs.Metrics
module Log = Thr_obs.Log
module Journal = Thr_obs.Journal
module Recorder = Thr_obs.Recorder
module Vcd = Thr_obs.Vcd
