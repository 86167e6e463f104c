(* k-induction portfolio over a shared incremental cone context.

   One batch of candidates shares two incremental solvers over the union
   of their fan-in cones: [base] unrolls from the power-on state (plain
   BMC frames), [step] unrolls from a free initial state with
   pairwise-distinct state constraints (the loop-free / simple-path
   strengthening).  Frames are encoded lazily and only deepen; every
   candidate question is an assumption solve, so learnt clauses carry
   across candidates and depths.

   Soundness of the step: let a counterexample of minimal depth [d > k]
   exist.  Minimality makes its [d] states pairwise distinct (a repeat
   could be spliced out, shortening it) and keeps the target value false
   at every earlier frame of the same trace (a prefix would otherwise be
   a shorter counterexample).  Its last [k + 1] states then satisfy the
   step query — frames [1..k+1] from an arbitrary state, assumptions
   [¬b_1 .. ¬b_k ∧ b_{k+1}], distinct states — so an Unsat step plus a
   clean base case through [k] refutes every depth at once. *)

module Trace = Thr_obs.Trace
module Metrics = Thr_obs.Metrics
module Netlist = Thr_gates.Netlist
module Dpool = Thr_util.Dpool

let m_certificates = Metrics.counter "thr_sat_certificates_total"

type ctx = {
  nl : Netlist.t;
  cone : bool array; (* union cone of the whole batch *)
  targets : Netlist.net list; (* frozen in every preprocessed frame *)
  base : Solver.t;
  mutable base_frames : Cnf.frame list; (* newest first *)
  step : Solver.t;
  step_pp : Preprocess.t;
  mutable step_frames : Cnf.frame list; (* newest first *)
}

(* Encode one more frame onto [s], optionally routed through the
   preprocessor.  The frame boundary — anything allocated before this
   frame (state aliases into it), the frame's inputs, its state and
   next-state variables and every candidate target — is frozen so
   chaining, assumptions and witness extraction stay sound. *)
let encode ctx s ~pp ~free_state ~prev =
  match pp with
  | None ->
      Cnf.encode_frame_via (Cnf.solver_sink s) ctx.nl ~free_state
        ~cone:ctx.cone ~prev ()
  | Some pp ->
    let n0 = Solver.n_vars s in
    let buf = ref [] in
    let sink =
      {
        Cnf.fresh_var = (fun () -> Solver.new_var s);
        clause = (fun lits n -> buf := List.init n (Array.get lits) :: !buf);
      }
    in
    let frame =
      Cnf.encode_frame_via sink ctx.nl ~free_state ~cone:ctx.cone ~prev ()
    in
    let n_vars = Solver.n_vars s in
    let frozen = Array.make (n_vars + 1) false in
    for v = 1 to n0 do
      frozen.(v) <- true
    done;
    Array.iter
      (fun (_, v) -> if v <> 0 then frozen.(v) <- true)
      (Cnf.inputs frame);
    Array.iter (fun v -> frozen.(v) <- true) (Cnf.state_vars frame);
    Array.iter (fun v -> frozen.(v) <- true) (Cnf.next_state_vars frame);
    List.iter
      (fun net ->
        let v = Cnf.var frame net in
        if v <> 0 then frozen.(v) <- true)
      ctx.targets;
    let simplified, _ =
      Preprocess.simplify ~probe_limit:32 ~elim_occ_limit:3 pp ~frozen
        ~n_vars (List.rev !buf)
    in
    List.iter (Solver.add_clause s) simplified;
    frame

(* 1-based frame from a newest-first list *)
let nth_frame frames k = List.nth frames (List.length frames - k)

(* The base solver's job is finding shallow witnesses fast, so its
   frames always go in raw: simplifying them costs more than the easy
   Sat queries it could save, and raw frames keep witness extraction
   free of model reconstruction. *)
let base_frame ctx k =
  while List.length ctx.base_frames < k do
    let prev = match ctx.base_frames with [] -> None | p :: _ -> Some p in
    let f = encode ctx ctx.base ~pp:None ~free_state:false ~prev in
    ctx.base_frames <- f :: ctx.base_frames
  done;
  nth_frame ctx.base_frames k

(* simple-path constraint: the two frames' DFF states differ in at
   least one bit, via one xor variable per state bit *)
let distinct s fa fb =
  let sa = Cnf.state_vars fa and sb = Cnf.state_vars fb in
  let diff =
    Array.map2
      (fun a b ->
        let d = Solver.new_var s in
        Solver.add_clause s [ -d; a; b ];
        Solver.add_clause s [ -d; -a; -b ];
        Solver.add_clause s [ d; -a; b ];
        Solver.add_clause s [ d; a; -b ];
        d)
      sa sb
  in
  Solver.add_clause s (Array.to_list diff)

(* The step solver carries the deep Unsat work (the induction queries
   that close certificates), so its first frame — whose clauses chain
   into every later one — is the one place preprocessing pays.  Later
   frames go in raw: [simplify] scans every variable allocated so far,
   so running it per frame is quadratic in depth for savings the first
   frame already banked. *)
let step_frame ctx m =
  while List.length ctx.step_frames < m do
    let deep = ctx.step_frames = [] in
    let pp = if deep then Some ctx.step_pp else None in
    let prev = match ctx.step_frames with [] -> None | p :: _ -> Some p in
    let f = encode ctx ctx.step ~pp ~free_state:deep ~prev in
    List.iter (fun g -> distinct ctx.step f g) ctx.step_frames;
    ctx.step_frames <- f :: ctx.step_frames
  done;
  nth_frame ctx.step_frames m

let make_ctx ~cone nl cands =
  let roots = Array.to_list (Array.map fst cands) in
  {
    nl;
    cone;
    targets = roots;
    base = Solver.create ();
    base_frames = [];
    step = Solver.create ();
    step_pp = Preprocess.create ();
    step_frames = [];
  }

(* per-candidate budget, metered as the candidate's share of the step
   counters of the solvers it queries; one [spent] covers both phases *)
let solve_metered ~budget spent i s phase asms =
  match budget with
  | Some b when b - spent.(i) <= 0 -> Solver.Unknown
  | _ ->
      let s0 = Solver.steps s in
      let left =
        match budget with None -> None | Some b -> Some (b - spent.(i))
      in
      let r = Solver.solve ~assumptions:asms ~phase ?max_steps:left s in
      spent.(i) <- spent.(i) + (Solver.steps s - s0);
      r

let target_var frame net =
  let v = Cnf.var frame net in
  if v = 0 then
    invalid_arg "Induction.prove: target net missing from its own cone";
  v

let union_cone nl cands =
  Netlist.in_cone nl ~through_dffs:true
    ~roots:(Array.to_list (Array.map fst cands))
    ()

(* A candidate whose own cone is stateless needs no unrolling: frame 1
   of the union encoding decides it for all time.  One forward pass over
   the evaluation order marks every cone net that can see a DFF through
   its fan-in — much cheaper than a full cone traversal per candidate. *)
let comb_mask nl ~cone cands =
  let stateful = Array.make (Array.length cone) false in
  let sees n = stateful.(Netlist.net_index n) in
  Array.iter
    (fun net ->
      let i = Netlist.net_index net in
      if cone.(i) then
        stateful.(i) <-
          (match Netlist.driver nl net with
          | Netlist.D_dff _ -> true
          | Netlist.D_input _ | Netlist.D_const _ -> false
          | Netlist.D_not a -> sees a
          | Netlist.D_and (a, b)
          | Netlist.D_or (a, b)
          | Netlist.D_xor (a, b)
          | Netlist.D_nand (a, b)
          | Netlist.D_nor (a, b) ->
              sees a || sees b
          | Netlist.D_mux (s, a, b) -> sees s || sees a || sees b))
    (Netlist.nets_in_order nl);
  Array.map (fun (net, _) -> not (sees net)) cands

(* Base phase: frame-1 verdicts for the stateless candidates, then a
   plain BMC sweep deepening 1..bound — the cheap pinned-init solver
   decides every reachable candidate before any (expensive, free-init)
   step query is worth running.  Writes Reachable / Inconclusive /
   depth-0 certificates into [outcome]; a candidate still [None]
   afterwards is clean through [bound]. *)
let base_phase ~bound ~budget ctx cands comb outcome spent =
  let n = Array.length cands in
  let settle i o = outcome.(i) <- Some o in
  let f1 = base_frame ctx 1 in
  Array.iteri
    (fun i (net, value) ->
      if comb.(i) then begin
        let tv = target_var f1 net in
        match
          solve_metered ~budget spent i ctx.base `Bmc
            [ (if value then tv else -tv) ]
        with
        | Solver.Sat ->
            settle i
              (Bmc.Reachable
                 (Bmc.witness_of ctx.base ~target:net ~value [ f1 ]))
        | Solver.Unknown -> settle i (Bmc.Inconclusive 1)
        | Solver.Unsat ->
            Metrics.incr m_certificates;
            settle i
              (Bmc.Unreachable_unbounded
                 { Bmc.c_depth = 0; c_method = "combinational" })
      end)
    cands;
  let undecided () =
    let u = ref [] in
    for i = n - 1 downto 0 do
      if outcome.(i) = None then u := i :: !u
    done;
    !u
  in
  let k = ref 0 in
  while undecided () <> [] && !k < bound do
    incr k;
    let fk = base_frame ctx !k in
    List.iter
      (fun i ->
        let net, value = cands.(i) in
        let tv = target_var fk net in
        match
          solve_metered ~budget spent i ctx.base `Base
            [ (if value then tv else -tv) ]
        with
        | Solver.Sat ->
            settle i
              (Bmc.Reachable
                 (Bmc.witness_of ctx.base ~target:net ~value ctx.base_frames))
        | Solver.Unknown -> settle i (Bmc.Inconclusive !k)
        | Solver.Unsat -> ())
      (undecided ())
  done

(* Step phase, for the candidates the base sweep left clean through
   [bound]: deepen k until each one's step query closes (a certificate
   at k — sound because its base case is clean through [bound] >= k),
   its budget dies, or the bound is hit. *)
let step_phase ~bound ~budget ctx cands outcome spent =
  let alive = Array.map Option.is_none outcome in
  let any_alive () = Array.exists Fun.id alive in
  let k = ref 0 in
  while any_alive () && !k < bound do
    incr k;
    ignore (step_frame ctx (!k + 1));
    Array.iteri
      (fun i (net, value) ->
        if alive.(i) then begin
          let asms = ref [] in
          for j = 1 to !k + 1 do
            let tv = target_var (nth_frame ctx.step_frames j) net in
            let b = if value then tv else -tv in
            asms := (if j <= !k then -b else b) :: !asms
          done;
          match solve_metered ~budget spent i ctx.step `Step !asms with
          | Solver.Unsat ->
              Metrics.incr m_certificates;
              outcome.(i) <-
                Some
                  (Bmc.Unreachable_unbounded
                     { Bmc.c_depth = !k; c_method = "k-induction" });
              alive.(i) <- false
          | Solver.Unknown ->
              (* induction abandoned; the bounded verdict stands *)
              alive.(i) <- false
          | Solver.Sat -> ()
        end)
      cands
  done

(* One cluster: base sweep to [bound] first, induction only for the
   survivors, one [spent] meter across both phases. *)
let solve_cluster ~bound ~budget nl cands =
  let n = Array.length cands in
  Trace.with_span "sat.induction"
    ~args:[ ("netlist", Netlist.name nl); ("candidates", string_of_int n) ]
    (fun () ->
      let cone = union_cone nl cands in
      let comb = comb_mask nl ~cone cands in
      let ctx = make_ctx ~cone nl cands in
      let outcome : Bmc.outcome option array = Array.make n None in
      let spent = Array.make n 0 in
      base_phase ~bound ~budget ctx cands comb outcome spent;
      step_phase ~bound ~budget ctx cands outcome spent;
      Array.map (function Some o -> o | None -> Bmc.Unreachable bound) outcome)

(* A shared context only pays when the batch's cones actually overlap: a
   batch mixing a wide shallow cone with a narrow deep one unrolls the
   whole union to the deep candidate's depth for nothing.  Greedy
   clustering in input order — a candidate joins the first cluster whose
   running union its cone resembles (Jaccard >= 1/2), else opens its
   own — keeps homogeneous batches (one trigger chain's worth of nets)
   in a single context while splitting genuinely unrelated cones.
   Each test and join walks only the candidate's own cone indices, and a
   cluster's union size is kept up to date as its bits are set. *)
let clusters nl cands =
  let cones =
    Array.map
      (fun (net, _) ->
        Array.of_list
          (Netlist.fold_cone nl ~through_dffs:true ~roots:[ net ]
             (fun acc n -> Netlist.net_index n :: acc)
             []))
      cands
  in
  let n_nets = Netlist.n_nets nl in
  (* each cluster: member indices (reversed), running union, its size *)
  let cls : (int list * bool array * int) list ref = ref [] in
  Array.iteri
    (fun i cone ->
      let size = Array.length cone in
      let inter u =
        Array.fold_left (fun c j -> if u.(j) then c + 1 else c) 0 cone
      in
      let join u =
        Array.fold_left
          (fun c j ->
            if u.(j) then c
            else begin
              u.(j) <- true;
              c + 1
            end)
          0 cone
      in
      let rec place = function
        | [] -> None
        | ((_, u, usz) as c) :: rest ->
            let it = inter u in
            if 2 * it >= usz + size - it then Some (c, rest)
            else
              Option.map
                (fun (hit, others) -> (hit, c :: others))
                (place rest)
      in
      match place !cls with
      | Some ((members, u, usz), rest) ->
          cls := (i :: members, u, usz + join u) :: rest
      | None ->
          let u = Array.make n_nets false in
          cls := !cls @ [ ([ i ], u, join u) ])
    cones;
  List.map (fun (members, _, _) -> List.rev members) !cls

(* Clusters share nothing but the finalised netlist, so they fan out
   over the pool whole; outcomes scatter back in input order and, each
   cluster keeping its own solvers and meters, are the same for any
   [jobs]. *)
let prove ?(bound = Bmc.default_bound) ?budget ?(jobs = 1) nl cands =
  Netlist.finalise nl;
  if bound < 1 then invalid_arg "Induction.prove: bound < 1";
  let n = Array.length cands in
  let solve = solve_cluster ~bound ~budget nl in
  match clusters nl cands with
  | [] -> [||]
  | [ _ ] -> solve cands
  | cls ->
      let subs =
        List.map
          (fun members -> Array.of_list (List.map (fun i -> cands.(i)) members))
          cls
      in
      let res =
        Dpool.run
          ~jobs:(max 1 (min jobs (List.length cls)))
          (fun pool -> Dpool.map pool solve subs)
      in
      let out = Array.make n (Bmc.Unreachable bound) in
      List.iter2
        (fun members r -> List.iteri (fun j i -> out.(i) <- r.(j)) members)
        cls res;
      out
