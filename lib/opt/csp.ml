module Spec = Thr_hls.Spec
module Copy = Thr_hls.Copy
module Schedule = Thr_hls.Schedule
module Binding = Thr_hls.Binding
module Dfg = Thr_dfg.Dfg
module Metrics = Thr_obs.Metrics

(* propagation stats: search-tree nodes are added in bulk per solve so
   the hot propagation loop itself carries no atomics *)
let m_solves = Metrics.counter "csp_solves_total"
let m_nodes = Metrics.counter "csp_nodes_total"
let m_unknown = Metrics.counter "csp_unknown_total"

type verdict =
  | Feasible of Schedule.t * Binding.t
  | Infeasible
  | Unknown

type stats = { nodes : int }

exception Budget

let n_types = 3

let ceil_div a b = (a + b - 1) / b

(* Per-copy ASAP/ALAP windows in absolute steps (recovery copies shifted
   past the detection phase). *)
let copy_windows inst =
  let spec = inst.Instance.spec in
  let n = inst.Instance.n_copies in
  let dfg = spec.Spec.dfg in
  let asap = Dfg.asap dfg in
  let alap_det = Dfg.alap dfg ~latency:spec.Spec.latency_detect in
  let alap_rec =
    match spec.Spec.mode with
    | Spec.Detection_only -> [||]
    | Spec.Detection_and_recovery -> Dfg.alap dfg ~latency:spec.Spec.latency_recover
  in
  let est0 = Array.make (max n 1) 1 and lst0 = Array.make (max n 1) 1 in
  for idx = 0 to n - 1 do
    let c = Copy.of_index spec idx in
    let op = c.Copy.op in
    match c.Copy.phase with
    | Copy.NC | Copy.RC ->
        est0.(idx) <- asap.(op);
        lst0.(idx) <- alap_det.(op)
    | Copy.RV ->
        est0.(idx) <- spec.Spec.latency_detect + asap.(op);
        lst0.(idx) <- spec.Spec.latency_detect + alap_rec.(op)
  done;
  (est0, lst0)

(* Minimum instances of type [ti] forced by the schedule windows: the
   interval (energetic) bound.  For every step interval [a, b] inside a
   phase, the copies whose ASAP/ALAP window is contained in it need
   ceil(count / |interval|) instances; the type's bound is the maximum
   over intervals and phases.  (ASAP/ALAP pinning matters: e.g. fir16's 32
   multiplier copies all live in steps 1–2 of a 6-step phase.) *)
let min_instances_w inst ~est0 ~lst0 ti =
  let spec = inst.Instance.spec in
  let phase_bound ~phase_lo ~phase_hi in_phase =
    if phase_hi < phase_lo then 0
    else begin
      let best = ref 0 in
      for a = phase_lo to phase_hi do
        for b = a to phase_hi do
          let count = ref 0 in
          for idx = 0 to inst.Instance.n_copies - 1 do
            if inst.Instance.type_of_copy.(idx) = ti && in_phase idx then begin
              if est0.(idx) >= a && lst0.(idx) <= b then incr count
            end
          done;
          let need = ceil_div !count (b - a + 1) in
          if need > !best then best := need
        done
      done;
      !best
    end
  in
  let det =
    phase_bound ~phase_lo:1 ~phase_hi:spec.Spec.latency_detect (fun idx ->
        Copy.in_detection (Copy.of_index spec idx))
  in
  let rec_ =
    match spec.Spec.mode with
    | Spec.Detection_only -> 0
    | Spec.Detection_and_recovery ->
        phase_bound ~phase_lo:(spec.Spec.latency_detect + 1)
          ~phase_hi:(Spec.total_latency spec) (fun idx ->
            not (Copy.in_detection (Copy.of_index spec idx)))
  in
  let window_need = max det rec_ in
  (* every one of the clique-bound many distinct licences the diversity
     rules force must own at least one instance *)
  if window_need = 0 then 0 else max window_need inst.Instance.min_vendors.(ti)

(* -------------------------- solver context ------------------------ *)

(* All the per-instance precomputation and scratch storage the search
   needs, built once and reused across [solve_ctx] calls with different
   [allowed] sets (the licence search probes thousands of candidate sets
   against one instance).  NOT safe to share across domains or re-enter:
   every call scribbles over the same scratch arrays. *)
type ctx = {
  inst : Instance.t;
  est0 : int array;
  lst0 : int array;
  needed : int array;  (* min_instances per type index *)
  (* scratch reused across calls *)
  dom : int array;
  vend : int array;
  step : int array;
  est : int array;
  lst : int array;
  usage : int array array;  (* (licence, step) -> copies running *)
  peak : int array;
  remaining_det : int array;
  remaining_rec : int array;
  copies_on : int array;
}

let make_ctx inst =
  let spec = inst.Instance.spec in
  let n = max inst.Instance.n_copies 1 in
  let nl = max (inst.Instance.n_vendors * n_types) 1 in
  let total_steps = Spec.total_latency spec in
  let est0, lst0 = copy_windows inst in
  let needed =
    Array.init n_types (fun ti ->
        if List.mem ti inst.Instance.types_used then
          min_instances_w inst ~est0 ~lst0 ti
        else 0)
  in
  {
    inst;
    est0;
    lst0;
    needed;
    dom = Array.make n 0;
    vend = Array.make n (-1);
    step = Array.make n (-1);
    est = Array.make n 1;
    lst = Array.make n 1;
    usage = Array.make_matrix nl (total_steps + 1) 0;
    peak = Array.make nl 0;
    remaining_det = Array.make nl 0;
    remaining_rec = Array.make nl 0;
    copies_on = Array.make nl 0;
  }

let area_lb ~needed inst ~allowed =
  let total = ref 0 in
  let missing = ref false in
  List.iter
    (fun ti ->
      let needed = needed.(ti) in
      if needed > 0 then begin
        let cheapest = ref max_int in
        for k = 0 to inst.Instance.n_vendors - 1 do
          if
            allowed.(k).(ti)
            && inst.Instance.offers.(k).(ti)
            && inst.Instance.area.(k).(ti) < !cheapest
          then cheapest := inst.Instance.area.(k).(ti)
        done;
        if !cheapest = max_int then missing := true
        else total := !total + (needed * !cheapest)
      end)
    inst.Instance.types_used;
  if !missing then None else Some !total

let area_lower_bound inst ~allowed =
  let est0, lst0 = copy_windows inst in
  let needed =
    Array.init n_types (fun ti ->
        if List.mem ti inst.Instance.types_used then
          min_instances_w inst ~est0 ~lst0 ti
        else 0)
  in
  area_lb ~needed inst ~allowed

(* The search runs in two nested phases sharing one node budget:

   Phase A assigns a vendor to every copy — a pure graph colouring over
   the conflict graph with forward checking.  No scheduling is involved,
   so colouring infeasibility is proven without enumerating steps.

   Phase B, entered once all vendors are fixed, assigns steps: window and
   dependence propagation plus area pruning with a per-licence look-ahead
   bound (remaining copies of a licence need instance-slots inside their
   phase window; shortfalls force new instances at known area).  If Phase
   B exhausts its subtree, control backtracks into Phase A's colouring. *)
let solve_ctx ?(max_nodes = 200_000) ctx ~allowed =
  let inst = ctx.inst in
  let spec = inst.Instance.spec in
  let n = inst.Instance.n_copies in
  let nv = inst.Instance.n_vendors in
  let total_steps = Spec.total_latency spec in
  let est0 = ctx.est0 and lst0 = ctx.lst0 in
  let dom = ctx.dom in
  for idx = 0 to n - 1 do
    let ti = inst.Instance.type_of_copy.(idx) in
    let m = ref 0 in
    for k = 0 to nv - 1 do
      if allowed.(k).(ti) && inst.Instance.offers.(k).(ti) then m := !m lor (1 lsl k)
    done;
    dom.(idx) <- !m
  done;
  let vend = ctx.vend in
  Array.fill vend 0 n (-1);
  let step = ctx.step in
  let nodes = ref 0 in
  let tick () =
    incr nodes;
    if !nodes > max_nodes then raise Budget
  in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go m 0
  in
  let infeasible_precheck =
    (n > 0 && Array.exists (fun m -> m = 0) (Array.sub dom 0 n))
    ||
    match area_lb ~needed:ctx.needed inst ~allowed with
    | None -> true
    | Some lb -> lb > spec.Spec.area_limit
  in

  (* ---------------- Phase B: step assignment ---------------- *)
  let usage = ctx.usage in
  let peak = ctx.peak in
  let area_now = ref 0 in
  (* per-licence unscheduled copies per phase window *)
  let remaining_det = ctx.remaining_det in
  let remaining_rec = ctx.remaining_rec in
  let det_lo = 1 and det_hi = spec.Spec.latency_detect in
  let rec_lo = spec.Spec.latency_detect + 1 and rec_hi = total_steps in
  let licence idx = (vend.(idx) * n_types) + inst.Instance.type_of_copy.(idx) in
  let lic_area lic =
    inst.Instance.area.(lic / n_types).(lic mod n_types)
  in
  (* Lower bound on extra area forced by the remaining copies of each
     licence, given current peaks. *)
  let area_look_ahead_ok () =
    let extra = ref 0 in
    for lic = 0 to (nv * n_types) - 1 do
      if remaining_det.(lic) > 0 || remaining_rec.(lic) > 0 then begin
        let p = peak.(lic) in
        let free_det = ref 0 and free_rec = ref 0 in
        if p > 0 then begin
          for s = det_lo to det_hi do
            free_det := !free_det + (p - usage.(lic).(s))
          done;
          for s = rec_lo to rec_hi do
            free_rec := !free_rec + (p - usage.(lic).(s))
          done
        end;
        let need w remaining free =
          if remaining <= free then 0 else ceil_div (remaining - free) w
        in
        let det_new = need spec.Spec.latency_detect remaining_det.(lic) !free_det in
        let rec_new =
          if remaining_rec.(lic) = 0 then 0
          else need spec.Spec.latency_recover remaining_rec.(lic) !free_rec
        in
        let instances = max det_new rec_new in
        if instances > 0 then extra := !extra + (instances * lic_area lic)
      end
    done;
    !area_now + !extra <= spec.Spec.area_limit
  in
  let est = ctx.est and lst = ctx.lst in
  (* list-scheduling order: earliest start first, then least slack — keeps
     high-utilisation packings from fragmenting *)
  let select_step () =
    let best = ref (-1) in
    let best_key = ref (max_int, max_int) in
    for idx = 0 to n - 1 do
      if step.(idx) < 0 then begin
        let key = (est.(idx), lst.(idx) - est.(idx)) in
        if key < !best_key then begin
          best := idx;
          best_key := key
        end
      end
    done;
    !best
  in
  (* Transitive window tightening.  [tighten dir idx bound undo] walks the
     unassigned descendants (dir = succs, est) or ancestors (dir = preds,
     lst) and tightens their windows, recording old values in [undo].
     Returns false if a window empties. *)
  let rec tighten_est idx bound undo =
    if step.(idx) >= 0 then true (* consistency enforced at its assignment *)
    else if est.(idx) >= bound then true
    else begin
      undo := (idx, est.(idx)) :: !undo;
      est.(idx) <- bound;
      if est.(idx) > lst.(idx) then false
      else List.for_all (fun u -> tighten_est u (bound + 1) undo) inst.Instance.succs.(idx)
    end
  in
  let rec tighten_lst idx bound undo =
    if step.(idx) >= 0 then true
    else if lst.(idx) <= bound then true
    else begin
      undo := (idx, lst.(idx)) :: !undo;
      lst.(idx) <- bound;
      if est.(idx) > lst.(idx) then false
      else List.for_all (fun u -> tighten_lst u (bound - 1) undo) inst.Instance.preds.(idx)
    end
  in
  let rec search_steps () =
    let idx = select_step () in
    if idx < 0 then true
    else begin
      tick ();
      let lic = licence idx in
      let in_det = Copy.in_detection (Copy.of_index spec idx) in
      (* candidate steps ordered by (marginal area, usage, step) *)
      let cands = ref [] in
      for s = lst.(idx) downto est.(idx) do
        let marginal = if usage.(lic).(s) + 1 > peak.(lic) then lic_area lic else 0 in
        cands := (marginal, usage.(lic).(s), s) :: !cands
      done;
      let cands = List.sort Stdlib.compare !cands in
      let try_step (_, _, s) =
        let old_peak = peak.(lic) in
        let old_area = !area_now in
        usage.(lic).(s) <- usage.(lic).(s) + 1;
        if usage.(lic).(s) > peak.(lic) then begin
          peak.(lic) <- usage.(lic).(s);
          area_now := !area_now + lic_area lic
        end;
        if in_det then remaining_det.(lic) <- remaining_det.(lic) - 1
        else remaining_rec.(lic) <- remaining_rec.(lic) - 1;
        step.(idx) <- s;
        let undo_est = ref [] and undo_lst = ref [] in
        let ok = ref (!area_now <= spec.Spec.area_limit && area_look_ahead_ok ()) in
        if !ok then
          ok :=
            List.for_all (fun u -> tighten_est u (s + 1) undo_est)
              inst.Instance.succs.(idx)
            && List.for_all (fun u -> tighten_lst u (s - 1) undo_lst)
                 inst.Instance.preds.(idx);
        let result = !ok && search_steps () in
        if not result then begin
          List.iter (fun (u, v) -> est.(u) <- v) !undo_est;
          List.iter (fun (u, v) -> lst.(u) <- v) !undo_lst;
          step.(idx) <- -1;
          if in_det then remaining_det.(lic) <- remaining_det.(lic) + 1
          else remaining_rec.(lic) <- remaining_rec.(lic) + 1;
          usage.(lic).(s) <- usage.(lic).(s) - 1;
          peak.(lic) <- old_peak;
          area_now := old_area
        end;
        result
      in
      List.exists try_step cands
    end
  in
  let enter_phase_b () =
    (* initialise Phase B state from the complete vendor assignment *)
    Array.iter (fun row -> Array.fill row 0 (total_steps + 1) 0) usage;
    Array.fill peak 0 (nv * n_types) 0;
    Array.fill remaining_det 0 (nv * n_types) 0;
    Array.fill remaining_rec 0 (nv * n_types) 0;
    area_now := 0;
    Array.blit est0 0 est 0 n;
    Array.blit lst0 0 lst 0 n;
    Array.fill step 0 n (-1);
    for idx = 0 to n - 1 do
      let lic = licence idx in
      if Copy.in_detection (Copy.of_index spec idx) then
        remaining_det.(lic) <- remaining_det.(lic) + 1
      else remaining_rec.(lic) <- remaining_rec.(lic) + 1
    done;
    area_look_ahead_ok () && search_steps ()
  in

  (* ---------------- Phase A: vendor colouring ---------------- *)
  let copies_on = ctx.copies_on in
  Array.fill copies_on 0 (nv * n_types) 0;
  let select_vendor () =
    let best = ref (-1) in
    let best_key = ref (max_int, max_int) in
    for idx = 0 to n - 1 do
      if vend.(idx) < 0 then begin
        let key = (popcount dom.(idx), -List.length inst.Instance.conflicts.(idx)) in
        if key < !best_key then begin
          best := idx;
          best_key := key
        end
      end
    done;
    !best
  in
  let rec search_vendors () =
    let idx = select_vendor () in
    if idx < 0 then enter_phase_b ()
    else begin
      tick ();
      let ti = inst.Instance.type_of_copy.(idx) in
      (* prefer vendors with fewer copies of this type (balances peaks) *)
      let cands = ref [] in
      let m = ref dom.(idx) in
      while !m <> 0 do
        let b = !m land - !m in
        let rec lg v acc = if v = 1 then acc else lg (v lsr 1) (acc + 1) in
        let k = lg b 0 in
        m := !m land (!m - 1);
        cands := (copies_on.((k * n_types) + ti), k) :: !cands
      done;
      let cands = List.sort Stdlib.compare !cands in
      let try_vendor (_, k) =
        vend.(idx) <- k;
        copies_on.((k * n_types) + ti) <- copies_on.((k * n_types) + ti) + 1;
        let bit = 1 lsl k in
        let undo_dom = ref [] in
        let ok = ref true in
        List.iter
          (fun u ->
            if !ok && vend.(u) < 0 && dom.(u) land bit <> 0 then begin
              undo_dom := u :: !undo_dom;
              dom.(u) <- dom.(u) land lnot bit;
              if dom.(u) = 0 then ok := false
            end)
          inst.Instance.conflicts.(idx);
        let result = !ok && search_vendors () in
        if not result then begin
          List.iter (fun u -> dom.(u) <- dom.(u) lor bit) !undo_dom;
          copies_on.((k * n_types) + ti) <- copies_on.((k * n_types) + ti) - 1;
          vend.(idx) <- -1
        end;
        result
      in
      List.exists try_vendor cands
    end
  in
  let verdict, st =
    if infeasible_precheck then (Infeasible, { nodes = 0 })
    else
      match search_vendors () with
      | true ->
          let sched = Schedule.make spec (Array.sub step 0 n) in
          let vendors =
            Array.map (fun k -> inst.Instance.vendors.(k)) (Array.sub vend 0 n)
          in
          (Feasible (sched, Binding.make spec vendors), { nodes = !nodes })
      | false -> (Infeasible, { nodes = !nodes })
      | exception Budget -> (Unknown, { nodes = !nodes })
  in
  Metrics.incr m_solves;
  Metrics.add m_nodes st.nodes;
  (match verdict with Unknown -> Metrics.incr m_unknown | _ -> ());
  (verdict, st)

let solve ?max_nodes inst ~allowed = solve_ctx ?max_nodes (make_ctx inst) ~allowed
