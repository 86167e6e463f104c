module Dfg = Thr_dfg.Dfg
module Eval = Thr_dfg.Eval
module Op = Thr_dfg.Op
module Spec = Thr_hls.Spec
module Copy = Thr_hls.Copy
module Schedule = Thr_hls.Schedule
module Binding = Thr_hls.Binding
module Design = Thr_hls.Design
module Vendor = Thr_iplib.Vendor
module Iptype = Thr_iplib.Iptype
module Trojan = Thr_trojan.Trojan
module Journal = Thr_obs.Journal

type injection = {
  inj_vendor : Vendor.t;
  inj_type : Iptype.t;
  trojan : Trojan.t;
}

type verdict = {
  detected : bool;
  nc_correct : bool;
  recovery_ran : bool;
  recovery_correct : bool;
  cycles : int;
  detection_latency : int option;
}

(* What a frame needs that depends on the design alone.  Copies are dense
   indices ([Copy.index]); cores are dense ids, one per (vendor, type,
   instance) the binding uses, numbered in copy order. *)
type plan = {
  design : Design.t;
  program : Eval.program;
  kind : Op.kind array; (* per op *)
  op_of : int array; (* per copy *)
  core_of : int array; (* per copy *)
  core_vendor : Vendor.t array; (* per core *)
  core_type : Iptype.t array; (* per core *)
  detect : int array; (* NC and RC copies in step order *)
  recover : int array option; (* RV copies in step order, if the design recovers *)
  naive : int array; (* NC copies in step order: re-execution on the same cores *)
  ready : int array; (* per op: the later step of its NC and RC copies *)
  outputs : int array;
  instance : int array array; (* per core: its detection copies in step order *)
}

let plan design =
  (match Design.validate design with
  | [] -> ()
  | problems ->
      invalid_arg
        (Printf.sprintf "Engine.run: invalid design (%s)" (List.hd problems)));
  let spec = design.Design.spec in
  let dfg = spec.Spec.dfg in
  let schedule = design.Design.schedule and binding = design.Design.binding in
  let n = Dfg.n_ops dfg in
  let op_of = Array.init (Copy.count spec) (fun idx -> (Copy.of_index spec idx).Copy.op) in
  let ids = Hashtbl.create 32 and cores = ref [] in
  let core_of =
    Array.mapi
      (fun idx inst ->
        let v = Binding.vendor binding idx and ty = Spec.iptype_of_op spec op_of.(idx) in
        let key = (Vendor.id v, Iptype.to_index ty, inst) in
        match Hashtbl.find_opt ids key with
        | Some c -> c
        | None ->
            let c = Hashtbl.length ids in
            Hashtbl.add ids key c;
            cores := (v, ty) :: !cores;
            c)
      (Binding.instance_assignment spec schedule binding)
  in
  let cores = Array.of_list (List.rev !cores) in
  let step = Schedule.step schedule in
  let by_step copies =
    let a = Array.of_list copies in
    Array.sort
      (fun x y ->
        let c = Int.compare (step x) (step y) in
        if c <> 0 then c else Int.compare x y)
      a;
    a
  in
  let phase phase = List.init n (fun op -> Copy.index spec { Copy.op; phase }) in
  let detect = by_step (phase Copy.NC @ phase Copy.RC) in
  let instance = Array.make (Array.length cores) [] in
  for k = Array.length detect - 1 downto 0 do
    let c = core_of.(detect.(k)) in
    instance.(c) <- detect.(k) :: instance.(c)
  done;
  let program = Eval.compile dfg in
  {
    design;
    program;
    kind = Array.init n (Dfg.kind dfg);
    op_of;
    core_of;
    core_vendor = Array.map fst cores;
    core_type = Array.map snd cores;
    detect;
    recover =
      (match spec.Spec.mode with
      | Spec.Detection_only -> None
      | Spec.Detection_and_recovery -> Some (by_step (phase Copy.RV)));
    naive = by_step (phase Copy.NC);
    ready = Array.init n (fun op -> max (step op) (step (n + op)));
    outputs = Array.of_list (Eval.output_ids program);
    instance = Array.map Array.of_list instance;
  }

let program p = p.program

let instance_copies p idx = p.instance.(p.core_of.(idx))

(* Per core, the Trojan it carries (if its licence is infected) and that
   instance's private trigger state. *)
type cores = (Trojan.t * Trojan.state) option array

(* Fresh states for the cores an injection infects; the first injection
   naming a licence wins. *)
let infect p injections : cores =
  let cores = Array.make (Array.length p.core_vendor) None in
  (match injections with
  | [] -> ()
  | _ ->
      Array.iteri
        (fun c v ->
          let ty = p.core_type.(c) in
          match
            List.find_opt
              (fun inj -> Vendor.equal inj.inj_vendor v && Iptype.equal inj.inj_type ty)
              injections
          with
          | None -> ()
          | Some inj -> cores.(c) <- Some (inj.trojan, Trojan.fresh_state inj.trojan))
        p.core_vendor);
  cores

(* Execute copy [idx] on its core, writing its op's slot of [values].
   Operands come from the frame's resolved input [row]. *)
let execute p cores row values idx =
  let op = p.op_of.(idx) in
  let a = Eval.read p.program row values op 0 in
  let b = Eval.read p.program row values op 1 in
  let clean = Op.eval p.kind.(op) a b in
  values.(op) <-
    (match cores.(p.core_of.(idx)) with
    | None -> clean
    | Some (trojan, state) -> Trojan.apply trojan state ~a ~b ~clean)

let outputs_equal p x y = Array.for_all (fun o -> x.(o) = y.(o)) p.outputs

(* The frame kernel behind every entry point. *)
let frame p cores ~recovery env =
  let spec = p.design.Design.spec in
  (* one resolution per frame: the golden model and every copy read it *)
  let row = Eval.bind p.program env in
  let golden = Eval.exec p.program row in
  let n = Array.length p.kind in
  let nc = Array.make n 0 and rc = Array.make n 0 in
  (* detection phase: NC and RC interleaved in scheduled step order, so
     per-instance operand streams are cycle-faithful *)
  Array.iter (fun idx -> execute p cores row (if idx < n then nc else rc) idx) p.detect;
  (* the comparator in hardware checks the computation outputs; comparing
     all per-op results as well gives the diagnostic latency below *)
  let detected = not (outputs_equal p nc rc) in
  let detection_latency =
    let best = ref max_int in
    for op = 0 to n - 1 do
      if nc.(op) <> rc.(op) && p.ready.(op) < !best then best := p.ready.(op)
    done;
    if !best = max_int then None else Some !best
  in
  let nc_correct = outputs_equal p golden nc in
  let run_recovery = detected && Option.is_some recovery in
  let recovery_correct =
    match recovery with
    | Some copies when run_recovery ->
        let rv = Array.make n 0 in
        Array.iter (execute p cores row rv) copies;
        outputs_equal p golden rv
    | _ -> false
  in
  let cycles =
    spec.Spec.latency_detect
    + (if run_recovery then spec.Spec.latency_recover else 0)
  in
  (* mirror the behavioural run into the runtime journal; guarded here so
     the disabled cost stays one atomic load for the whole frame *)
  if Journal.enabled () then begin
    if detected then
      Journal.emit
        ~cycle:(Option.value detection_latency ~default:spec.Spec.latency_detect)
        ~ctx:[ ("engine", "behavioural"); ("design", Dfg.name spec.Spec.dfg) ]
        Journal.Mismatch_detected;
    if run_recovery then begin
      Journal.emit
        ~cycle:(spec.Spec.latency_detect + 1)
        ~ctx:[ ("engine", "behavioural") ]
        Journal.Recovery_started;
      Journal.emit ~cycle:cycles
        ~ctx:[ ("latency_cycles", string_of_int spec.Spec.latency_recover) ]
        (if recovery_correct then Journal.Recovery_ok
         else Journal.Recovery_failed)
    end
  end;
  {
    detected;
    nc_correct;
    recovery_ran = run_recovery;
    recovery_correct;
    cycles;
    detection_latency;
  }

let run_plan ?(injections = []) ?(rebind = true) p env =
  (* naive recovery replays the NC copies on the same cores *)
  let recovery = if rebind then p.recover else Some p.naive in
  frame p (infect p injections) ~recovery env

let run ?injections design env = run_plan ?injections (plan design) env

let run_without_rebinding ?injections design env =
  run_plan ?injections ~rebind:false (plan design) env

type session = { s_plan : plan; s_cores : cores }

let create_session ?(injections = []) design =
  let p = plan design in
  { s_plan = p; s_cores = infect p injections }

let run_frame s env = frame s.s_plan s.s_cores ~recovery:s.s_plan.recover env

let run_stream ?injections design envs =
  let s = create_session ?injections design in
  List.map (run_frame s) envs
