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

(* Per-core-instance execution context: the Trojan (if the licence is
   infected) and this instance's private trigger state. *)
type core = { trojan : (Trojan.t * Trojan.state) option }

let find_injection injections v ty =
  List.find_opt
    (fun inj -> Vendor.equal inj.inj_vendor v && Iptype.equal inj.inj_type ty)
    injections

let make_cores design injections =
  (* one core per (vendor, type, instance index) actually used *)
  let tbl = Hashtbl.create 32 in
  let spec = design.Design.spec in
  let assignment = Binding.instance_assignment spec design.Design.schedule design.Design.binding in
  Array.iteri
    (fun idx inst_no ->
      let c = Copy.of_index spec idx in
      let v = Binding.vendor design.Design.binding idx in
      let ty = Spec.iptype_of_op spec c.Copy.op in
      let key = (Vendor.id v, Iptype.to_index ty, inst_no) in
      if not (Hashtbl.mem tbl key) then begin
        let trojan =
          match find_injection injections v ty with
          | None -> None
          | Some inj -> Some (inj.trojan, Trojan.fresh_state inj.trojan)
        in
        Hashtbl.add tbl key { trojan }
      end)
    assignment;
  (tbl, assignment)

(* Execute one copy on its core, mutating the phase's value array.
   Operands come from the environment's resolved input [row]. *)
let execute_copy dfg prog row cores assignment spec binding values idx =
  let c = Copy.of_index spec idx in
  let op = c.Copy.op in
  let a = Eval.read prog row values op 0 in
  let b = Eval.read prog row values op 1 in
  let clean = Op.eval (Dfg.kind dfg op) a b in
  let v = Binding.vendor binding idx in
  let ty = Spec.iptype_of_op spec op in
  let key = (Vendor.id v, Iptype.to_index ty, assignment.(idx)) in
  let core = Hashtbl.find cores key in
  let out =
    match core.trojan with
    | None -> clean
    | Some (trojan, state) -> Trojan.apply trojan state ~a ~b ~clean
  in
  values.(op) <- out

let outputs_equal dfg golden values =
  List.for_all (fun o -> golden.(o) = values.(o)) (Dfg.outputs dfg)

let copies_by_step spec schedule phase =
  let n = Dfg.n_ops spec.Spec.dfg in
  List.init n (fun op -> Copy.index spec { Copy.op; phase })
  |> List.sort (fun a b ->
         Stdlib.compare (Schedule.step schedule a, a) (Schedule.step schedule b, b))

type session = {
  s_design : Design.t;
  s_cores : (int * int * int, core) Hashtbl.t;
  s_assignment : int array;
  s_program : Eval.program;
}

let create_session ?(injections = []) design =
  (match Design.validate design with
  | [] -> ()
  | problems ->
      invalid_arg
        (Printf.sprintf "Engine.run: invalid design (%s)" (List.hd problems)));
  let cores, assignment = make_cores design injections in
  {
    s_design = design;
    s_cores = cores;
    s_assignment = assignment;
    s_program = Eval.compile design.Design.spec.Spec.dfg;
  }

let run_phases ~recovery_copies session env =
  let design = session.s_design in
  let spec = design.Design.spec in
  let dfg = spec.Spec.dfg in
  let prog = session.s_program in
  (* one resolution per frame: the golden model and every copy read it *)
  let row = Eval.bind prog env in
  let golden = Eval.exec prog row in
  let cores = session.s_cores and assignment = session.s_assignment in
  let n = Dfg.n_ops dfg in
  let nc = Array.make n 0 and rc = Array.make n 0 in
  let exec values idx =
    execute_copy dfg prog row cores assignment spec design.Design.binding values
      idx
  in
  (* detection phase: interleave NC and RC in scheduled step order so that
     per-instance operand streams are cycle-faithful *)
  let det_copies =
    copies_by_step spec design.Design.schedule Copy.NC
    @ copies_by_step spec design.Design.schedule Copy.RC
    |> List.sort (fun a b ->
           Stdlib.compare (Schedule.step design.Design.schedule a, a)
             (Schedule.step design.Design.schedule b, b))
  in
  List.iter
    (fun idx ->
      let c = Copy.of_index spec idx in
      let values = match c.Copy.phase with Copy.NC -> nc | _ -> rc in
      exec values idx)
    det_copies;
  let detected = not (outputs_equal dfg nc rc) || not (Array.for_all2 ( = ) nc rc) in
  (* the comparator in hardware checks the computation outputs; comparing
     all per-op results as well gives the diagnostic latency below *)
  let detected_hw = not (outputs_equal dfg nc rc) in
  let detection_latency =
    if not detected then None
    else begin
      let best = ref max_int in
      for op = 0 to n - 1 do
        if nc.(op) <> rc.(op) then begin
          let s_nc =
            Schedule.step design.Design.schedule (Copy.index spec { Copy.op; phase = NC })
          in
          let s_rc =
            Schedule.step design.Design.schedule (Copy.index spec { Copy.op; phase = RC })
          in
          let ready = max s_nc s_rc in
          if ready < !best then best := ready
        end
      done;
      if !best = max_int then None else Some !best
    end
  in
  let nc_correct = outputs_equal dfg golden nc in
  let run_recovery = detected_hw && recovery_copies <> None in
  let recovery_correct =
    if not run_recovery then false
    else begin
      let rv = Array.make n 0 in
      let copies = match recovery_copies with Some c -> c | None -> [] in
      List.iter (exec rv) copies;
      outputs_equal dfg golden rv
    end
  in
  let cycles =
    spec.Spec.latency_detect
    + (if run_recovery then spec.Spec.latency_recover else 0)
  in
  (* mirror the behavioural run into the runtime journal; guarded here so
     the disabled cost stays one atomic load for the whole frame *)
  if Journal.enabled () then begin
    if detected_hw then
      Journal.emit
        ~cycle:(Option.value detection_latency ~default:spec.Spec.latency_detect)
        ~ctx:[ ("engine", "behavioural"); ("design", Dfg.name dfg) ]
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
    detected = detected_hw;
    nc_correct;
    recovery_ran = run_recovery;
    recovery_correct;
    cycles;
    detection_latency;
  }

let recovery_copies_of design =
  let spec = design.Design.spec in
  match spec.Spec.mode with
  | Spec.Detection_only -> None
  | Spec.Detection_and_recovery ->
      Some (copies_by_step spec design.Design.schedule Copy.RV)

let run_frame session env =
  run_phases ~recovery_copies:(recovery_copies_of session.s_design) session env

let run ?injections design env =
  run_frame (create_session ?injections design) env

let run_stream ?injections design envs =
  let session = create_session ?injections design in
  List.map (run_frame session) envs

let run_without_rebinding ?injections design env =
  (* naive recovery: replay the NC copies on the same cores *)
  let spec = design.Design.spec in
  let recovery_copies = Some (copies_by_step spec design.Design.schedule Copy.NC) in
  run_phases ~recovery_copies (create_session ?injections design) env
