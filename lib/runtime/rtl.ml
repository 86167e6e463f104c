module Dfg = Thr_dfg.Dfg
module Op = Thr_dfg.Op
module Eval = Thr_dfg.Eval
module Spec = Thr_hls.Spec
module Copy = Thr_hls.Copy
module Schedule = Thr_hls.Schedule
module Binding = Thr_hls.Binding
module Design = Thr_hls.Design
module Vendor = Thr_iplib.Vendor
module Iptype = Thr_iplib.Iptype
module Trojan = Thr_trojan.Trojan
module Netlist = Thr_gates.Netlist
module Bus = Thr_gates.Bus
module Word = Thr_gates.Word
module Sim = Thr_gates.Sim
module Packed = Thr_gates.Packed
module Check = Thr_check.Check
module Taint = Thr_check.Taint
module Finding = Thr_check.Finding
module Journal = Thr_obs.Journal
module Recorder = Thr_obs.Recorder

type t = {
  netlist : Netlist.t;
  width : int;
  design : Design.t;
  mismatch : Netlist.net;
  nc_outputs : (int * Bus.t) list;
  rc_outputs : (int * Bus.t) list;
  rv_outputs : (int * Bus.t) list;
  final_outputs : (int * Bus.t) list;
  vendor_regions : (int * int * int) list;
  total_cycles : int;
  mutant_gates : string list;
  golden : Eval.program;
}

type seeded_bug = Comparator_skip

let bits_for n =
  let rec go k = if 1 lsl k > n then k else go (k + 1) in
  go 1

let check_injection width inj =
  let fits v = v >= 0 && v < 1 lsl width in
  let trigger_ok =
    match inj.Engine.trojan.Trojan.trigger with
    | Trojan.Combinational { a_pattern; b_pattern; mask }
    | Trojan.Sequential { a_pattern; b_pattern; mask; _ }
    | Trojan.Decoy { a_pattern; b_pattern; mask; _ } ->
        fits a_pattern && fits b_pattern && fits mask
  in
  let payload_ok =
    match inj.Engine.trojan.Trojan.payload with
    | Trojan.Xor_offset m | Trojan.Latched m -> fits m
  in
  if not (trigger_ok && payload_ok) then
    invalid_arg "Rtl.elaborate: injection does not fit the datapath width"

(* trigger condition net over the core's operand buses *)
let condition nl width a_bus b_bus ~a_pattern ~b_pattern ~mask =
  let masked_eq bus pattern =
    let bits = ref [] in
    for i = 0 to width - 1 do
      if (mask lsr i) land 1 = 1 then begin
        let want = (pattern lsr i) land 1 = 1 in
        bits := (if want then bus.(i) else Netlist.not_ nl bus.(i)) :: !bits
      end
    done;
    match !bits with [] -> Netlist.const nl true | l -> Netlist.and_list nl l
  in
  Netlist.and_ nl (masked_eq a_bus a_pattern) (masked_eq b_bus b_pattern)

(* Trigger signal for an infected core.  [active] is high on cycles where
   the core executes an operation; sequential trigger state only advances
   on active cycles, matching the behavioural model's operand stream. *)
let trigger_net nl width trojan ~active ~a_bus ~b_bus =
  (* the saturating consecutive-match counter shared by [Sequential] and
     [Decoy] triggers *)
  let counter_fire cond threshold =
      let k = bits_for threshold in
      (* The payload must corrupt the very operation that completes the
         trigger sequence (the behavioural model updates the counter and
         then applies the payload), so the trigger reads the counter's
         next state, not its registered value. *)
      let fire = ref None in
      let _count =
        Netlist.dff_loop_many nl ~inits:(Array.make k false) (fun qs ->
            let at_thr = Bus.eq_const nl qs threshold in
            let carry = ref (Netlist.const nl true) in
            let incremented = Array.make (Array.length qs) qs.(0) in
            Array.iteri
              (fun i q ->
                incremented.(i) <- Netlist.xor_ nl q !carry;
                (* the carry out of the top bit has no reader *)
                if i < Array.length qs - 1 then
                  carry := Netlist.and_ nl !carry q)
              qs;
            let next =
              Array.mapi
                (fun i q ->
                  (* active && cond: count' = min(count+1, thr);
                     active && !cond: 0;  idle: hold *)
                  let inc_or_hold =
                    Netlist.mux nl ~sel:at_thr ~t0:incremented.(i) ~t1:q
                  in
                  let on_active = Netlist.and_ nl cond inc_or_hold in
                  Netlist.mux nl ~sel:active ~t0:q ~t1:on_active)
                qs
            in
            fire := Some (Bus.eq_const nl next threshold);
            next)
      in
      (match !fire with Some t -> t | None -> assert false)
  in
  match trojan.Trojan.trigger with
  | Trojan.Combinational { a_pattern; b_pattern; mask } ->
      Netlist.and_ nl active
        (condition nl width a_bus b_bus ~a_pattern ~b_pattern ~mask)
  | Trojan.Sequential { a_pattern; b_pattern; mask; threshold } ->
      counter_fire (condition nl width a_bus b_bus ~a_pattern ~b_pattern ~mask)
        threshold
  | Trojan.Decoy { a_pattern; b_pattern; mask; threshold } ->
      (* the same operand bus against two different patterns: each
         comparator half is satisfiable on its own, but their conjunction
         demands some bit both ways, so the chain from the condition down
         through the counter is structurally dead *)
      counter_fire (condition nl width a_bus a_bus ~a_pattern ~b_pattern ~mask)
        threshold

let payload_wrap nl trojan ~trigger out =
  match trojan.Trojan.payload with
  | Trojan.Xor_offset mask -> Bus.xor_enable nl out ~enable:trigger ~mask
  | Trojan.Latched mask ->
      let latch = Netlist.dff_loop nl (fun q -> Netlist.or_ nl q trigger) in
      let corrupting = Netlist.or_ nl latch trigger in
      Bus.xor_enable nl out ~enable:corrupting ~mask

let vendor_of t =
  let owner = Array.make (Netlist.n_nets t.netlist) None in
  (* regions are disjoint: each core's nets are built in one run *)
  List.iter
    (fun (lo, hi, v) -> Array.fill owner lo (hi - lo + 1) (Some v))
    t.vendor_regions;
  fun net -> owner.(Netlist.net_index net)

(* Core instances and the copies they execute (latest copy first), keyed
   on (vendor id, IP type index, instance). *)
let cores_of design =
  let spec = design.Design.spec in
  let binding = design.Design.binding in
  let assignment =
    Binding.instance_assignment spec design.Design.schedule binding
  in
  let cores = Hashtbl.create 32 in
  for idx = 0 to Copy.count spec - 1 do
    let ty = Spec.iptype_of_op spec (Copy.of_index spec idx).Copy.op in
    let key =
      (Vendor.id (Binding.vendor binding idx), Iptype.to_index ty, assignment.(idx))
    in
    let existing = Option.value ~default:[] (Hashtbl.find_opt cores key) in
    Hashtbl.replace cores key (idx :: existing)
  done;
  cores

let min_width = 6

let max_width = Sys.int_size - 2

let elaborate ?(width = 16) ?(injections = []) ?(gated_injections = [])
    ?seeded_bug design =
  if width < min_width then
    invalid_arg "Rtl.elaborate: width must be at least 6";
  if width > max_width then
    invalid_arg
      (Printf.sprintf "Rtl.elaborate: width must be at most %d" max_width);
  (match Design.validate design with
  | [] -> ()
  | problems ->
      invalid_arg
        (Printf.sprintf "Rtl.elaborate: invalid design (%s)" (List.hd problems)));
  List.iter (check_injection width) injections;
  List.iter (fun (_, inj) -> check_injection width inj) gated_injections;
  (* concurrent fault simulation packs the clean circuit in lane 0 and
     one armed mutant per further lane, so the gate count is bounded by
     the lane width *)
  if List.length gated_injections > Packed.lanes - 1 then
    invalid_arg
      (Printf.sprintf "Rtl.elaborate: at most %d gated injections"
         (Packed.lanes - 1));
  let spec = design.Design.spec in
  let dfg = spec.Spec.dfg in
  let n_copies = Copy.count spec in
  let total = Spec.total_latency spec in
  let nl = Netlist.create ~name:("rtl_" ^ Dfg.name dfg) in
  let input_bus =
    List.map (fun nm -> (nm, Bus.inputs nl nm width)) (Dfg.inputs dfg)
  in
  (* one fresh single-bit primary input per gated injection: the mutant's
     arming signal, ANDed into its trigger so concurrent fault simulation
     can pack armed and clean variants of one circuit across lanes *)
  let gate_nets =
    List.map (fun (nm, inj) -> (Netlist.input nl nm, inj)) gated_injections
  in
  (* control: a free-running step counter; step s is active during the
     cycle in which the counter reads s-1 *)
  let counter =
    Bus.counter nl ~width:(bits_for (total + 1)) ~enable:(Netlist.const nl true)
  in
  (* step-activation decoders, built only for the steps the schedule
     actually uses (step 0 never is: steps are 1-based) so no decoder
     dangles unread *)
  let step_used = Array.make (total + 1) false in
  for idx = 0 to n_copies - 1 do
    step_used.(Schedule.step design.Design.schedule idx) <- true
  done;
  let step_eq =
    Array.init (total + 1) (fun s ->
        if step_used.(s) then Some (Bus.eq_const nl counter (s - 1)) else None)
  in
  let sel_step s =
    match step_eq.(s) with Some n -> n | None -> assert false
  in
  let cores = cores_of design in
  let injection_for vid ti =
    List.find_opt
      (fun inj ->
        Vendor.id inj.Engine.inj_vendor = vid
        && Iptype.to_index inj.Engine.inj_type = ti)
      injections
  in
  let zero = Bus.const nl ~width 0 in
  (* gate->vendor provenance: every net built while one core's datapath
     cone is constructed belongs to that core's vendor.  (lo, hi, vendor
     id) ranges of net indices, consumed by the taint pass. *)
  let regions = ref [] in
  (* all result registers at once: their next-state needs the FU outputs,
     which need the registers (operand feedback through the datapath) *)
  let flat_regs =
    Netlist.dff_loop_many nl ~inits:(Array.make (n_copies * width) false)
      (fun flat ->
        let reg idx = Array.sub flat (idx * width) width in
        let operand_bus phase = function
          | Dfg.Const c -> Bus.const nl ~width c
          | Dfg.Input nm -> List.assoc nm input_bus
          | Dfg.Node p -> reg (Copy.index spec { Copy.op = p; phase })
        in
        let next = Array.copy flat in
        Hashtbl.iter
          (fun (vid, ti, _inst) idxs ->
            let region_lo = Netlist.n_nets nl in
            let idxs = List.sort Stdlib.compare idxs in
            let step_of idx = Schedule.step design.Design.schedule idx in
            let sel idx = sel_step (step_of idx) in
            (* operand muxes: pick the active copy's operands *)
            let pick_operand slot =
              List.fold_left
                (fun acc idx ->
                  let c = Copy.of_index spec idx in
                  let nd = Dfg.node dfg c.Copy.op in
                  let bus = operand_bus c.Copy.phase nd.Dfg.operands.(slot) in
                  Word.mux_bus nl ~sel:(sel idx) ~t0:acc ~t1:bus)
                zero idxs
            in
            let a_bus = pick_operand 0 in
            let b_bus = pick_operand 1 in
            (* one body per operation kind present on this core, muxed by
               which copy is active *)
            let kinds =
              List.sort_uniq Stdlib.compare
                (List.map
                   (fun idx -> (Copy.of_index spec idx).Copy.op |> Dfg.kind dfg)
                   idxs)
            in
            let clean =
              List.fold_left
                (fun acc kind ->
                  let body = Word.of_op nl kind a_bus b_bus in
                  let kind_sel =
                    Netlist.or_list nl
                      (List.filter_map
                         (fun idx ->
                           let c = Copy.of_index spec idx in
                           if Op.equal (Dfg.kind dfg c.Copy.op) kind then
                             Some (sel idx)
                           else None)
                         idxs)
                  in
                  Word.mux_bus nl ~sel:kind_sel ~t0:acc ~t1:body)
                zero kinds
            in
            let out =
              match injection_for vid ti with
              | None -> clean
              | Some inj ->
                  let active = Netlist.or_list nl (List.map sel idxs) in
                  let trigger =
                    trigger_net nl width inj.Engine.trojan ~active ~a_bus ~b_bus
                  in
                  payload_wrap nl inj.Engine.trojan ~trigger clean
            in
            let out =
              match
                List.filter
                  (fun (_, inj) ->
                    Vendor.id inj.Engine.inj_vendor = vid
                    && Iptype.to_index inj.Engine.inj_type = ti)
                  gate_nets
              with
              | [] -> out
              | here ->
                  let active = Netlist.or_list nl (List.map sel idxs) in
                  List.fold_left
                    (fun acc (en, inj) ->
                      let trigger =
                        trigger_net nl width inj.Engine.trojan ~active ~a_bus
                          ~b_bus
                      in
                      payload_wrap nl inj.Engine.trojan
                        ~trigger:(Netlist.and_ nl trigger en)
                        acc)
                    out here
            in
            (* latch the result into the active copy's register *)
            List.iter
              (fun idx ->
                let captured =
                  Word.mux_bus nl ~sel:(sel idx) ~t0:(reg idx) ~t1:out
                in
                Array.blit captured 0 next (idx * width) width)
              idxs;
            regions := (region_lo, Netlist.n_nets nl - 1, vid) :: !regions)
          cores;
        next)
  in
  let reg idx = Array.sub flat_regs (idx * width) width in
  let out_reg phase op = reg (Copy.index spec { Copy.op; phase }) in
  let outputs = Dfg.outputs dfg in
  let nc_outputs = List.map (fun o -> (o, out_reg Copy.NC o)) outputs in
  let rc_outputs = List.map (fun o -> (o, out_reg Copy.RC o)) outputs in
  let rv_outputs =
    match spec.Spec.mode with
    | Spec.Detection_only -> []
    | Spec.Detection_and_recovery -> List.map (fun o -> (o, out_reg Copy.RV o)) outputs
  in
  let mismatch_pairs =
    List.map2
      (fun (_, nc) (_, rc) -> Netlist.not_ nl (Bus.eq nl nc rc))
      nc_outputs rc_outputs
  in
  (* test-only mutant: drop the first output pair from the comparator, the
     exact bug class the taint pass exists to catch *)
  let mismatch_pairs =
    match seeded_bug with
    | Some Comparator_skip -> List.tl mismatch_pairs
    | None -> mismatch_pairs
  in
  let mismatch =
    match mismatch_pairs with
    | [] -> Netlist.const nl false
    | pairs -> Netlist.or_list nl pairs
  in
  Netlist.output nl "mismatch" mismatch;
  List.iter (fun (o, bus) -> Bus.outputs nl (Printf.sprintf "nc%d" o) bus) nc_outputs;
  List.iter (fun (o, bus) -> Bus.outputs nl (Printf.sprintf "rc%d" o) bus) rc_outputs;
  (* the circuit's actual results: recovery value when the comparator
     fired, NC value otherwise (Fig. 1's output mux) *)
  let final_outputs =
    match rv_outputs with
    | [] -> []
    | rvs ->
        List.map2
          (fun (o, nc) (_, rv) ->
            (o, Word.mux_bus nl ~sel:mismatch ~t0:nc ~t1:rv))
          nc_outputs rvs
  in
  List.iter (fun (o, bus) -> Bus.outputs nl (Printf.sprintf "r%d" o) bus) final_outputs;
  Netlist.finalise nl;
  let t =
    {
      netlist = nl;
      width;
      design;
      mismatch;
      nc_outputs;
      rc_outputs;
      rv_outputs;
      final_outputs;
      vendor_regions = !regions;
      total_cycles = total;
      mutant_gates = List.map fst gated_injections;
      golden = Eval.compile dfg;
    }
  in
  (* every taint finding is an Error *)
  if seeded_bug = None then
    Thr_obs.Trace.with_span "rtl.elab_check" (fun () ->
        match
          Taint.analyse ~vendor_of:(vendor_of t) ~mismatch ~min_vendors:2 nl
        with
        | [], _ -> ()
        | f :: _, _ ->
            failwith
              (Printf.sprintf "Rtl.elaborate: internal taint check failed: %s"
                 f.Finding.detail));
  t

let taint_spec t =
  { Check.vendor_of = vendor_of t; mismatch = t.mismatch; min_vendors = 2 }

(* A deterministic full-mask combinational Trojan on the core that
   computes the design's first primary output — the canned "known bad"
   netlist behind `thls lint --mutant trojan` and the server's lint op. *)
let canned_injection ~width design =
  let spec = design.Design.spec in
  let op = List.hd (Dfg.outputs spec.Spec.dfg) in
  let nc = Copy.index spec { Copy.op; phase = Copy.NC } in
  let mask = (1 lsl min width 16) - 1 in
  {
    Engine.inj_vendor = Binding.vendor design.Design.binding nc;
    inj_type = Spec.iptype_of_op spec op;
    trojan =
      Trojan.make
        (Trojan.Combinational
           { a_pattern = 0xDEAD land mask; b_pattern = 0xBEEF land mask; mask })
        (Trojan.Xor_offset 0xFF);
  }

(* The canned false positive behind `--mutant trojan-dud`: all the
   trigger hardware of the sequential Trojan — condition tree, saturating
   match counter, payload XOR — on the core that computes the first
   primary output, but comparing the same operand bus against two
   different patterns.  The condition is structurally unsatisfiable, so
   the design stays behaviourally clean and every rare-looking net the
   decoy adds is unreachable at any depth; `lint --prove` must discharge
   the whole cone with unbounded certificates and exit 0. *)
let canned_dud_injection ~width design =
  let spec = design.Design.spec in
  let op = List.hd (Dfg.outputs spec.Spec.dfg) in
  let nc = Copy.index spec { Copy.op; phase = Copy.NC } in
  (* 8 masked bits: each comparator half keeps an activation probability
     orders of magnitude above the rare threshold (so the rare pass never
     flags a satisfiable net), while their structurally-dead conjunction
     and the counter chain under it score well below it *)
  let mask = 0xFF land ((1 lsl min width 16) - 1) in
  {
    Engine.inj_vendor = Binding.vendor design.Design.binding nc;
    inj_type = Spec.iptype_of_op spec op;
    trojan =
      Trojan.make
        (Trojan.Decoy
           {
             a_pattern = 0xAD land mask;
             b_pattern = lnot 0xAD land mask;
             mask;
             threshold = 2;
           })
        (Trojan.Xor_offset 0xFF);
  }

(* A deterministic sequential (threshold-counting) Trojan for `--mutant
   trojan-seq`, built so that `lint --prove` can actually construct its
   activating sequence within the default 8-cycle BMC bound.  The
   trigger condition must hold on consecutive {e active} cycles of one
   core, so the scan prefers a core executing two back-to-back copies
   whose operands are both distinct primary inputs (each cycle's
   condition then depends only on that frame's free inputs) with the
   second activation early enough; failing that, a single free-input
   copy with threshold 1; failing that, the first output's core. *)
let canned_sequential_injection ~width design =
  let spec = design.Design.spec in
  let dfg = spec.Spec.dfg in
  let mask = (1 lsl min width 16) - 1 in
  let cores = cores_of design in
  let step_of idx = Schedule.step design.Design.schedule idx in
  (* both operand slots read distinct primary inputs: the trigger
     condition at this copy's cycle is freely controllable *)
  let free_inputs idx =
    let c = Copy.of_index spec idx in
    let nd = Dfg.node dfg c.Copy.op in
    match nd.Dfg.operands with
    | [| Dfg.Input x; Dfg.Input y |] -> x <> y
    | _ -> false
  in
  let inj idx threshold =
    {
      Engine.inj_vendor = Binding.vendor design.Design.binding idx;
      inj_type = Spec.iptype_of_op spec (Copy.of_index spec idx).Copy.op;
      trojan =
        Trojan.make
          (Trojan.Sequential
             {
               a_pattern = 0xDEAD land mask;
               b_pattern = 0xBEEF land mask;
               mask;
               threshold;
             })
          (Trojan.Xor_offset 0xFF);
    }
  in
  (* the default BMC bound of `lint --prove`: the chosen activation must
     complete within it (frame f activates step f) *)
  let bound = 8 in
  let best_pair = ref None in
  let best_single = ref None in
  let better best s =
    match !best with Some (_, s') -> s < s' | None -> true
  in
  Hashtbl.iter
    (fun _ idxs ->
      let idxs = List.sort (fun i j -> compare (step_of i) (step_of j)) idxs in
      let rec pairs = function
        | i :: (j :: _ as rest) ->
            if free_inputs i && free_inputs j && step_of j <= bound
               && better best_pair (step_of j)
            then best_pair := Some (i, step_of j);
            pairs rest
        | _ -> ()
      in
      pairs idxs;
      List.iter
        (fun i ->
          if free_inputs i && step_of i <= bound && better best_single (step_of i)
          then best_single := Some (i, step_of i))
        idxs)
    cores;
  match (!best_pair, !best_single) with
  | Some (i, _), _ -> inj i 2
  | None, Some (i, _) -> inj i 1
  | None, None ->
      let op = List.hd (Dfg.outputs dfg) in
      inj (Copy.index spec { Copy.op; phase = Copy.NC }) 1

let check ?rare_threshold ?empirical ?prove ?prove_budget ?prover ?jobs t =
  Check.run ~taint:(taint_spec t) ?rare_threshold ?empirical ?prove
    ?prove_budget ?prover ?jobs t.netlist

type result = {
  r_mismatch : bool;
  r_first_detect : int option;
  r_nc : (int * int) list;
  r_rc : (int * int) list;
  r_rv : (int * int) list;
  r_final : (int * int) list;
}

(* First-detection cycle for lane [k] of lane word [w] from the strip
   runner's flattened cycle-major mismatch history: entry [(c - 1) * s +
   w] holds lane word [w] of stride [s] after clock edge [c].  NC and RC
   copies of the same operation complete at different schedule steps,
   so the comparator can be transiently high mid-run even on a clean
   design; what marks a detection is the level that is still high when
   the run ends (result registers hold once their step has passed, so a
   real divergence latches).  The detection cycle is the start of that
   final contiguous high run. *)
let first_detect_strided mh s w k =
  let cycles = Array.length mh / s in
  if cycles = 0 || (mh.(((cycles - 1) * s) + w) lsr k) land 1 = 0 then None
  else begin
    let c = ref cycles in
    while !c > 1 && (mh.(((!c - 2) * s) + w) lsr k) land 1 = 1 do
      decr c
    done;
    Some !c
  end

let sign_extend width v =
  if v land (1 lsl (width - 1)) <> 0 then v - (1 lsl width) else v

(* The one place a netlist run reads an [Eval.env]: its input values in
   [Dfg.inputs] order, modulo 2^width. *)
let resolve_env t who env =
  let vmask = (1 lsl t.width) - 1 in
  let row =
    Eval.resolve t.golden env (fun nm ->
        invalid_arg (Printf.sprintf "Rtl.%s: missing input %S" who nm))
  in
  Array.iteri (fun k v -> row.(k) <- v land vmask) row;
  row

let golden_agrees t env r =
  let vmask = (1 lsl t.width) - 1 in
  let values = Eval.exec t.golden (Eval.bind t.golden env) in
  List.for_all2
    (fun o (o', v) -> o = o' && (values.(o) - v) land vmask = 0)
    (Eval.output_ids t.golden) r.r_final

(* The one lane-packed runner.  Environments [lo, hi) of [vals] (rows of
   {!resolve_env}) are laid out in lane groups of [g] lanes,
   [per = lanes / g] groups to a lane word: the [r]-th environment of a
   strip pass owns lanes [(r mod per) * g] to [(r mod per) * g + g - 1]
   of word [r / per].  Lane 0 of a group holds every arming gate low (the
   clean circuit) and lane [k + 1] raises gate [k] only, so [g = 1] is a
   plain batch.  Inputs are held constant while the design clocks through
   both phases, so the clock is fused (one settle up front, then latch +
   settle per edge), which is bit-identical to a settle/latch/settle
   clock under constant inputs.  [on_cycle c] runs after the settle of
   edge [c].  Stimulus goes in and results come out a lane word at a
   time ({!Packed.strip_write}, {!Packed.strip_read}).  Returns
   [of_group read] per environment, in order, where [read k] is the
   environment's result in group lane [k]. *)
let run_strip t st ~g ~on_cycle vals lo hi of_group =
  let lanes = Packed.lanes in
  let s = Packed.strip_words st in
  let per = lanes / g in
  let tbl = Netlist.input_index t.netlist in
  let input_ids =
    Array.of_list
      (List.map
         (fun nm ->
           Array.init t.width (fun i ->
               Hashtbl.find tbl (Printf.sprintf "%s.%d" nm i)))
         (Dfg.inputs t.design.Design.spec.Spec.dfg))
  in
  (* arming gate [k] is high in group lane [k + 1] of every group slot *)
  let gate_words =
    if g = 1 then []
    else
      List.mapi
        (fun k nm ->
          let word = ref 0 in
          for l = 0 to lanes - 1 do
            if l mod g = k + 1 then word := !word lor (1 lsl l)
          done;
          (Hashtbl.find tbl nm, !word))
        t.mutant_gates
  in
  (* per output bus: its net indices and one lane word of read-back values *)
  let ids =
    List.map (fun (o, bus) ->
        (o, Array.map Netlist.net_index bus, Array.make lanes 0))
  in
  let nc = ids t.nc_outputs and rc = ids t.rc_outputs in
  let rv = ids t.rv_outputs in
  let final = match t.final_outputs with [] -> None | l -> Some (ids l) in
  let mi = Netlist.net_index t.mismatch in
  let mh = Array.make (t.total_cycles * s) 0 in
  let buf = Array.make lanes 0 in
  let out = ref [] in
  let j = ref lo in
  while !j < hi do
    let count = min (s * per) (hi - !j) in
    let words_used = (count + per - 1) / per in
    Packed.strip_reset st;
    for w = 0 to words_used - 1 do
      let first = !j + (w * per) in
      let slots = min per (count - (w * per)) in
      Array.iteri
        (fun x bus ->
          for slot = 0 to slots - 1 do
            let v = vals.(first + slot).(x) in
            for l = slot * g to (slot * g) + g - 1 do
              buf.(l) <- v
            done
          done;
          Packed.strip_write st bus w buf (slots * g))
        input_ids;
      List.iter (fun (net, word) -> Packed.strip_poke st net w word) gate_words
    done;
    Packed.strip_settle st;
    for c = 1 to t.total_cycles do
      Packed.strip_latch st;
      Packed.strip_settle st;
      for w = 0 to words_used - 1 do
        mh.(((c - 1) * s) + w) <- Packed.strip_peek_index st mi w
      done;
      on_cycle c
    done;
    let fetch w = List.iter (fun (_, bus, lv) -> Packed.strip_read st bus w lv) in
    let take k = List.map (fun (o, _, lv) -> (o, sign_extend t.width lv.(k))) in
    for w = 0 to words_used - 1 do
      fetch w nc;
      fetch w rc;
      fetch w rv;
      Option.iter (fetch w) final;
      let m = Packed.strip_peek_index st mi w in
      for slot = 0 to min per (count - (w * per)) - 1 do
        let read_lane k =
          let lane = (slot * g) + k in
          let r_nc = take lane nc in
          {
            r_mismatch = (m lsr lane) land 1 = 1;
            r_first_detect = first_detect_strided mh s w lane;
            r_nc;
            r_rc = take lane rc;
            r_rv = take lane rv;
            r_final = (match final with None -> r_nc | Some l -> take lane l);
          }
        in
        out := of_group read_lane :: !out
      done
    done;
    j := !j + count
  done;
  List.rev !out

let run_batch ?(jobs = 1) t envs =
  let vals = Array.of_list (List.map (resolve_env t "run") envs) in
  let n = Array.length vals in
  (* single environments (thls simulate's common case) stay on the
     narrow strip; batches wide enough to fill more than one lane word
     take the full 8-word strip *)
  let words = if n > Packed.lanes then 8 else 1 in
  List.concat
    (Packed.sharded ~jobs ~words t.netlist n (fun st lo hi ->
         run_strip t st ~g:1 ~on_cycle:ignore vals lo hi (fun read -> read 0)))

let run t env = match run_batch t [ env ] with [ r ] -> r | _ -> assert false

type mutant_result = {
  m_clean : result;
  m_mutants : (string * result) list;
}

(* Concurrent fault simulation: each environment takes one lane group
   of [gates + 1] lanes (clean lane 0, then one armed mutant per lane),
   so a single strip pass scores the clean design plus every mutant
   against up to [8 * (lanes / g)] stimuli. *)
let run_mutant_batch t envs =
  let gates = t.mutant_gates in
  if gates = [] then
    invalid_arg "Rtl.run_mutant_batch: design has no gated injections";
  let g = List.length gates + 1 in
  let vals = Array.of_list (List.map (resolve_env t "run_mutant_batch") envs) in
  let n = Array.length vals in
  let words = if n > Packed.lanes / g then 8 else 1 in
  run_strip t (Packed.strip ~words t.netlist) ~g ~on_cycle:ignore vals 0 n
    (fun read ->
      {
        m_clean = read 0;
        m_mutants = List.mapi (fun k nm -> (nm, read (k + 1))) gates;
      })

(* ------------------------- recorded (flight) runs ------------------------- *)

type watch = {
  w_name : string;
  w_index : int; (* Netlist.net_index *)
  w_rare : bool option; (* rare level of a trigger candidate, if any *)
}

(* Default watch-list: every primary input bit, every declared output
   (mismatch, the per-phase result buses and the final mux), plus — when
   a static-analysis [report] is supplied — the rare-net trigger
   candidates from [Check.rare_watchlist]. *)
let watchlist ?report t =
  let nl = t.netlist in
  let tbl = Netlist.input_index nl in
  let inputs =
    List.map
      (fun nm -> { w_name = nm; w_index = Hashtbl.find tbl nm; w_rare = None })
      (Netlist.input_names nl)
  in
  let outs =
    List.map
      (fun (nm, net) ->
        { w_name = nm; w_index = Netlist.net_index net; w_rare = None })
      (Netlist.outputs nl)
  in
  let seen = List.map (fun w -> w.w_index) (inputs @ outs) in
  let rare =
    match report with
    | None -> []
    | Some r ->
        Check.rare_watchlist r
        |> List.filter_map (fun wp ->
               if List.mem wp.Check.wp_net seen then None
               else
                 Some
                   {
                     w_name = Printf.sprintf "rare_n%d" wp.Check.wp_net;
                     w_index = wp.Check.wp_net;
                     w_rare = Some wp.Check.wp_rare_value;
                   })
  in
  inputs @ outs @ rare

type recorded = {
  rec_result : result;
  rec_window : Recorder.window;
  rec_watch : watch list;
}

(* Single-environment run with the flight recorder attached: the watched
   nets are sampled every clock into a bounded ring, trigger candidates
   first reaching their rare level, the comparator tripping and the
   recovery outcome are emitted to the journal (no-ops unless
   [Journal.enable] was called), and detection/recovery latencies feed
   the [thr_rt_*] cycle histograms under trojan class [cls]. *)
let run_recorded ?(depth = 256) ?watch ?(cls = "") t env =
  let watch = match watch with Some w -> w | None -> watchlist t in
  if watch = [] then invalid_arg "Rtl.run_recorded: empty watch list";
  let names = Array.of_list (List.map (fun w -> w.w_name) watch) in
  let nets = Array.of_list (List.map (fun w -> w.w_index) watch) in
  let rares = Array.of_list (List.map (fun w -> w.w_rare) watch) in
  let recorder = Recorder.create ~names ~depth () in
  let vals = [| resolve_env t "run_recorded" env |] in
  let st = Packed.strip ~words:1 t.netlist in
  let scratch = Array.make (Array.length nets) 0 in
  let fired = Array.make (Array.length nets) false in
  let on_cycle c =
    Array.iteri
      (fun i net -> scratch.(i) <- Packed.strip_peek_index st net 0)
      nets;
    Recorder.push recorder ~cycle:c scratch;
    Array.iteri
      (fun i rare ->
        match rare with
        | Some rv when (not fired.(i)) && (scratch.(i) land 1 = 1) = rv ->
            fired.(i) <- true;
            Journal.emit ~cycle:c
              ~ctx:[ ("net", names.(i)) ]
              Journal.Trigger_candidate_active
        | _ -> ())
      rares
  in
  let result =
    match run_strip t st ~g:1 ~on_cycle vals 0 1 (fun read -> read 0) with
    | [ r ] -> r
    | _ -> assert false
  in
  let first = result.r_first_detect in
  let spec = t.design.Design.spec in
  (match first with
  | Some c ->
      Journal.emit ~cycle:c
        ~ctx:[ ("signal", "mismatch"); ("design", Dfg.name spec.Spec.dfg) ]
        Journal.Mismatch_detected;
      Journal.observe_detection_latency ~cls c
  | None -> ());
  (match (first, t.rv_outputs) with
  | Some _, _ :: _ ->
      let ld = spec.Spec.latency_detect in
      Journal.emit
        ~cycle:(min (ld + 1) t.total_cycles)
        ~ctx:[ ("copies", "recovery") ]
        Journal.Recovery_started;
      Journal.emit ~cycle:t.total_cycles
        ~ctx:[ ("latency_cycles", string_of_int (t.total_cycles - ld)) ]
        (if golden_agrees t env result then Journal.Recovery_ok
         else Journal.Recovery_failed);
      Journal.observe_recovery_latency ~cls (t.total_cycles - ld)
  | _ -> ());
  { rec_result = result; rec_window = Recorder.window recorder; rec_watch = watch }

let stats t =
  Printf.sprintf "%d nets, %d gates, %d DFFs, %d cycles"
    (Netlist.n_nets t.netlist) (Netlist.n_gates t.netlist)
    (Netlist.n_dffs t.netlist) t.total_cycles
