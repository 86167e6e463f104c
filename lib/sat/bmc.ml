(* Bounded model checking of single-net reachability.

   Frame [f]'s variables describe the combinational settle of the state
   after [f - 1] clock edges under the frame's own free inputs, so a
   [Sat] answer at frame [f] is exactly an input sequence
   [I_1 .. I_f] whose replay — [f - 1] clocked cycles, then a settle of
   the final inputs — drives the target net to the asked value at the
   observation point {e before} the [f]-th latch.  Frames share one
   incremental solver; the target is asked as an assumption, so learnt
   clauses carry across frames and across nets. *)

module Trace = Thr_obs.Trace
module Metrics = Thr_obs.Metrics
module Packed = Thr_gates.Packed
module Netlist = Thr_gates.Netlist

let default_bound = 8

let m_certificates = Metrics.counter "thr_sat_certificates_total"

type witness = {
  w_target : Netlist.net;
  w_value : bool;
  w_cycle : int;
  w_inputs : (string * bool) list array;
}

type certificate = { c_depth : int; c_method : string }

type outcome =
  | Reachable of witness
  | Unreachable of int
  | Unreachable_unbounded of certificate
  | Inconclusive of int

let witness_of s ~target ~value frames =
  let frames = Array.of_list (List.rev frames) in
  {
    w_target = target;
    w_value = value;
    w_cycle = Array.length frames;
    w_inputs =
      Array.map
        (fun f ->
          Array.to_list (Cnf.inputs f)
          |> List.map (fun (nm, v) ->
                 (nm, if v = 0 then false else Solver.value s v)))
        frames;
  }

let check_net ?(bound = default_bound) ?budget nl ~net ~value =
  Netlist.finalise nl;
  if bound < 1 then invalid_arg "Bmc.check_net: bound < 1";
  Trace.with_span "bmc.unroll"
    ~args:
      [ ("netlist", Netlist.name nl); ("bound", string_of_int bound) ]
    (fun () ->
      let cone = Netlist.in_cone nl ~through_dffs:true ~roots:[ net ] () in
      let s = Solver.create () in
      let s0 = Solver.steps s in
      let remaining () =
        match budget with
        | None -> None
        | Some b -> Some (b - (Solver.steps s - s0))
      in
      if not (Cnf.has_state nl ~cone) then begin
        (* purely combinational cone: one frame decides reachability for
           all time — no state ever feeds the target, so there is
           nothing to unroll and the certificate depth is 0 *)
        let frame = Cnf.encode_frame s nl ~cone ~prev:None in
        let target = Cnf.var frame net in
        if target = 0 then
          invalid_arg "Bmc.check_net: target net missing from its own cone";
        let asm = if value then target else -target in
        match
          Solver.solve ~assumptions:[ asm ] ~phase:`Bmc ?max_steps:(remaining ()) s
        with
        | Solver.Sat -> Reachable (witness_of s ~target:net ~value [ frame ])
        | Solver.Unknown -> Inconclusive 1
        | Solver.Unsat ->
            Metrics.incr m_certificates;
            Unreachable_unbounded { c_depth = 0; c_method = "combinational" }
      end
      else begin
        let result = ref None in
        let frames = ref [] in
        let f = ref 0 in
        while !result = None && !f < bound do
          incr f;
          let prev = match !frames with [] -> None | p :: _ -> Some p in
          let frame = Cnf.encode_frame s nl ~cone ~prev in
          frames := frame :: !frames;
          let target = Cnf.var frame net in
          if target = 0 then
            invalid_arg "Bmc.check_net: target net missing from its own cone";
          let asm = if value then target else -target in
          match remaining () with
          | Some left when left <= 0 -> result := Some (Inconclusive !f)
          | left -> (
              match
                Solver.solve ~assumptions:[ asm ] ~phase:`Bmc ?max_steps:left s
              with
              | Solver.Sat ->
                  result :=
                    Some (Reachable (witness_of s ~target:net ~value !frames))
              | Solver.Unknown -> result := Some (Inconclusive !f)
              | Solver.Unsat -> ())
        done;
        match !result with Some r -> r | None -> Unreachable bound
      end)

let replay nl w =
  Netlist.finalise nl;
  let st = Packed.strip ~words:1 nl in
  let drive inputs =
    List.iter
      (fun (nm, b) -> Packed.strip_set_input st nm 0 (if b then 1 else 0))
      inputs
  in
  (* fused clock: each frame's settle also exposes the previous edge *)
  for g = 0 to w.w_cycle - 2 do
    drive w.w_inputs.(g);
    Packed.strip_settle st;
    Packed.strip_latch st
  done;
  drive w.w_inputs.(w.w_cycle - 1);
  Packed.strip_settle st;
  (Packed.strip_peek st w.w_target 0 land 1 = 1) = w.w_value

(* Render the witness compactly: bits named "bus.N" are gathered into
   one hex word per bus (bit N from "bus.N"), loose bits print as 0/1. *)
let describe w =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s at cycle %d:"
       (if w.w_value then "high" else "low")
       w.w_cycle);
  Array.iteri
    (fun g inputs ->
      let buses : (string, int ref * int ref) Hashtbl.t = Hashtbl.create 8 in
      let order = ref [] in
      let singles = ref [] in
      List.iter
        (fun (nm, b) ->
          match String.rindex_opt nm '.' with
          | Some i
            when i < String.length nm - 1
                 && String.for_all
                      (fun c -> c >= '0' && c <= '9')
                      (String.sub nm (i + 1) (String.length nm - i - 1)) ->
              let base = String.sub nm 0 i in
              let bit =
                int_of_string (String.sub nm (i + 1) (String.length nm - i - 1))
              in
              let word, width =
                match Hashtbl.find_opt buses base with
                | Some p -> p
                | None ->
                    let p = (ref 0, ref 0) in
                    Hashtbl.add buses base p;
                    order := base :: !order;
                    p
              in
              if b then word := !word lor (1 lsl bit);
              width := max !width (bit + 1)
          | _ -> singles := (nm, b) :: !singles)
        inputs;
      Buffer.add_string buf (Printf.sprintf " [%d]" (g + 1));
      List.iter
        (fun base ->
          let word, width = Hashtbl.find buses base in
          Buffer.add_string buf
            (Printf.sprintf " %s=0x%0*x" base ((!width + 3) / 4) !word))
        (List.rev !order);
      List.iter
        (fun (nm, b) ->
          Buffer.add_string buf
            (Printf.sprintf " %s=%d" nm (if b then 1 else 0)))
        (List.rev !singles))
    w.w_inputs;
  Buffer.contents buf
