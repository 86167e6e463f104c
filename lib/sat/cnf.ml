(* Tseitin lowering of netlist cones to CNF.

   The encoder walks the levelized instruction tape the packed simulator
   compiled ({!Thr_gates.Packed}) — the same shared, cached artefact —
   instead of re-deriving a topological order, so both engines agree on
   evaluation order by construction.  One [frame] maps each in-cone net
   to a solver variable; chaining frames with [prev] unrolls sequential
   behaviour: frame 1 pins every DFF output to its power-on value (or,
   for the inductive step of k-induction, leaves it a free state
   variable), frame [f > 1] aliases a DFF's output variable to the
   {e previous} frame's variable of its data net (the latch edge needs
   no clauses).

   Clauses are emitted through a [sink] so callers can interpose — the
   portfolio prover routes each frame through {!Preprocess} before the
   clauses reach the solver.  Each clause is written into one small
   buffer owned by the frame being encoded and handed over as a prefix
   of it, so encoding straight into a solver allocates nothing per
   clause. *)

module Trace = Thr_obs.Trace
module Packed = Thr_gates.Packed
module Netlist = Thr_gates.Netlist

type sink = { fresh_var : unit -> int; clause : int array -> int -> unit }

let solver_sink s =
  { fresh_var = (fun () -> Solver.new_var s);
    clause = Solver.add_clause_array s }

type frame = {
  f_nl : Netlist.t;
  f_vars : int array; (* net index -> DIMACS var; 0 = outside the cone *)
  f_inputs : (string * int) array; (* every primary input, var 0 if unused *)
  f_state : int array; (* in-cone DFF output vars, tape order *)
  f_next : int array; (* matching DFF data-net vars (the next state) *)
  f_depth : int; (* 1-based frame number *)
}

let var f net = f.f_vars.(Netlist.net_index net)

let inputs f = f.f_inputs

let state_vars f = f.f_state

let next_state_vars f = f.f_next

let depth f = f.f_depth

let netlist f = f.f_nl

let has_state nl ~cone =
  let tp = Packed.tape nl in
  let found = ref false in
  for pc = 0 to Packed.tape_length tp - 1 do
    if Packed.tape_code tp pc = Packed.op_dff && cone.(Packed.tape_dst tp pc)
    then found := true
  done;
  !found

(* Gate clauses, [z] the output variable.  Each set is the standard
   Tseitin biconditional of the gate function.  [buf] is the frame's
   clause buffer; a clause is its first one to three slots. *)

let c1 k buf x =
  buf.(0) <- x;
  k.clause buf 1

let c2 k buf x y =
  buf.(0) <- x;
  buf.(1) <- y;
  k.clause buf 2

let c3 k buf x y z =
  buf.(0) <- x;
  buf.(1) <- y;
  buf.(2) <- z;
  k.clause buf 3

let emit_not k buf z a =
  c2 k buf z a;
  c2 k buf (-z) (-a)

let emit_and k buf z a b =
  c2 k buf (-z) a;
  c2 k buf (-z) b;
  c3 k buf z (-a) (-b)

let emit_or k buf z a b =
  c2 k buf z (-a);
  c2 k buf z (-b);
  c3 k buf (-z) a b

let emit_nand k buf z a b =
  c2 k buf z a;
  c2 k buf z b;
  c3 k buf (-z) (-a) (-b)

let emit_nor k buf z a b =
  c2 k buf (-z) (-a);
  c2 k buf (-z) (-b);
  c3 k buf z a b

let emit_xor k buf z a b =
  c3 k buf (-z) a b;
  c3 k buf (-z) (-a) (-b);
  c3 k buf z (-a) b;
  c3 k buf z a (-b)

(* z = if sel then t1 else t0; the last two clauses are redundant but
   strengthen unit propagation when both arms agree. *)
let emit_mux k buf z sel t0 t1 =
  c3 k buf (-sel) (-t1) z;
  c3 k buf (-sel) t1 (-z);
  c3 k buf sel (-t0) z;
  c3 k buf sel t0 (-z);
  c3 k buf (-t0) (-t1) z;
  c3 k buf t0 t1 (-z)

let encode_frame_via k nl ?(free_state = false) ~cone ~prev () =
  Trace.with_span "sat.cnf"
    ~args:[ ("netlist", Netlist.name nl) ]
    (fun () ->
      let tp = Packed.tape nl in
      if Array.length cone <> Netlist.n_nets nl then
        invalid_arg "Cnf.encode_frame: cone mask size mismatch";
      let vars = Array.make (Netlist.n_nets nl) 0 in
      let buf = Array.make 3 0 in
      (* primary inputs: a fresh unconstrained variable per frame *)
      let f_inputs =
        Array.map
          (fun (nm, i) ->
            if cone.(i) then begin
              vars.(i) <- k.fresh_var ();
              (nm, vars.(i))
            end
            else (nm, 0))
          (Packed.tape_inputs tp)
      in
      (* constants: a variable pinned by a unit clause *)
      Array.iter
        (fun (i, v) ->
          if cone.(i) then begin
            let z = k.fresh_var () in
            vars.(i) <- z;
            c1 k buf (if v then z else -z)
          end)
        (Packed.tape_consts tp);
      let operand name i =
        let v = vars.(i) in
        if v = 0 then
          invalid_arg
            (Printf.sprintf
               "Cnf.encode_frame: %s operand net %d outside the cone" name i)
        else v
      in
      let state = ref [] and next = ref [] in
      for pc = 0 to Packed.tape_length tp - 1 do
        let d = Packed.tape_dst tp pc in
        if cone.(d) then begin
          let a, b, c = Packed.tape_args tp pc in
          let code = Packed.tape_code tp pc in
          if code = Packed.op_dff then begin
            (match prev with
            | None when free_state ->
                (* inductive-step frame 1: an unconstrained state var *)
                vars.(d) <- k.fresh_var ()
            | None ->
                (* frame 1: the power-on value, as a pinned variable *)
                let z = k.fresh_var () in
                vars.(d) <- z;
                c1 k buf (if Packed.tape_dff_init tp a then z else -z)
            | Some p ->
                (* frame f: alias to frame f-1's data-net variable.  The
                   cone is closed through DFFs, so it is present. *)
                let src = Packed.tape_dff_data tp a in
                let v = p.f_vars.(src) in
                if v = 0 then
                  invalid_arg
                    (Printf.sprintf
                       "Cnf.encode_frame: DFF %d data net %d missing from \
                        previous frame"
                       a src);
                vars.(d) <- v);
            state := vars.(d) :: !state;
            next := Packed.tape_dff_data tp a :: !next
          end
          else begin
            let z = k.fresh_var () in
            vars.(d) <- z;
            if code = Packed.op_not then emit_not k buf z (operand "not" a)
            else if code = Packed.op_and then
              emit_and k buf z (operand "and" a) (operand "and" b)
            else if code = Packed.op_or then
              emit_or k buf z (operand "or" a) (operand "or" b)
            else if code = Packed.op_xor then
              emit_xor k buf z (operand "xor" a) (operand "xor" b)
            else if code = Packed.op_nand then
              emit_nand k buf z (operand "nand" a) (operand "nand" b)
            else if code = Packed.op_nor then
              emit_nor k buf z (operand "nor" a) (operand "nor" b)
            else if code = Packed.op_mux then
              emit_mux k buf z (operand "mux" a) (operand "mux" b)
                (operand "mux" c)
            else invalid_arg "Cnf.encode_frame: unknown opcode"
          end
        end
      done;
      (* the data nets' variables are only known once the whole tape has
         run (a DFF's data gate may sit later in the tape) *)
      let f_next =
        Array.of_list (List.rev_map (fun i -> vars.(i)) !next)
      in
      {
        f_nl = nl;
        f_vars = vars;
        f_inputs;
        f_state = Array.of_list (List.rev !state);
        f_next;
        f_depth = (match prev with None -> 1 | Some p -> p.f_depth + 1);
      })

let encode_frame s nl ~cone ~prev =
  encode_frame_via (solver_sink s) nl ~cone ~prev ()

let of_cone s nl ~roots =
  Netlist.finalise nl;
  let cone = Netlist.in_cone nl ~through_dffs:true ~roots () in
  encode_frame s nl ~cone ~prev:None
