type env = (string * int) list

(* Operand sources of a compiled program. *)
let src_node = 0

let src_input = 1

let src_const = 2

type program = {
  p_inputs : string array; (* Dfg.inputs order: the row layout *)
  p_kind : Op.kind array;
  p_src_a : int array; (* src_* tag of each operand *)
  p_arg_a : int array; (* node id, row position or constant value *)
  p_src_b : int array;
  p_arg_b : int array;
  p_reads : int array; (* row positions in first-read order *)
  p_outputs : int list;
}

(* Row position of input [nm].  Operands mostly read inputs in
   declaration order, so the scan starts where the last one was found. *)
let position inputs hint nm =
  let n = Array.length inputs in
  let rec go k left =
    if left = 0 then invalid_arg (Printf.sprintf "Eval.compile: undeclared input %S" nm)
    else if String.equal inputs.(k) nm then k
    else go (if k + 1 = n then 0 else k + 1) (left - 1)
  in
  go (if hint < n then hint else 0) n

let compile d =
  let inputs = Array.of_list (Dfg.inputs d) in
  let n = Dfg.n_ops d in
  let src_a = Array.make n src_const and arg_a = Array.make n 0 in
  let src_b = Array.make n src_const and arg_b = Array.make n 0 in
  let read = Array.make (Array.length inputs) false in
  let reads = ref [] in
  let hint = ref 0 in
  let lower src arg i = function
    | Dfg.Const v -> arg.(i) <- v
    | Dfg.Node j ->
        src.(i) <- src_node;
        arg.(i) <- j
    | Dfg.Input nm ->
        let k = position inputs !hint nm in
        hint := k + 1;
        if not read.(k) then begin
          read.(k) <- true;
          reads := k :: !reads
        end;
        src.(i) <- src_input;
        arg.(i) <- k
  in
  let nodes = Dfg.nodes d in
  Array.iteri
    (fun i nd ->
      lower src_a arg_a i nd.Dfg.operands.(0);
      lower src_b arg_b i nd.Dfg.operands.(1))
    nodes;
  {
    p_inputs = inputs;
    p_kind = Array.map (fun nd -> nd.Dfg.kind) nodes;
    p_src_a = src_a;
    p_arg_a = arg_a;
    p_src_b = src_b;
    p_arg_b = arg_b;
    p_reads = Array.of_list (List.rev !reads);
    p_outputs = Dfg.outputs d;
  }

let output_ids p = p.p_outputs

(* Bindings usually arrive in [Dfg.inputs] order (campaigns draw them that
   way), so the row is filled in lockstep with the list.  The [k]-th
   binding is then also the first one of its name, because the earlier
   ones bind other inputs.  From the first binding out of step on, every
   remaining input takes the first binding of its name in the whole
   list. *)
let resolve p env missing =
  let n = Array.length p.p_inputs in
  let row = Array.make n 0 in
  let rec lockstep k = function
    | (nm, v) :: rest when k < n && String.equal nm p.p_inputs.(k) ->
        row.(k) <- v;
        lockstep (k + 1) rest
    | _ -> k
  in
  for k = lockstep 0 env to n - 1 do
    let nm = p.p_inputs.(k) in
    row.(k) <- (match List.assoc_opt nm env with Some v -> v | None -> missing nm)
  done;
  row

(* An unbound input is an error only if an operand reads it, and the error
   names the first unbound input in operand-read order. *)
let bind p env =
  resolve p env (fun nm ->
      if not (Array.mem (position p.p_inputs 0 nm) p.p_reads) then 0
      else
        (* [nm] itself is read and unbound, so the search finds one *)
        let first =
          Array.find_opt (fun r -> not (List.mem_assoc p.p_inputs.(r) env)) p.p_reads
        in
        invalid_arg
          (Printf.sprintf "Eval: missing input %S" p.p_inputs.(Option.get first)))

let[@inline] source src arg row values =
  if src = src_node then Array.unsafe_get values arg
  else if src = src_input then Array.unsafe_get row arg
  else arg

let exec p row =
  if Array.length row <> Array.length p.p_inputs then
    invalid_arg "Eval.exec: row length differs from the input count";
  let n = Array.length p.p_kind in
  let values = Array.make n 0 in
  for i = 0 to n - 1 do
    let a = source p.p_src_a.(i) p.p_arg_a.(i) row values in
    let b = source p.p_src_b.(i) p.p_arg_b.(i) row values in
    values.(i) <- Op.eval p.p_kind.(i) a b
  done;
  values

(* bounds-checked: the caller supplies [row] and [values] *)
let read p row values i slot =
  let src = if slot = 0 then p.p_src_a.(i) else p.p_src_b.(i) in
  let arg = if slot = 0 then p.p_arg_a.(i) else p.p_arg_b.(i) in
  if src = src_node then values.(arg) else if src = src_input then row.(arg) else arg

let run d env =
  let p = compile d in
  exec p (bind p env)

let outputs d env =
  let p = compile d in
  let values = exec p (bind p env) in
  List.map (fun i -> (i, values.(i))) p.p_outputs

let lookup env name =
  match List.assoc_opt name env with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Eval: missing input %S" name)

let operand_value _d env values = function
  | Dfg.Const v -> v
  | Dfg.Input s -> lookup env s
  | Dfg.Node i -> values.(i)

let operand_values d env values i =
  let nd = Dfg.node d i in
  ( operand_value d env values nd.Dfg.operands.(0),
    operand_value d env values nd.Dfg.operands.(1) )
