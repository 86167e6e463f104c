type net = int

type driver =
  | D_input of string
  | D_const of bool
  | D_not of net
  | D_and of net * net
  | D_or of net * net
  | D_xor of net * net
  | D_nand of net * net
  | D_nor of net * net
  | D_mux of net * net * net
  | D_dff of int

type t = {
  nl_name : string;
  nl_uid : int;                   (* process-unique creation id *)
  mutable drivers : driver array;
  mutable count : int;
  mutable dff_d : net array;      (* data input per DFF; -1 = unconnected *)
  mutable dff_i : bool array;     (* power-on value per DFF *)
  mutable n_dff : int;
  mutable inputs : (string * net) list;   (* reversed *)
  mutable outputs : (string * net) list;  (* reversed *)
  mutable order : net array option;       (* set by finalise *)
  mutable input_tbl : (string, int) Hashtbl.t option; (* set by finalise *)
}

let uid_counter = Atomic.make 0

let create ~name =
  {
    nl_name = name;
    nl_uid = Atomic.fetch_and_add uid_counter 1;
    drivers = Array.make 64 (D_const false);
    count = 0;
    dff_d = Array.make 16 (-1);
    dff_i = Array.make 16 false;
    n_dff = 0;
    inputs = [];
    outputs = [];
    order = None;
    input_tbl = None;
  }

let uid t = t.nl_uid

let name t = t.nl_name

let frozen t = t.order <> None

let check_mutable t what =
  if frozen t then invalid_arg (Printf.sprintf "Netlist.%s: netlist is finalised" what)

let check_net t n =
  if n < 0 || n >= t.count then invalid_arg "Netlist: net from another netlist"

let fresh t driver =
  if t.count = Array.length t.drivers then begin
    let nd = Array.make (2 * t.count) (D_const false) in
    Array.blit t.drivers 0 nd 0 t.count;
    t.drivers <- nd
  end;
  t.drivers.(t.count) <- driver;
  t.count <- t.count + 1;
  t.count - 1

let input t nm =
  check_mutable t "input";
  if List.mem_assoc nm t.inputs then
    invalid_arg (Printf.sprintf "Netlist.input: duplicate input %S" nm);
  let n = fresh t (D_input nm) in
  t.inputs <- (nm, n) :: t.inputs;
  n

let const t b =
  check_mutable t "const";
  fresh t (D_const b)

let unop t what make a =
  check_mutable t what;
  check_net t a;
  fresh t (make a)

let binop t what make a b =
  check_mutable t what;
  check_net t a;
  check_net t b;
  fresh t (make (a, b))

let not_ t a = unop t "not_" (fun a -> D_not a) a

let and_ t a b = binop t "and_" (fun (a, b) -> D_and (a, b)) a b

let or_ t a b = binop t "or_" (fun (a, b) -> D_or (a, b)) a b

let xor_ t a b = binop t "xor_" (fun (a, b) -> D_xor (a, b)) a b

let nand_ t a b = binop t "nand_" (fun (a, b) -> D_nand (a, b)) a b

let nor_ t a b = binop t "nor_" (fun (a, b) -> D_nor (a, b)) a b

let mux t ~sel ~t0 ~t1 =
  check_mutable t "mux";
  check_net t sel;
  check_net t t0;
  check_net t t1;
  fresh t (D_mux (sel, t0, t1))

let push_dff t init =
  if t.n_dff = Array.length t.dff_d then begin
    let nd = Array.make (2 * t.n_dff) (-1) in
    Array.blit t.dff_d 0 nd 0 t.n_dff;
    t.dff_d <- nd;
    let ni = Array.make (2 * t.n_dff) false in
    Array.blit t.dff_i 0 ni 0 t.n_dff;
    t.dff_i <- ni
  end;
  let idx = t.n_dff in
  t.dff_i.(idx) <- init;
  t.n_dff <- idx + 1;
  idx

let dff t ?(init = false) d =
  check_mutable t "dff";
  check_net t d;
  let idx = push_dff t init in
  t.dff_d.(idx) <- d;
  fresh t (D_dff idx)

let dff_loop_many t ~inits f =
  check_mutable t "dff_loop_many";
  let idxs = Array.map (fun init -> push_dff t init) inits in
  let qs = Array.map (fun idx -> fresh t (D_dff idx)) idxs in
  let ds = f qs in
  if Array.length ds <> Array.length inits then
    invalid_arg "Netlist.dff_loop_many: width mismatch";
  Array.iteri
    (fun i d ->
      check_net t d;
      t.dff_d.(idxs.(i)) <- d)
    ds;
  qs

let dff_loop t ?(init = false) f =
  match dff_loop_many t ~inits:[| init |] (fun qs -> [| f qs.(0) |]) with
  | [| q |] -> q
  | _ -> assert false

let rec and_list t = function
  | [] -> invalid_arg "Netlist.and_list: empty"
  | [ n ] -> n
  | ns ->
      (* halve pairwise for a balanced tree *)
      let rec pair = function
        | [] -> []
        | [ n ] -> [ n ]
        | a :: b :: rest -> and_ t a b :: pair rest
      in
      and_list t (pair ns)

let rec or_list t = function
  | [] -> invalid_arg "Netlist.or_list: empty"
  | [ n ] -> n
  | ns ->
      let rec pair = function
        | [] -> []
        | [ n ] -> [ n ]
        | a :: b :: rest -> or_ t a b :: pair rest
      in
      or_list t (pair ns)

let output t nm n =
  check_mutable t "output";
  check_net t n;
  if List.mem_assoc nm t.outputs then
    invalid_arg (Printf.sprintf "Netlist.output: duplicate output %S" nm);
  t.outputs <- (nm, n) :: t.outputs

let iter_operands f = function
  | D_input _ | D_const _ | D_dff _ -> ()
  | D_not a -> f a
  | D_and (a, b) | D_or (a, b) | D_xor (a, b) | D_nand (a, b) | D_nor (a, b) ->
      f a;
      f b
  | D_mux (s, a, b) ->
      f s;
      f a;
      f b

let finalise t =
  if not (frozen t) then begin
    (* Topological sort of the combinational dependency graph; DFF outputs,
       inputs and constants are sources.  Kahn's algorithm. *)
    let n = t.count in
    let indeg = Array.make n 0 in
    let succs = Array.make n [] in
    for i = 0 to n - 1 do
      iter_operands
        (fun d ->
          indeg.(i) <- indeg.(i) + 1;
          succs.(d) <- i :: succs.(d))
        t.drivers.(i)
    done;
    let order = Array.make n 0 in
    let filled = ref 0 in
    let queue = Queue.create () in
    for i = 0 to n - 1 do
      if indeg.(i) = 0 then Queue.add i queue
    done;
    while not (Queue.is_empty queue) do
      let i = Queue.take queue in
      order.(!filled) <- i;
      incr filled;
      List.iter
        (fun s ->
          indeg.(s) <- indeg.(s) - 1;
          if indeg.(s) = 0 then Queue.add s queue)
        succs.(i)
    done;
    if !filled <> n then
      invalid_arg
        (Printf.sprintf "Netlist.finalise: combinational cycle in %S" t.nl_name);
    for i = 0 to t.n_dff - 1 do
      if t.dff_d.(i) < 0 then
        invalid_arg
          (Printf.sprintf "Netlist.finalise: unconnected DFF in %S" t.nl_name)
    done;
    t.order <- Some order;
    (* Memoise the input-name table once: every simulator built over this
       netlist (scalar or packed, on any domain) shares it read-only. *)
    let tbl = Hashtbl.create (max 16 (List.length t.inputs)) in
    List.iter (fun (nm, n) -> Hashtbl.replace tbl nm n) t.inputs;
    t.input_tbl <- Some tbl
  end

let input_index t =
  match t.input_tbl with
  | Some tbl -> tbl
  | None -> invalid_arg "Netlist.input_index: finalise first"

let n_nets t = t.count

let n_gates t =
  let g = ref 0 in
  for i = 0 to t.count - 1 do
    match t.drivers.(i) with
    | D_input _ | D_const _ | D_dff _ -> ()
    | D_not _ | D_and _ | D_or _ | D_xor _ | D_nand _ | D_nor _ | D_mux _ -> incr g
  done;
  !g

let n_dffs t = t.n_dff

let input_names t = List.rev_map fst t.inputs

let output_names t = List.rev_map fst t.outputs

let driver t n =
  check_net t n;
  t.drivers.(n)

let net_index (n : net) = n

let nets_in_order t =
  match t.order with
  | Some o -> o
  | None -> invalid_arg "Netlist.nets_in_order: finalise first"

let dff_data t i =
  if i < 0 || i >= t.n_dff then invalid_arg "Netlist.dff_data: index out of range";
  t.dff_d.(i)

let dff_init t i =
  if i < 0 || i >= t.n_dff then invalid_arg "Netlist.dff_init: index out of range";
  t.dff_i.(i)

let find_output t nm =
  match List.assoc_opt nm t.outputs with
  | Some n -> n
  | None -> raise Not_found

let outputs t = List.rev t.outputs

let fanout t =
  let acc = Array.make t.count 0 in
  let record d = acc.(d) <- acc.(d) + 1 in
  for i = 0 to t.count - 1 do
    match t.drivers.(i) with
    | D_dff k -> if t.dff_d.(k) >= 0 then record t.dff_d.(k)
    | d -> iter_operands record d
  done;
  acc

let fold_cone t ?(through_dffs = true) ~roots f init =
  (* each net is pushed at most once, so [count] slots are stack enough *)
  let seen = Array.make t.count false in
  let stack = Array.make t.count 0 and sp = ref 0 in
  let visit d =
    if not seen.(d) then begin
      seen.(d) <- true;
      stack.(!sp) <- d;
      incr sp
    end
  in
  List.iter
    (fun n ->
      check_net t n;
      visit n)
    roots;
  let acc = ref init in
  while !sp > 0 do
    decr sp;
    let n = stack.(!sp) in
    acc := f !acc n;
    match t.drivers.(n) with
    | D_dff k -> if through_dffs && t.dff_d.(k) >= 0 then visit t.dff_d.(k)
    | d -> iter_operands visit d
  done;
  !acc

let in_cone t ?through_dffs ~roots () =
  let mark = Array.make t.count false in
  fold_cone t ?through_dffs ~roots (fun () n -> mark.(n) <- true) ();
  mark
