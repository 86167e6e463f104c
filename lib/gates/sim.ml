type t = {
  nl : Netlist.t;
  values : bool array;          (* per net *)
  dffs : bool array;            (* current DFF state *)
  order : Netlist.net array;
  drivers : Netlist.driver array; (* driver per position of [order] *)
  inputs : (string, int) Hashtbl.t; (* name -> net index *)
}

let create nl =
  Netlist.finalise nl;
  let n = Netlist.n_nets nl in
  let order = Netlist.nets_in_order nl in
  {
    nl;
    values = Array.make n false;
    dffs = Array.init (Netlist.n_dffs nl) (Netlist.dff_init nl);
    order;
    (* resolved once: [settle] walks an array instead of re-fetching the
       driver of every net on every pass *)
    drivers = Array.map (Netlist.driver nl) order;
    (* shared, read-only: memoised by finalise *)
    inputs = Netlist.input_index nl;
  }

let reset t =
  Array.fill t.values 0 (Array.length t.values) false;
  for i = 0 to Array.length t.dffs - 1 do
    t.dffs.(i) <- Netlist.dff_init t.nl i
  done

let set_input t nm b =
  match Hashtbl.find_opt t.inputs nm with
  | Some idx -> t.values.(idx) <- b
  | None -> invalid_arg (Printf.sprintf "Sim.set_input: unknown input %S" nm)

let set_inputs t l = List.iter (fun (nm, b) -> set_input t nm b) l

let input_value t nm =
  match Hashtbl.find_opt t.inputs nm with
  | Some idx -> t.values.(idx)
  | None ->
      invalid_arg (Printf.sprintf "Sim.input_value: unknown input %S" nm)

let settle t =
  let v = t.values in
  let idx = Netlist.net_index in
  let order = t.order and drivers = t.drivers in
  for p = 0 to Array.length order - 1 do
    let i = idx order.(p) in
    match drivers.(p) with
    | Netlist.D_input _ -> () (* retains the value set by set_input *)
    | Netlist.D_const b -> v.(i) <- b
    | Netlist.D_not a -> v.(i) <- not v.(idx a)
    | Netlist.D_and (a, b) -> v.(i) <- v.(idx a) && v.(idx b)
    | Netlist.D_or (a, b) -> v.(i) <- v.(idx a) || v.(idx b)
    | Netlist.D_xor (a, b) -> v.(i) <- v.(idx a) <> v.(idx b)
    | Netlist.D_nand (a, b) -> v.(i) <- not (v.(idx a) && v.(idx b))
    | Netlist.D_nor (a, b) -> v.(i) <- not (v.(idx a) || v.(idx b))
    | Netlist.D_mux (s, t0, t1) -> v.(i) <- (if v.(idx s) then v.(idx t1) else v.(idx t0))
    | Netlist.D_dff k -> v.(i) <- t.dffs.(k)
  done

let clock t =
  settle t;
  let next =
    Array.init (Array.length t.dffs) (fun k ->
        t.values.(Netlist.net_index (Netlist.dff_data t.nl k)))
  in
  Array.blit next 0 t.dffs 0 (Array.length next);
  (* expose the new state combinationally, like reading after the edge *)
  settle t

let step t ins =
  set_inputs t ins;
  clock t

let output t nm =
  match Netlist.find_output t.nl nm with
  | n -> t.values.(Netlist.net_index n)
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Sim.output: unknown output %S" nm)

let peek t net = t.values.(Netlist.net_index net)
