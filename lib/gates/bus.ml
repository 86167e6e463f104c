type t = Netlist.net array

let bit_name base i = Printf.sprintf "%s.%d" base i

let inputs nl base w = Array.init w (fun i -> Netlist.input nl (bit_name base i))

let width = Array.length

let const nl ~width v =
  Array.init width (fun i -> Netlist.const nl ((v lsr i) land 1 = 1))

let eq_const nl bus v =
  let bits =
    Array.to_list
      (Array.mapi
         (fun i n ->
           if (v lsr i) land 1 = 1 then n else Netlist.not_ nl n)
         bus)
  in
  Netlist.and_list nl bits

let eq nl a b =
  if width a <> width b then invalid_arg "Bus.eq: width mismatch";
  let bits =
    Array.to_list (Array.map2 (fun x y -> Netlist.not_ nl (Netlist.xor_ nl x y)) a b)
  in
  Netlist.and_list nl bits

let xor_enable nl bus ~enable ~mask =
  Array.mapi
    (fun i n -> if (mask lsr i) land 1 = 1 then Netlist.xor_ nl n enable else n)
    bus

let counter nl ~width ~enable =
  (* Ripple-carry up-counter out of T flip-flops: bit i toggles when
     enable and all lower bits are 1.  Each T-FF is a registered feedback
     loop q = dff(q xor toggle), built with Netlist.dff_loop. *)
  if width <= 0 then invalid_arg "Bus.counter: width must be positive";
  let result = Array.make width enable in
  let carry = ref enable in
  for i = 0 to width - 1 do
    let toggle = !carry in
    let q = Netlist.dff_loop nl (fun q -> Netlist.xor_ nl q toggle) in
    result.(i) <- q;
    (* the carry out of the top bit has no reader; don't build it *)
    if i < width - 1 then carry := Netlist.and_ nl !carry q
  done;
  result

let all_ones nl bus = Netlist.and_list nl (Array.to_list bus)

let outputs nl base bus =
  Array.iteri (fun i n -> Netlist.output nl (bit_name base i) n) bus

let to_int peek bus =
  let v = ref 0 in
  Array.iteri (fun i n -> if peek n then v := !v lor (1 lsl i)) bus;
  !v

let drive_int set base w v =
  for i = 0 to w - 1 do
    set (bit_name base i) ((v lsr i) land 1 = 1)
  done
