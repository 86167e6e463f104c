module Netlist = Thr_gates.Netlist
module Sim = Thr_gates.Sim
module Packed = Thr_gates.Packed
module Prng = Thr_util.Prng

type vector = (string * bool) list

let random_vectors ~prng nl n =
  let names = Netlist.input_names nl in
  List.init n (fun _ -> List.map (fun nm -> (nm, Prng.bool prng)) names)

type profile = {
  nets : Netlist.net array;
  one_probability : float array;
}

let internal_nets nl =
  Netlist.finalise nl;
  Netlist.nets_in_order nl
  |> Array.to_list
  |> List.filter (fun net ->
         match Netlist.driver nl net with
         | Netlist.D_input _ | Netlist.D_const _ -> false
         | _ -> true)
  |> Array.of_list

(* Drive one lane-word chunk of explicit vectors into a 1-word strip:
   lane [k] carries vector [k] (absent names stay 0, as after a scalar
   reset). *)
let drive_chunk st names chunk =
  let tbl = Netlist.input_index (Packed.strip_netlist st) in
  let on = Hashtbl.create 64 in
  List.iteri
    (fun k v ->
      List.iter (fun (nm, b) -> if b then Hashtbl.replace on (k, nm) ()) v)
    chunk;
  List.iter
    (fun nm ->
      match Hashtbl.find_opt tbl nm with
      | Some id ->
          Packed.strip_drive st [| id |] (List.length chunk) (fun k ->
              Bool.to_int (Hashtbl.mem on (k, nm)))
      | None -> invalid_arg (Printf.sprintf "Logic_test: unknown input %S" nm))
    names

(* The same from power-on, clocked once. *)
let apply_chunk st names chunk =
  Packed.strip_reset st;
  drive_chunk st names chunk;
  Packed.strip_settle st;
  Packed.strip_latch st;
  Packed.strip_settle st

let rec chunked n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) (x :: acc) rest
      in
      let c, rest = take n [] l in
      c :: chunked n rest

let signal_probabilities ~prng ?(samples = 512) nl =
  Netlist.finalise nl;
  let nets = internal_nets nl in
  let ones = Array.make (Array.length nets) 0 in
  let names = Netlist.input_names nl in
  if Netlist.n_dffs nl > 0 then begin
    (* Sequential: state deliberately carries over from sample to sample
       (one long random excitation), which independent lanes cannot
       reproduce — keep the scalar walk. *)
    let sim = Sim.create nl in
    for _ = 1 to samples do
      List.iter (fun nm -> Sim.set_input sim nm (Prng.bool prng)) names;
      Sim.clock sim;
      Array.iteri
        (fun i net -> if Sim.peek sim net then ones.(i) <- ones.(i) + 1)
        nets
    done
  end
  else begin
    (* Combinational: samples are independent, so pack them into lanes.
       Bits are drawn sample-major in input declaration order — exactly
       the scalar loop's order, so seeded profiles are unchanged. *)
    let st = Packed.strip ~words:1 nl in
    let done_ = ref 0 in
    while !done_ < samples do
      let count = min Packed.lanes (samples - !done_) in
      drive_chunk st names (random_vectors ~prng nl count);
      Packed.strip_settle st;
      Array.iteri
        (fun i net ->
          ones.(i) <-
            ones.(i) + Packed.strip_count st (Netlist.net_index net) count)
        nets;
      done_ := !done_ + count
    done
  end;
  {
    nets;
    one_probability =
      Array.map (fun c -> float_of_int c /. float_of_int samples) ones;
  }

let rare_nodes profile ~theta =
  let acc = ref [] in
  Array.iteri
    (fun i net ->
      let p1 = profile.one_probability.(i) in
      if p1 < theta then acc := (net, true) :: !acc
      else if 1.0 -. p1 < theta then acc := (net, false) :: !acc)
    profile.nets;
  List.rev !acc

let apply_vector sim vector =
  List.iter (fun (nm, b) -> Sim.set_input sim nm b) vector;
  Sim.clock sim

let n_detect_count nl rare vectors =
  Netlist.finalise nl;
  let names = Netlist.input_names nl in
  let st = Packed.strip ~words:1 nl in
  let counts = Array.make (List.length rare) 0 in
  List.iter
    (fun chunk ->
      let count = List.length chunk in
      apply_chunk st names chunk;
      List.iteri
        (fun i (net, rare_value) ->
          let ones = Packed.strip_count st (Netlist.net_index net) count in
          counts.(i) <- counts.(i) + if rare_value then ones else count - ones)
        rare)
    (chunked Packed.lanes vectors);
  counts

(* score = sum over rare nodes of min(hits, n_target) — MERO's objective *)
let score ~n_target counts =
  Array.fold_left (fun acc c -> acc + min c n_target) 0 counts

let mero_refine ~prng ?(rounds = 2000) ?(n_target = 10) nl rare base =
  if rare = [] || base = [] then base
  else begin
    (* One mutated vector per round: the scalar simulator (reused across
       all rounds) is the right tool; the packed engine only pays off on
       batches. *)
    let sim = Sim.create nl in
    let hits_of vector =
      Sim.reset sim;
      apply_vector sim vector;
      List.map (fun (net, rv) -> Sim.peek sim net = rv) rare
    in
    (* counts per rare node across the evolving test set *)
    let counts = Array.make (List.length rare) 0 in
    let record vector =
      List.iteri (fun i hit -> if hit then counts.(i) <- counts.(i) + 1) (hits_of vector)
    in
    let kept = ref (List.rev base) in
    List.iter record base;
    let vectors = Array.of_list base in
    for _ = 1 to rounds do
      let v = Prng.pick prng vectors in
      (* flip a couple of random bits *)
      let v' =
        List.map
          (fun (nm, b) -> (nm, if Prng.int prng 8 = 0 then not b else b))
          v
      in
      let before = score ~n_target counts in
      let hits = hits_of v' in
      let gain =
        List.fold_left
          (fun (i, acc) hit ->
            let acc =
              if hit && counts.(i) < n_target then acc + 1 else acc
            in
            (i + 1, acc))
          (0, 0) hits
        |> snd
      in
      if gain > 0 then begin
        List.iteri (fun i hit -> if hit then counts.(i) <- counts.(i) + 1) hits;
        kept := v' :: !kept;
        ignore before
      end
    done;
    List.rev !kept
  end

let detect ~golden ~suspect vectors =
  Netlist.finalise golden;
  Netlist.finalise suspect;
  let names = Netlist.input_names golden in
  let gst = Packed.strip ~words:1 golden in
  let sst = Packed.strip ~words:1 suspect in
  let outputs =
    List.map
      (fun o -> (Netlist.find_output golden o, Netlist.find_output suspect o))
      (Netlist.output_names golden)
  in
  List.exists
    (fun chunk ->
      let mask = Packed.lane_mask (List.length chunk) in
      apply_chunk gst names chunk;
      apply_chunk sst names chunk;
      List.exists
        (fun (g, s) ->
          (Packed.strip_peek gst g 0 lxor Packed.strip_peek sst s 0) land mask
          <> 0)
        outputs)
    (chunked Packed.lanes vectors)
