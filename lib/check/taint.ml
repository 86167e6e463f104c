module Netlist = Thr_gates.Netlist

type label = int list

(* [words] ints of label per net.  Vendor [ids.(d)] (ids increasing)
   owns bit [d]; the guard net owns bit [Array.length ids]. *)
type sweep = { ids : int array; words : int; bits : int array }

let has s i d =
  s.bits.((i * s.words) + (d / Sys.int_size)) land (1 lsl (d mod Sys.int_size))
  <> 0

(* One forward fixpoint over bitset labels, calling [vendor_of] once per
   net.  Every net starts with its own vendor's bit ([guard] also owns
   the guard bit); a sweep ORs each operand's label into its reader's,
   in evaluation order, and repeats until no label grows.  DFF outputs
   come first in that order, so labels cross one register per sweep. *)
let sweep ~vendor_of ?guard nl =
  let n = Netlist.n_nets nl in
  let order = Netlist.nets_in_order nl in
  let owner = Array.map vendor_of order in
  let dense = Hashtbl.create 16 in
  Array.iter (Option.iter (fun v -> Hashtbl.replace dense v 0)) owner;
  let ids =
    Hashtbl.fold (fun v _ l -> v :: l) dense []
    |> List.sort Int.compare |> Array.of_list
  in
  Array.iteri (fun d v -> Hashtbl.replace dense v d) ids;
  let nv = Array.length ids in
  let words = (nv + Sys.int_size) / Sys.int_size in
  let bits = Array.make (n * words) 0 in
  let set i d =
    let k = (i * words) + (d / Sys.int_size) in
    bits.(k) <- bits.(k) lor (1 lsl (d mod Sys.int_size))
  in
  Option.iter (fun g -> set (Netlist.net_index g) nv) guard;
  (* (reader, operand) edges in evaluation order, a DFF's from its data
     input *)
  let reader = Array.make ((3 * n) + Netlist.n_dffs nl) 0 in
  let operand = Array.make (Array.length reader) 0 in
  let m = ref 0 in
  let edge r x =
    reader.(!m) <- r;
    operand.(!m) <- Netlist.net_index x;
    incr m
  in
  Array.iteri
    (fun pos net ->
      let r = Netlist.net_index net in
      Option.iter (fun v -> set r (Hashtbl.find dense v)) owner.(pos);
      match Netlist.driver nl net with
      | Netlist.D_dff k -> edge r (Netlist.dff_data nl k)
      | d -> Netlist.iter_operands (edge r) d)
    order;
  let grew = ref true in
  while !grew do
    grew := false;
    for e = 0 to !m - 1 do
      let d = reader.(e) * words and s = operand.(e) * words in
      for k = 0 to words - 1 do
        let nw = bits.(d + k) lor bits.(s + k) in
        if nw <> bits.(d + k) then begin
          bits.(d + k) <- nw;
          grew := true
        end
      done
    done
  done;
  { ids; words; bits }

(* each net's vendor ids, increasing; the guard bit is not a vendor *)
let labels s =
  let ids = Array.to_list s.ids in
  Array.init (Array.length s.bits / s.words) (fun i ->
      List.filteri (fun d _ -> has s i d) ids)

let propagate ~vendor_of nl = labels (sweep ~vendor_of nl)

let analyse ~vendor_of ~mismatch ?(min_vendors = 2) nl =
  let s = sweep ~vendor_of ~guard:mismatch nl in
  let taint = labels s in
  let compared = Netlist.in_cone nl ~roots:[ mismatch ] () in
  let mi = Netlist.net_index mismatch in
  let findings = ref [] in
  let emit ~rule ?net detail =
    findings :=
      Finding.make ~pass:Finding.Taint ~severity:Finding.Error ~rule ?net
        detail
      :: !findings
  in
  (let cmp_taint = taint.(mi) in
   if List.length cmp_taint < min_vendors then
     emit ~rule:"comparator-diversity" ~net:mismatch
       (Printf.sprintf
          "%s combines data from %d vendor(s); Rule 1 requires at least %d"
          (Finding.net_label nl mismatch)
          (List.length cmp_taint) min_vendors));
  List.iter
    (fun (name, net) ->
      let i = Netlist.net_index net in
      if i <> mi then
        match taint.(i) with
        | [] -> ()
        | vendors ->
            (* observed: in the comparator's fan-in; guarded: the
               comparator's bit reached the output *)
            if not (compared.(i) || has s i (Array.length s.ids)) then
              emit ~rule:"unguarded-output" ~net
                (Printf.sprintf
                   "output %s carries data from vendor(s) %s but is neither \
                    observed nor guarded by the mismatch comparator"
                   name
                   (String.concat "," (List.map string_of_int vendors))))
    (Netlist.outputs nl);
  (List.sort Finding.compare !findings, taint)
