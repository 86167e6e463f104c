module Spec = Thr_hls.Spec
module Copy = Thr_hls.Copy
module Rules = Thr_hls.Rules
module Dfg = Thr_dfg.Dfg
module Catalog = Thr_iplib.Catalog
module Iptype = Thr_iplib.Iptype
module Vendor = Thr_iplib.Vendor

type t = {
  spec : Spec.t;
  n_copies : int;
  n_vendors : int;
  vendors : Vendor.t array;
  type_of_copy : int array;
  window_lo : int array;
  window_hi : int array;
  preds : int list array;
  succs : int list array;
  conflicts : int list array;
  offers : bool array array;
  area : int array array;
  cost : int array array;
  types_used : int list;
  min_vendors : int array;
}

let n_types = List.length Iptype.all

let make spec =
  let n_copies = Copy.count spec in
  let vendors = Array.of_list (Catalog.vendors spec.Spec.catalog) in
  let n_vendors = Array.length vendors in
  let type_of_copy =
    Array.init n_copies (fun idx ->
        Iptype.to_index (Spec.iptype_of_op spec (Copy.of_index spec idx).Copy.op))
  in
  let window_lo = Array.make n_copies 1 in
  let window_hi = Array.make n_copies 1 in
  List.iter
    (fun c ->
      let idx = Copy.index spec c in
      match c.Copy.phase with
      | Copy.NC | Copy.RC ->
          window_lo.(idx) <- 1;
          window_hi.(idx) <- spec.Spec.latency_detect
      | Copy.RV ->
          window_lo.(idx) <- spec.Spec.latency_detect + 1;
          window_hi.(idx) <- spec.Spec.latency_detect + spec.Spec.latency_recover)
    (Copy.all spec);
  let preds = Array.make n_copies [] in
  let succs = Array.make n_copies [] in
  let phases =
    match spec.Spec.mode with
    | Spec.Detection_only -> [ Copy.NC; Copy.RC ]
    | Spec.Detection_and_recovery -> [ Copy.NC; Copy.RC; Copy.RV ]
  in
  List.iter
    (fun (i, j) ->
      List.iter
        (fun phase ->
          let ci = Copy.index spec { Copy.op = i; phase } in
          let cj = Copy.index spec { Copy.op = j; phase } in
          succs.(ci) <- cj :: succs.(ci);
          preds.(cj) <- ci :: preds.(cj))
        phases)
    (Dfg.edges spec.Spec.dfg);
  let conflicts = Array.make n_copies [] in
  List.iter
    (fun (a, b, _) ->
      conflicts.(a) <- b :: conflicts.(a);
      conflicts.(b) <- a :: conflicts.(b))
    (Rules.conflict_array spec);
  let offers = Array.make_matrix n_vendors n_types false in
  let area = Array.make_matrix n_vendors n_types 0 in
  let cost = Array.make_matrix n_vendors n_types 0 in
  Array.iteri
    (fun k v ->
      List.iter
        (fun ty ->
          match Catalog.entry spec.Spec.catalog v ty with
          | None -> ()
          | Some e ->
              let ti = Iptype.to_index ty in
              offers.(k).(ti) <- true;
              area.(k).(ti) <- e.Catalog.area;
              cost.(k).(ti) <- e.Catalog.cost)
        Iptype.all)
    vendors;
  let types_used =
    List.filter
      (fun ti -> Array.exists (fun t -> t = ti) type_of_copy)
      (List.init n_types (fun i -> i))
  in
  let min_vendors =
    Array.init n_types (fun ti ->
        if List.mem ti types_used then
          Rules.min_vendors_per_type spec (Iptype.of_index ti)
        else 0)
  in
  {
    spec;
    n_copies;
    n_vendors;
    vendors;
    type_of_copy;
    window_lo;
    window_hi;
    preds;
    succs;
    conflicts;
    offers;
    area;
    cost;
    types_used;
    min_vendors;
  }

let vendor_index t v =
  let rec go k =
    if k >= t.n_vendors then raise Not_found
    else if Vendor.equal t.vendors.(k) v then k
    else go (k + 1)
  in
  go 0

