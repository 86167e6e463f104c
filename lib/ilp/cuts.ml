(* Cutting planes separated from the model's own structure: clique cuts
   from the pairwise-conflict packing rows and cover cuts from knapsack
   rows (the area budget).  Both families are valid for every 0-1 point
   of the model, so cuts found at the root stay valid down the tree. *)

type kind = Cover | Clique

type cut = { terms : (int * float) list; rhs : float; kind : kind }

type t = {
  nv : int;
  binary : bool array;  (* vars with bounds exactly [0,1] *)
  packing : int array array;  (* rows  Σ x_j <= 1, unit coefs, binary *)
  knapsack : (int array * float array * float) array;
      (* rows  Σ a_j x_j <= b, a_j > 0, binary, not packing *)
  adj : Bytes.t;  (* co-occurrence bitmap over packing rows *)
  seen : (string, unit) Hashtbl.t;  (* dedupe across rounds *)
}

let adj_get t i j = Char.code (Bytes.get t.adj ((i * t.nv) + j)) <> 0
let adj_set b nv i j = Bytes.set b ((i * nv) + j) '\001'

let prepare m =
  let nv = Model.n_vars m in
  let binary =
    Array.init nv (fun j ->
        Model.var_bounds m (Model.var_of_index m j) = (0, 1))
  in
  let packing = ref [] in
  let knapsack = ref [] in
  Model.iter_constraints m (fun terms rel rhs ->
      match rel with
      | Thr_lp.Simplex.Le ->
          let all_binary =
            List.for_all (fun (_, v) -> binary.(Model.var_index v)) terms
          in
          let all_unit =
            List.for_all (fun (c, _) -> Float.abs (c -. 1.0) < 1e-9) terms
          in
          let all_pos = List.for_all (fun (c, _) -> c > 1e-9) terms in
          if all_binary && all_unit && Float.abs (rhs -. 1.0) < 1e-9
             && List.length terms >= 2
          then
            packing :=
              Array.of_list (List.map (fun (_, v) -> Model.var_index v) terms)
              :: !packing
          else if all_binary && all_pos && rhs > 1e-9 && List.length terms >= 2
          then begin
            let idx =
              Array.of_list (List.map (fun (_, v) -> Model.var_index v) terms)
            in
            let coef = Array.of_list (List.map fst terms) in
            (* a knapsack row only yields covers when some subset of its
               items can exceed the capacity *)
            if Array.fold_left ( +. ) 0.0 coef > rhs +. 1e-9 then
              knapsack := (idx, coef, rhs) :: !knapsack
          end
      | _ -> ())
    ;
  let packing = Array.of_list (List.rev !packing) in
  let adj = Bytes.make (nv * nv) '\000' in
  Array.iter
    (fun row ->
      Array.iter
        (fun i ->
          Array.iter
            (fun j ->
              if i <> j then begin
                adj_set adj nv i j;
                adj_set adj nv j i
              end)
            row)
        row)
    packing;
  {
    nv;
    binary;
    packing;
    knapsack = Array.of_list (List.rev !knapsack);
    adj;
    seen = Hashtbl.create 64;
  }

let key_of kind idx =
  let idx = Array.copy idx in
  Array.sort compare idx;
  let b = Buffer.create (4 * Array.length idx) in
  Buffer.add_char b (match kind with Cover -> 'c' | Clique -> 'q');
  Array.iter (fun i -> Buffer.add_string b (string_of_int i); Buffer.add_char b ',') idx;
  Buffer.contents b

let fresh t kind idx =
  let k = key_of kind idx in
  if Hashtbl.mem t.seen k then false
  else begin
    Hashtbl.add t.seen k ();
    true
  end

let viol_tol = 1e-4

(* cuts returned per family and call *)
let max_cuts = 20

(* Grow a clique greedily from each packing row: members sorted by x*
   descending, candidates are vars adjacent to every current member.
   Emit when the clique's x* mass exceeds 1.  A violated clique cannot
   be contained in a single packing row (the LP point satisfies every
   row), so the violation test alone guarantees the cut is new
   structure. *)
let separate_cliques t x =
  let cuts = ref [] in
  let n_found = ref 0 in
  (* candidate pool: fractional-or-one binary vars touched by packing
     rows, sorted by x* descending *)
  let pool =
    Array.init t.nv (fun j -> j)
    |> Array.to_list
    |> List.filter (fun j -> t.binary.(j) && x.(j) > viol_tol)
    |> List.sort (fun a b -> compare x.(b) x.(a))
  in
  let in_clique = Array.make t.nv false in
  (try
     Array.iter
       (fun row ->
         if !n_found >= max_cuts then raise Exit;
         (* seed: the two highest-x* members of the row *)
         let members =
           Array.to_list row
           |> List.filter (fun j -> x.(j) > viol_tol)
           |> List.sort (fun a b -> compare x.(b) x.(a))
         in
         match members with
         | seed :: _ ->
             let clique = ref [ seed ] in
             let sum = ref x.(seed) in
             in_clique.(seed) <- true;
             List.iter
               (fun j ->
                 if (not in_clique.(j))
                    && List.for_all (fun i -> adj_get t i j) !clique
                 then begin
                   clique := j :: !clique;
                   in_clique.(j) <- true;
                   sum := !sum +. x.(j)
                 end)
               pool;
             let idx = Array.of_list !clique in
             List.iter (fun j -> in_clique.(j) <- false) !clique;
             if !sum > 1.0 +. viol_tol && Array.length idx >= 2
                && fresh t Clique idx
             then begin
               incr n_found;
               cuts :=
                 {
                   terms = Array.to_list (Array.map (fun j -> (j, 1.0)) idx);
                   rhs = 1.0;
                   kind = Clique;
                 }
                 :: !cuts
             end
         | [] -> ())
       t.packing
   with Exit -> ());
  !cuts

(* Minimal cover cuts: pick items by descending x* until the capacity is
   exceeded, drop redundant items, and keep the cut when the LP point
   violates  Σ_C x_j <= |C| - 1,  i.e.  Σ_C (1 - x*_j) < 1. *)
let separate_covers t x =
  let cuts = ref [] in
  let n_found = ref 0 in
  (try
     Array.iter
       (fun (idx, coef, b) ->
         if !n_found >= max_cuts then raise Exit;
         let n = Array.length idx in
         let order = Array.init n (fun k -> k) in
         Array.sort (fun p q -> compare x.(idx.(q)) x.(idx.(p))) order;
         let cover = ref [] in
         let wsum = ref 0.0 in
         (try
            Array.iter
              (fun k ->
                if !wsum <= b +. 1e-9 then begin
                  cover := k :: !cover;
                  wsum := !wsum +. coef.(k)
                end
                else raise Exit)
              order
          with Exit -> ());
         if !wsum > b +. 1e-9 then begin
           (* minimalise: drop any item whose removal keeps the cover *)
           let keep =
             List.filter
               (fun k ->
                 if !wsum -. coef.(k) > b +. 1e-9 then begin
                   wsum := !wsum -. coef.(k);
                   false
                 end
                 else true)
               (List.sort (fun p q -> compare coef.(q) coef.(p)) !cover)
           in
           let slack =
             List.fold_left (fun s k -> s +. (1.0 -. x.(idx.(k)))) 0.0 keep
           in
           let size = List.length keep in
           if size >= 2 && slack < 1.0 -. viol_tol then begin
             let vars = Array.of_list (List.map (fun k -> idx.(k)) keep) in
             if fresh t Cover vars then begin
               incr n_found;
               cuts :=
                 {
                   terms = Array.to_list (Array.map (fun j -> (j, 1.0)) vars);
                   rhs = float_of_int (size - 1);
                   kind = Cover;
                 }
                 :: !cuts
             end
           end
         end)
       t.knapsack
   with Exit -> ());
  !cuts

let separate t x = separate_cliques t x @ separate_covers t x
