module Model = Thr_ilp.Model
module Solve = Thr_ilp.Solve

let space_limit = 1 lsl 24

let solve m =
  let nv = Model.n_vars m in
  let lo = Array.init nv (fun v -> fst (Model.var_bounds m (Model.var_of_index m v))) in
  let up = Array.init nv (fun v -> snd (Model.var_bounds m (Model.var_of_index m v))) in
  let space =
    Array.fold_left
      (fun acc i -> if acc > space_limit then acc else acc * i)
      1
      (Array.init nv (fun v -> up.(v) - lo.(v) + 1))
  in
  if space > space_limit then
    invalid_arg "Enumerate.solve: search space too large";
  let assignment = Array.copy lo in
  let best = ref None in
  let best_obj = ref infinity in
  let rec go v =
    if v = nv then begin
      if Model.check_assignment m assignment then begin
        let obj = Model.eval_objective m assignment in
        if obj < !best_obj -. 1e-9 then begin
          best := Some { Solve.objective = obj; values = Array.copy assignment };
          best_obj := obj
        end
      end
    end
    else
      for x = lo.(v) to up.(v) do
        assignment.(v) <- x;
        go (v + 1)
      done
  in
  go 0;
  !best
