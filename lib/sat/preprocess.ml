(* CNF preprocessing with model reconstruction.

   Three root-level simplifications run to a fixpoint over the clause
   list of one frame: unit propagation (also folding in the constants a
   Tseitin frame pins with unit clauses), pure-literal fixing of
   non-frozen variables, failed-literal probing (assume a literal,
   propagate; a conflict learns the negation as a root unit), and
   bounded variable elimination in the NiVER style (eliminate a variable
   when its non-tautological resolvents are no more numerous than the
   clauses they replace).

   Every removal of a non-frozen variable pushes a reconstruction entry.
   The stack is replayed most-recent-first by [extend]: an entry's
   clause snapshot only references variables that were still undecided
   when it was pushed, so those are either surviving (solver model) or
   decided by entries above it — a full model of the original formula
   falls out in one pass. *)

module Trace = Thr_obs.Trace
module Metrics = Thr_obs.Metrics

type entry =
  | Fixed of int * bool  (* var, forced or chosen root value *)
  | Eliminated of int * int list list
      (* var, snapshot of every clause containing it at elimination *)

type t = { mutable stack : entry list }

let create () = { stack = [] }

type stats = {
  pp_clauses_in : int;
  pp_clauses_out : int;
  pp_removed_vars : int;
  pp_probe_units : int;
  pp_eliminated : int;
}

let m_removed = Metrics.counter "thr_sat_preprocess_removed_vars_total"

let m_clauses_in = Metrics.counter "thr_sat_preprocess_clauses_in_total"

let m_clauses_out = Metrics.counter "thr_sat_preprocess_clauses_out_total"

let m_probe_units = Metrics.counter "thr_sat_preprocess_probe_units_total"

(* by variable, then the negative literal first *)
let by_var a b =
  let c = Int.compare (abs a) (abs b) in
  if c <> 0 then c else Int.compare a b

(* sort by variable, drop duplicates, detect tautologies *)
let norm lits =
  let l = List.sort_uniq by_var lits in
  let rec taut = function
    | a :: b :: rest -> a = -b || taut (b :: rest)
    | _ -> false
  in
  if taut l then None else Some l

exception Unsat_found

let simplify ?(probe_limit = 512) ?(elim_occ_limit = 10) t ~frozen ~n_vars
    clauses =
  Trace.with_span "sat.preprocess"
    ~args:[ ("clauses", string_of_int (List.length clauses)) ]
    (fun () ->
      let n_in = List.length clauses in
      (* growable clause store; occurrence lists are append-only and
         filtered on traversal (an entry may be stale after a kill or a
         literal strike) *)
      let cap = ref (max 16 (2 * n_in)) in
      let cls = ref (Array.make !cap []) in
      let alive = ref (Array.make !cap false) in
      let n_cls = ref 0 in
      let occ = Array.make (n_vars + 1) [] in
      let value = Array.make (n_vars + 1) 0 in
      let lit_value l =
        let v = value.(abs l) in
        if v = 0 then 0 else if l > 0 then v else -v
      in
      let probe_units = ref 0 in
      let eliminated = ref 0 in
      let removed = ref 0 in
      let units = Queue.create () in
      let register idx c =
        List.iter (fun l -> occ.(abs l) <- idx :: occ.(abs l)) c
      in
      let push_clause c =
        match norm c with
        | None -> () (* tautology *)
        | Some c ->
        (* simplify against the current root values on the way in *)
        if not (List.exists (fun l -> lit_value l = 1) c) then begin
          let c =
            if List.exists (fun l -> lit_value l = -1) c then
              List.filter (fun l -> lit_value l <> -1) c
            else c
          in
          match c with
          | [] -> raise Unsat_found
          | [ l ] -> Queue.add l units
          | c ->
              if !n_cls = !cap then begin
                cap := 2 * !cap;
                let d = Array.make !cap [] and a = Array.make !cap false in
                Array.blit !cls 0 d 0 !n_cls;
                Array.blit !alive 0 a 0 !n_cls;
                cls := d;
                alive := a
              end;
              !cls.(!n_cls) <- c;
              !alive.(!n_cls) <- true;
              register !n_cls c;
              n_cls := !n_cls + 1
        end
      in
      (* fix [l] at the root and rewrite every clause containing its
         variable; newly-unit clauses queue up *)
      let assign_root l =
        let v = abs l in
        if value.(v) <> 0 then begin
          if lit_value l = -1 then raise Unsat_found
        end
        else begin
          value.(v) <- (if l > 0 then 1 else -1);
          if not frozen.(v) then begin
            t.stack <- Fixed (v, l > 0) :: t.stack;
            incr removed
          end;
          List.iter
            (fun idx ->
              if !alive.(idx) then begin
                let c = !cls.(idx) in
                if List.exists (fun m -> lit_value m = 1) c then
                  !alive.(idx) <- false
                else begin
                  let c' = List.filter (fun m -> lit_value m <> -1) c in
                  match c' with
                  | [] -> raise Unsat_found
                  | [ m ] ->
                      !alive.(idx) <- false;
                      Queue.add m units
                  | c' -> !cls.(idx) <- c'
                end
              end)
            occ.(v)
        end
      in
      let drain_units () =
        while not (Queue.is_empty units) do
          assign_root (Queue.pop units)
        done
      in
      (* temporary propagation for probing: returns true on conflict.
         [tval]/[touched] implement an undoable trail over the root
         values. *)
      let tval = Array.make (n_vars + 1) 0 in
      let touched = ref [] in
      let t_lit_value l =
        let v = abs l in
        let x = if value.(v) <> 0 then value.(v) else tval.(v) in
        if x = 0 then 0 else if l > 0 then x else -x
      in
      let probe_conflicts l =
        let q = Queue.create () in
        Queue.add l q;
        let conflict = ref false in
        (try
           while not (Queue.is_empty q) do
             let p = Queue.pop q in
             (match t_lit_value p with
             | -1 -> raise Exit
             | 1 -> ()
             | _ ->
                 let v = abs p in
                 tval.(v) <- (if p > 0 then 1 else -1);
                 touched := v :: !touched;
                 (* clauses watching the falsified polarity may tighten *)
                 List.iter
                   (fun idx ->
                     if !alive.(idx) then begin
                       let c = !cls.(idx) in
                       if List.mem (-p) c then begin
                         let sat = ref false and unassigned = ref [] in
                         List.iter
                           (fun m ->
                             match t_lit_value m with
                             | 1 -> sat := true
                             | 0 -> unassigned := m :: !unassigned
                             | _ -> ())
                           c;
                         if not !sat then
                           match !unassigned with
                           | [] -> raise Exit
                           | [ m ] -> Queue.add m q
                           | _ -> ()
                       end
                     end)
                   occ.(v))
           done
         with Exit -> conflict := true);
        List.iter (fun v -> tval.(v) <- 0) !touched;
        touched := [];
        !conflict
      in
      let changed = ref true in
      let pass = ref 0 in
      (try
         List.iter push_clause clauses;
         drain_units ();
         while !changed && !pass < 4 do
           changed := false;
           incr pass;
           (* pure literals: a non-frozen variable seen in one polarity
              only can be fixed to it *)
           let pos = Array.make (n_vars + 1) false in
           let neg = Array.make (n_vars + 1) false in
           for idx = 0 to !n_cls - 1 do
             if !alive.(idx) then
               List.iter
                 (fun l -> if l > 0 then pos.(l) <- true else neg.(-l) <- true)
                 !cls.(idx)
           done;
           for v = 1 to n_vars do
             if value.(v) = 0 && (not frozen.(v)) && pos.(v) <> neg.(v) then begin
               assign_root (if pos.(v) then v else -v);
               drain_units ();
               changed := true
             end
           done;
           (* failed-literal probing, first pass only *)
           if !pass = 1 then begin
             let probed = ref 0 in
             let v = ref 1 in
             while !v <= n_vars && !probed < probe_limit do
               if value.(!v) = 0 && occ.(!v) <> [] then begin
                 incr probed;
                 if probe_conflicts !v then begin
                   assign_root (- !v);
                   drain_units ();
                   incr probe_units;
                   changed := true
                 end
                 else if value.(!v) = 0 && probe_conflicts (- !v) then begin
                   assign_root !v;
                   drain_units ();
                   incr probe_units;
                   changed := true
                 end
               end;
               incr v
             done
           end;
           (* bounded variable elimination (NiVER): replace a variable's
              clauses by their resolvents when that does not grow the
              formula *)
           for v = 1 to n_vars do
             if value.(v) = 0 && not frozen.(v) then begin
               (* [occ.(v)] holds each clause index once, newest first,
                  and so do [p] and [n] *)
               let p =
                 List.filter
                   (fun idx -> !alive.(idx) && List.mem v !cls.(idx))
                   occ.(v)
               and n =
                 List.filter
                   (fun idx -> !alive.(idx) && List.mem (-v) !cls.(idx))
                   occ.(v)
               in
               let np = List.length p and nn = List.length n in
               if np <= elim_occ_limit && nn <= elim_occ_limit then begin
                 let resolvents = ref [] in
                 let count = ref 0 in
                 List.iter
                   (fun ip ->
                     List.iter
                       (fun in_ ->
                         let r =
                           List.filter (fun l -> l <> v) !cls.(ip)
                           @ List.filter (fun l -> l <> -v) !cls.(in_)
                         in
                         match norm r with
                         | None -> ()
                         | Some r ->
                             incr count;
                             resolvents := r :: !resolvents)
                       n)
                   p;
                 if !count <= np + nn then begin
                   let snapshot = List.map (fun i -> !cls.(i)) (p @ n) in
                   t.stack <- Eliminated (v, snapshot) :: t.stack;
                   incr eliminated;
                   incr removed;
                   value.(v) <- 2 (* gone: never reconsidered *);
                   List.iter (fun i -> !alive.(i) <- false) (p @ n);
                   List.iter push_clause !resolvents;
                   drain_units ();
                   changed := true
                 end
               end
             end
           done
         done;
         let out = ref [] in
         for idx = !n_cls - 1 downto 0 do
           if !alive.(idx) then out := !cls.(idx) :: !out
         done;
         (* root values of frozen variables travel as unit clauses *)
         for v = n_vars downto 1 do
           if frozen.(v) && (value.(v) = 1 || value.(v) = -1) then
             out := [ (if value.(v) = 1 then v else -v) ] :: !out
         done;
         let n_out = List.length !out in
         Metrics.add m_removed !removed;
         Metrics.add m_clauses_in n_in;
         Metrics.add m_clauses_out n_out;
         Metrics.add m_probe_units !probe_units;
         ( !out,
           {
             pp_clauses_in = n_in;
             pp_clauses_out = n_out;
             pp_removed_vars = !removed;
             pp_probe_units = !probe_units;
             pp_eliminated = !eliminated;
           } )
       with Unsat_found ->
         Metrics.add m_clauses_in n_in;
         ( [ [] ],
           {
             pp_clauses_in = n_in;
             pp_clauses_out = 1;
             pp_removed_vars = !removed;
             pp_probe_units = !probe_units;
             pp_eliminated = !eliminated;
           } )))

let extend t ~n_vars assign =
  let m = Array.make (n_vars + 1) false in
  for v = 1 to n_vars do
    m.(v) <- assign v
  done;
  let sat l = if l > 0 then m.(l) else not m.(-l) in
  List.iter
    (fun e ->
      match e with
      | Fixed (v, b) -> if v <= n_vars then m.(v) <- b
      | Eliminated (v, snapshot) ->
          if v <= n_vars then
            (* v must be true iff some clause with a positive occurrence
               is not already satisfied by its other literals *)
            m.(v) <-
              List.exists
                (fun c ->
                  List.mem v c
                  && not (List.exists (fun l -> abs l <> v && sat l) c))
                snapshot)
    t.stack;
  m
