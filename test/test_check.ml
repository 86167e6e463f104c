(* Tests for the static analyser: structural lint, vendor taint
   verification and rare-net trigger scoring, including the acceptance
   properties (clean elaborations are clean; seeded Trojans and the
   comparator-bypass mutant are flagged). *)

module Netlist = Thr_gates.Netlist
module Bus = Thr_gates.Bus
module Finding = Thr_check.Finding
module Lint = Thr_check.Lint
module Taint = Thr_check.Taint
module Prob = Thr_check.Prob
module Check = Thr_check.Check
module Rtl = Thr_runtime.Rtl
module Engine = Thr_runtime.Engine
module Spec = Thr_hls.Spec
module Copy = Thr_hls.Copy
module Binding = Thr_hls.Binding
module Design = Thr_hls.Design
module Trojan = Thr_trojan.Trojan
module Circuits = Thr_trojan.Circuits
module Eval = Thr_dfg.Eval
module Bmc = Thr_sat.Bmc
module Log = Thr_obs.Log

let rules fs = List.sort_uniq compare (List.map (fun f -> f.Finding.rule) fs)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let with_rule rule fs = List.filter (fun f -> f.Finding.rule = rule) fs

let blocking fs = List.filter Finding.is_blocking fs

(* ------------------------------ lint ------------------------------ *)

let test_lint_rules_fire () =
  let nl = Netlist.create ~name:"lint_fixture" in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let _floating = Netlist.input nl "floating" in
  let g = Netlist.and_ nl a b in
  let _dead = Netlist.or_ nl a b in
  let zero = Netlist.const nl false in
  let const_foldable = Netlist.and_ nl a zero in
  let equal_arms = Netlist.mux nl ~sel:b ~t0:g ~t1:g in
  let reachable_dff = Netlist.dff nl g in
  let unreachable = Netlist.dff nl a in
  let _unread = Netlist.dff nl unreachable in
  Netlist.output nl "o1" equal_arms;
  Netlist.output nl "o2" reachable_dff;
  Netlist.output nl "o3" const_foldable;
  Netlist.finalise nl;
  let fs = Lint.analyse nl in
  Alcotest.(check (list string))
    "every structural rule fires"
    [
      "const-foldable";
      "fanout";
      "floating-input";
      "mux-equal-arms";
      "unreachable-dff";
      "unused-net";
    ]
    (rules fs);
  Alcotest.(check int) "two dead nets" 2 (List.length (with_rule "unused-net" fs));
  Alcotest.(check bool) "findings block" true (List.exists Finding.is_blocking fs)

let test_lint_clean_netlist () =
  let nl = Netlist.create ~name:"clean" in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let g = Netlist.xor_ nl a b in
  let q = Netlist.dff nl g in
  Netlist.output nl "q" q;
  Netlist.finalise nl;
  let fs = Lint.analyse nl in
  Alcotest.(check (list string)) "stats only" [ "fanout" ] (rules fs);
  Alcotest.(check int) "nothing blocks" 0 (List.length (blocking fs))

let test_const_values () =
  let nl = Netlist.create ~name:"cv" in
  let a = Netlist.input nl "a" in
  let t = Netlist.const nl true in
  let n1 = Netlist.not_ nl t in
  let n2 = Netlist.or_ nl n1 a in
  let n3 = Netlist.or_ nl t a in
  Netlist.output nl "o2" n2;
  Netlist.output nl "o3" n3;
  Netlist.finalise nl;
  let cv = Lint.const_values nl in
  let at n = cv.(Netlist.net_index n) in
  Alcotest.(check (option bool)) "not 1 = 0" (Some false) (at n1);
  Alcotest.(check (option bool)) "0 or a unknown" None (at n2);
  Alcotest.(check (option bool)) "1 or a = 1" (Some true) (at n3)

(* ------------------------------ taint ----------------------------- *)

(* two "vendor" gates feeding a comparator, one guarded output, one
   unguarded output *)
let taint_fixture () =
  let nl = Netlist.create ~name:"taint_fixture" in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let v1 = Netlist.and_ nl a b in
  let v2 = Netlist.or_ nl a b in
  let cmp = Netlist.xor_ nl v1 v2 in
  let guarded = Netlist.mux nl ~sel:cmp ~t0:v1 ~t1:v2 in
  let unguarded = Netlist.not_ nl v1 in
  Netlist.output nl "mismatch" cmp;
  Netlist.output nl "good" guarded;
  Netlist.output nl "bad" unguarded;
  Netlist.finalise nl;
  let vendor_of n =
    if Netlist.net_index n = Netlist.net_index v1 then Some 1
    else if Netlist.net_index n = Netlist.net_index v2 then Some 2
    else None
  in
  (nl, cmp, v1, vendor_of)

let test_taint_propagation () =
  let nl, cmp, v1, vendor_of = taint_fixture () in
  let taint = Taint.propagate ~vendor_of nl in
  Alcotest.(check (list int)) "comparator sees both vendors" [ 1; 2 ]
    taint.(Netlist.net_index cmp);
  Alcotest.(check (list int)) "region label" [ 1 ] taint.(Netlist.net_index v1)

let test_taint_unguarded_output () =
  let nl, cmp, _, vendor_of = taint_fixture () in
  let fs, _ = Taint.analyse ~vendor_of ~mismatch:cmp nl in
  let errs = with_rule "unguarded-output" fs in
  Alcotest.(check int) "exactly one unguarded output" 1 (List.length errs);
  Alcotest.(check bool) "names the bad output" true
    (contains (List.hd errs).Finding.detail "output bad");
  Alcotest.(check int) "diversity satisfied" 0
    (List.length (with_rule "comparator-diversity" fs))

let test_taint_diversity () =
  let nl, cmp, _, vendor_of = taint_fixture () in
  let fs, _ = Taint.analyse ~vendor_of ~mismatch:cmp ~min_vendors:3 nl in
  Alcotest.(check int) "diversity violated at 3" 1
    (List.length (with_rule "comparator-diversity" fs))

(* The list-and-walk taint pass, kept as the oracle for Taint: sorted
   vendor lists iterated to a fixpoint, then one fan-in walk per output
   bit to decide whether the comparator guards it. *)
module Oracle = struct
  let union a b =
    let rec go a b =
      match (a, b) with
      | [], l | l, [] -> l
      | x :: xs, y :: ys ->
          if x < y then x :: go xs b
          else if y < x then y :: go a ys
          else x :: go xs ys
    in
    if a == b then a else go a b

  let propagate ~vendor_of nl =
    let taint = Array.make (Netlist.n_nets nl) [] in
    let get x = taint.(Netlist.net_index x) in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun net ->
          let i = Netlist.net_index net in
          let from_deps =
            match Netlist.driver nl net with
            | Netlist.D_input _ | Netlist.D_const _ -> []
            | Netlist.D_not a -> get a
            | Netlist.D_and (a, b)
            | Netlist.D_or (a, b)
            | Netlist.D_xor (a, b)
            | Netlist.D_nand (a, b)
            | Netlist.D_nor (a, b) ->
                union (get a) (get b)
            | Netlist.D_mux (s, a, b) -> union (get s) (union (get a) (get b))
            | Netlist.D_dff k -> get (Netlist.dff_data nl k)
          in
          let own = match vendor_of net with Some v -> [ v ] | None -> [] in
          let t = union own from_deps in
          if t <> taint.(i) then begin
            taint.(i) <- t;
            changed := true
          end)
        (Netlist.nets_in_order nl)
    done;
    taint

  let analyse ~vendor_of ~mismatch ?(min_vendors = 2) nl =
    let taint = propagate ~vendor_of nl in
    let get x = taint.(Netlist.net_index x) in
    let compared = Netlist.in_cone nl ~roots:[ mismatch ] () in
    let mi = Netlist.net_index mismatch in
    let findings = ref [] in
    let emit ~rule ?net detail =
      findings :=
        Finding.make ~pass:Finding.Taint ~severity:Finding.Error ~rule ?net
          detail
        :: !findings
    in
    (let cmp_taint = get mismatch in
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
          match get net with
          | [] -> ()
          | vendors ->
              let guarded =
                Netlist.fold_cone nl ~roots:[ net ]
                  (fun acc x -> acc || Netlist.net_index x = mi)
                  false
              in
              if not (compared.(i) || guarded) then
                emit ~rule:"unguarded-output" ~net
                  (Printf.sprintf
                     "output %s carries data from vendor(s) %s but is \
                      neither observed nor guarded by the mismatch comparator"
                     name
                     (String.concat "," (List.map string_of_int vendors))))
      (Netlist.outputs nl);
    (List.sort Finding.compare !findings, taint)
end

let same_as_oracle ~vendor_of ~mismatch ?min_vendors nl =
  let fs, labels = Taint.analyse ~vendor_of ~mismatch ?min_vendors nl in
  let ofs, olabels = Oracle.analyse ~vendor_of ~mismatch ?min_vendors nl in
  fs = ofs && labels = olabels
  && Taint.propagate ~vendor_of nl = olabels

(* A random finalised netlist with register feedback: [n_regs] DFFs whose
   outputs are usable from the start and whose data inputs are picked
   among every net built, muxes among the gates, a random [mismatch]
   net, a handful of named outputs and a random vendor per net.  A wide
   palette draws vendor ids from [0, 200), so more than 62 distinct
   vendors (and so more than one label word) turn up on larger
   netlists; a narrow one mixes a few ids including 70 and 130. *)
let random_taint_case seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let nl = Netlist.create ~name:"taint_rand" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  let n_regs = int 6 and n_gates = 1 + int 160 in
  let all = ref [||] in
  let _qs =
    Netlist.dff_loop_many nl ~inits:(Array.make n_regs false) (fun qs ->
        let nets = ref (Array.append [| a; b |] qs) in
        let pick () = !nets.(int (Array.length !nets)) in
        for _ = 1 to n_gates do
          let x = pick () and y = pick () in
          let g =
            match int 9 with
            | 0 -> Netlist.and_ nl x y
            | 1 -> Netlist.or_ nl x y
            | 2 -> Netlist.xor_ nl x y
            | 3 -> Netlist.nand_ nl x y
            | 4 -> Netlist.nor_ nl x y
            | 5 -> Netlist.not_ nl x
            | 6 | 7 -> Netlist.mux nl ~sel:x ~t0:y ~t1:(pick ())
            | _ -> Netlist.dff nl x
          in
          nets := Array.append !nets [| g |]
        done;
        all := !nets;
        Array.map (fun _ -> pick ()) qs)
  in
  let pick () = !all.(int (Array.length !all)) in
  for k = 0 to int 8 do
    Netlist.output nl (Printf.sprintf "o%d" k) (pick ())
  done;
  let mismatch = pick () in
  if int 3 = 0 then Netlist.output nl "mismatch" mismatch;
  Netlist.finalise nl;
  let wide = int 2 = 0 in
  let narrow = [| 0; 1; 2; 70; 130 |] in
  let vendors =
    Array.init (Netlist.n_nets nl) (fun _ ->
        if wide then (if int 4 = 0 then None else Some (int 200))
        else if int 3 = 0 then Some narrow.(int (Array.length narrow))
        else None)
  in
  let vendor_of n = vendors.(Netlist.net_index n) in
  (nl, mismatch, vendor_of, 1 + int 3)

let taint_matches_oracle =
  QCheck.Test.make ~name:"bitset taint = list-and-walk oracle" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let nl, mismatch, vendor_of, min_vendors = random_taint_case seed in
      same_as_oracle ~vendor_of ~mismatch ~min_vendors nl)

(* A chain through [n] vendor regions: net k belongs to vendor k, the
   comparator reads the chain's end and one output escapes it.  Around
   62/63 and 125/126 distinct vendors the label (vendors plus the
   comparator bit) spills into one more word. *)
let test_taint_word_boundaries () =
  List.iter
    (fun n ->
      let nl = Netlist.create ~name:"taint_chain" in
      let x = Netlist.input nl "x" in
      let chain = Array.make n x in
      for k = 1 to n - 1 do
        chain.(k) <- Netlist.xor_ nl chain.(k - 1) x
      done;
      let cmp = Netlist.not_ nl chain.(n - 1) in
      let q = Netlist.dff nl (Netlist.and_ nl cmp chain.(n / 2)) in
      Netlist.output nl "mismatch" cmp;
      Netlist.output nl "guarded" q;
      Netlist.output nl "escape" (Netlist.and_ nl chain.(n - 1) x);
      Netlist.finalise nl;
      let vendor_of net =
        let i = Netlist.net_index net in
        if i < n then Some (3 * i) else None
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d vendors match the oracle" n)
        true
        (same_as_oracle ~vendor_of ~mismatch:cmp nl);
      Alcotest.(check int)
        (Printf.sprintf "%d vendors reach the comparator" n)
        n
        (List.length (Taint.propagate ~vendor_of nl).(Netlist.net_index cmp)))
    [ 1; 2; 61; 62; 63; 64; 125; 126; 127; 200 ]

(* ------------------------------ rare ------------------------------ *)

let test_prob_model () =
  let nl = Netlist.create ~name:"prob" in
  let a = Netlist.input nl "a" in
  let b = Netlist.input nl "b" in
  let g_and = Netlist.and_ nl a b in
  let g_or = Netlist.or_ nl a b in
  let g_not = Netlist.not_ nl a in
  Netlist.output nl "o1" g_and;
  Netlist.output nl "o2" g_or;
  Netlist.output nl "o3" g_not;
  Netlist.finalise nl;
  let p = Prob.signal_probabilities nl in
  let at n = p.(Netlist.net_index n) in
  Alcotest.(check (float 1e-9)) "and" 0.25 (at g_and);
  Alcotest.(check (float 1e-9)) "or" 0.75 (at g_or);
  Alcotest.(check (float 1e-9)) "not" 0.5 (at g_not)

let test_prob_counter_converges () =
  (* a free-running counter's bits must not oscillate to activation 0 *)
  let nl = Netlist.create ~name:"ctr" in
  let c = Bus.counter nl ~width:4 ~enable:(Netlist.const nl true) in
  Netlist.output nl "hit" (Bus.eq_const nl c 11);
  Netlist.finalise nl;
  let fs, p = Prob.analyse nl in
  Alcotest.(check int) "no rare nets in a counter" 0
    (List.length (with_rule "rare-net" fs));
  Alcotest.(check bool) "low bit near 0.5" true
    (Float.abs (p.(Netlist.net_index c.(0)) -. 0.5) < 0.01)

(* Prob.empirical claims estimates that do not depend on [jobs] or on
   how vectors are packed into strips.  A sequential netlist over ~1100
   vectors spans several strips; sharded and single-domain runs must
   agree exactly, and both must equal a per-vector scalar Sim count
   drawn from the same split generators. *)
let test_empirical_matches_scalar () =
  let nl = Netlist.create ~name:"emp" in
  let a = Netlist.input nl "a" and b = Netlist.input nl "b" in
  let en = Netlist.input nl "en" in
  let c = Bus.counter nl ~width:3 ~enable:en in
  let q = Netlist.dff nl ~init:true (Netlist.xor_ nl a (Netlist.and_ nl b c.(1))) in
  Netlist.output nl "o" (Netlist.mux nl ~sel:q ~t0:(Netlist.nor_ nl a b) ~t1:c.(2));
  Netlist.output nl "hit" (Bus.eq_const nl c 5);
  Netlist.finalise nl;
  let seed = 0x5eed and vectors = 1100 and cycles = 5 in
  let p1 = Prob.empirical ~cycles ~jobs:1 ~seed ~vectors nl in
  let p3 = Prob.empirical ~cycles ~jobs:3 ~seed ~vectors nl in
  Alcotest.(check bool) "jobs 1 = jobs 3" true (p1 = p3);
  let module Sim = Thr_gates.Sim in
  let module Prng = Thr_util.Prng in
  let names = Netlist.input_names nl in
  let nets = Netlist.nets_in_order nl in
  let counts = Array.make (Netlist.n_nets nl) 0 in
  let prng = Prng.create ~seed in
  let sim = Sim.create nl in
  for _ = 1 to vectors do
    let g = Prng.split prng in
    Sim.reset sim;
    for _ = 1 to cycles do
      List.iter (fun nm -> Sim.set_input sim nm (Prng.bool g)) names;
      Sim.clock sim;
      Array.iter
        (fun net ->
          if Sim.peek sim net then
            let i = Netlist.net_index net in
            counts.(i) <- counts.(i) + 1)
        nets
    done
  done;
  let samples = float_of_int (vectors * cycles) in
  let scalar = Array.map (fun c -> float_of_int c /. samples) counts in
  Alcotest.(check (array (float 0.0))) "strips = scalar Sim" scalar p1

(* The per-net, option-tagged signal-probability sweep as it stood
   before the tape kernel: every full-netlist sweep matches on
   [Netlist.driver], and every conditional target re-runs the whole
   sweep on copies of [p] and [tags].  Kept verbatim as the oracle the
   kernel must equal bit for bit. *)
module Prob_oracle = struct
  type tag = { lit : int; pos : bool; residual : float }

  let signal_probabilities ?(iters = Prob.default_iters) nl =
    let n = Netlist.n_nets nl in
    let p = Array.make n 0.5 in
    let tags : tag option array = Array.make n None in
    let order = Netlist.nets_in_order nl in
    let clamp v = Float.max 0.0 (Float.min 1.0 v) in
    let sweep ?pin p (tags : tag option array) =
      let get x = p.(Netlist.net_index x) in
      let plit l pos = if pos then p.(l) else 1.0 -. p.(l) in
      let desc x =
        let i = Netlist.net_index x in
        let t =
          match tags.(i) with
          | Some t -> t
          | None -> (
              match Netlist.driver nl x with
              | Netlist.D_not a ->
                  { lit = Netlist.net_index a; pos = false; residual = 1.0 }
              | _ -> { lit = i; pos = true; residual = 1.0 })
        in
        (p.(i), t)
      in
      let and_desc (pa, a) (pb, b) =
        if a.lit = b.lit && a.pos = b.pos then
          let r = a.residual *. b.residual in
          (plit a.lit a.pos *. r, Some { a with residual = r })
        else if a.lit = b.lit then (0.0, None)
        else
          let tag =
            if plit a.lit a.pos <= plit b.lit b.pos then
              { a with residual = a.residual *. pb }
            else { b with residual = b.residual *. pa }
          in
          (pa *. pb, Some tag)
      in
      let or_desc (pa, a) (pb, b) =
        if a.lit = b.lit && a.pos = b.pos then
          let r = a.residual +. b.residual -. (a.residual *. b.residual) in
          (plit a.lit a.pos *. r, Some { a with residual = r })
        else if a.lit = b.lit then
          ( (plit a.lit a.pos *. a.residual) +. (plit b.lit b.pos *. b.residual),
            None )
        else (1.0 -. ((1.0 -. pa) *. (1.0 -. pb)), None)
      in
      let xor_desc (pa, a) (pb, b) =
        if a.lit = b.lit && a.pos = b.pos then
          let r =
            a.residual +. b.residual -. (2.0 *. a.residual *. b.residual)
          in
          (plit a.lit a.pos *. r, Some { a with residual = r })
        else if a.lit = b.lit then
          ( (plit a.lit a.pos *. a.residual) +. (plit b.lit b.pos *. b.residual),
            None )
        else ((pa *. (1.0 -. pb)) +. (pb *. (1.0 -. pa)), None)
      in
      let lit_desc x pos =
        let px = get x in
        ( (if pos then px else 1.0 -. px),
          { lit = Netlist.net_index x; pos; residual = 1.0 } )
      in
      let mux_desc s t0 t1 =
        match (Netlist.driver nl t0, Netlist.driver nl t1) with
        | Netlist.D_const false, _ -> and_desc (lit_desc s true) (desc t1)
        | _, Netlist.D_const false -> and_desc (lit_desc s false) (desc t0)
        | Netlist.D_const true, _ -> or_desc (lit_desc s false) (desc t1)
        | _, Netlist.D_const true -> or_desc (lit_desc s true) (desc t0)
        | _ ->
            let ps = get s in
            let (p0, a) = desc t0 and (p1, b) = desc t1 in
            if a.lit = b.lit && a.pos = b.pos then
              if a.lit = Netlist.net_index s then
                if a.pos then
                  (ps *. b.residual, Some { b with residual = b.residual })
                else ((1.0 -. ps) *. a.residual, Some a)
              else
                let r = ((1.0 -. ps) *. a.residual) +. (ps *. b.residual) in
                (plit a.lit a.pos *. r, Some { a with residual = r })
            else (((1.0 -. ps) *. p0) +. (ps *. p1), None)
      in
      let pinned i = match pin with Some j -> i = j | None -> false in
      Array.iter
        (fun net ->
          let i = Netlist.net_index net in
          if not (pinned i) then begin
            let v, tag =
              match Netlist.driver nl net with
              | Netlist.D_input _ -> (0.5, None)
              | Netlist.D_const b -> ((if b then 1.0 else 0.0), None)
              | Netlist.D_dff _ -> (p.(i), None)
              | Netlist.D_not a -> (1.0 -. get a, None)
              | Netlist.D_and (a, b) -> and_desc (desc a) (desc b)
              | Netlist.D_or (a, b) -> or_desc (desc a) (desc b)
              | Netlist.D_nand (a, b) ->
                  let pv, _ = and_desc (desc a) (desc b) in
                  (1.0 -. pv, None)
              | Netlist.D_nor (a, b) ->
                  let pv, _ = or_desc (desc a) (desc b) in
                  (1.0 -. pv, None)
              | Netlist.D_xor (a, b) -> xor_desc (desc a) (desc b)
              | Netlist.D_mux (s, a, b) -> mux_desc s a b
            in
            p.(i) <- clamp v;
            tags.(i) <- tag
          end)
        order
    in
    Array.iter
      (fun net ->
        match Netlist.driver nl net with
        | Netlist.D_dff k ->
            p.(Netlist.net_index net) <-
              (if Netlist.dff_init nl k then 1.0 else 0.0)
        | _ -> ())
      order;
    let cond_targets = Hashtbl.create 7 in
    let cond_prob en pos x =
      let key = (Netlist.net_index en, pos) in
      let pc =
        match Hashtbl.find_opt cond_targets key with
        | Some pc -> pc
        | None ->
            let pc = Array.copy p in
            let tc = Array.copy tags in
            let i = Netlist.net_index en in
            pc.(i) <- (if pos then 1.0 else 0.0);
            tc.(i) <- None;
            sweep ~pin:i pc tc;
            Hashtbl.add cond_targets key pc;
            pc
      in
      pc.(Netlist.net_index x)
    in
    for _round = 1 to iters do
      sweep p tags;
      Hashtbl.reset cond_targets;
      Array.iter
        (fun net ->
          match Netlist.driver nl net with
          | Netlist.D_dff k ->
              let i = Netlist.net_index net in
              let data = Netlist.dff_data nl k in
              let target =
                match Netlist.driver nl data with
                | Netlist.D_mux (s, t0, t1) when Netlist.net_index t0 = i ->
                    cond_prob s true t1
                | Netlist.D_mux (s, t0, t1) when Netlist.net_index t1 = i ->
                    cond_prob s false t0
                | _ -> p.(Netlist.net_index data)
              in
              p.(i) <- 0.5 *. (p.(i) +. target)
          | _ -> ())
        order
    done;
    sweep p tags;
    p
end

(* [None] when [Prob.signal_probabilities] equals the oracle on every
   net bit for bit, else the first differing net and both values. *)
let prob_oracle_mismatch ?iters nl =
  let got = Prob.signal_probabilities ?iters nl in
  let want = Prob_oracle.signal_probabilities ?iters nl in
  let bad = ref None in
  Array.iteri
    (fun i w ->
      if !bad = None && Int64.bits_of_float got.(i) <> Int64.bits_of_float w
      then bad := Some (i, got.(i), w))
    want;
  !bad

let show_prob_mismatch = function
  | None -> "bit-identical"
  | Some (i, g, w) -> Printf.sprintf "net %d: %h, oracle %h" i g w

(* A random finalised netlist shaped like an elaborated datapath's
   register file: hold-mux registers of both polarities
   ([mux en q new] and [mux en new q]) drawing their enables from a
   small shared pool (inputs, constants, NOT nets, DFF outputs and
   arbitrary gates, so several registers share one conditional key and
   an enable may be a register itself), plain registers, registers of
   registers, loose DFFs among the gates, and mux arms that are
   constants (the [and]/[or] special cases). *)
let random_prob_case seed =
  let st = Random.State.make [| seed |] in
  let int n = Random.State.int st n in
  let nl = Netlist.create ~name:"prob_rand" in
  let ins =
    Array.init (1 + int 4) (fun k -> Netlist.input nl (Printf.sprintf "i%d" k))
  in
  let consts = [| Netlist.const nl false; Netlist.const nl true |] in
  let n_regs = 1 + int 10 and n_gates = int 90 in
  let all = ref [||] in
  let _qs =
    Netlist.dff_loop_many nl
      ~inits:(Array.init n_regs (fun _ -> int 2 = 0))
      (fun qs ->
        let nets = ref (Array.concat [ ins; consts; qs ]) in
        let pick () = !nets.(int (Array.length !nets)) in
        let arm () = if int 4 = 0 then consts.(int 2) else pick () in
        let add g =
          nets := Array.append !nets [| g |];
          g
        in
        for _ = 1 to n_gates do
          let x = pick () and y = pick () in
          ignore
            (add
               (match int 10 with
               | 0 -> Netlist.and_ nl x y
               | 1 -> Netlist.or_ nl x y
               | 2 -> Netlist.xor_ nl x y
               | 3 -> Netlist.nand_ nl x y
               | 4 -> Netlist.nor_ nl x y
               | 5 -> Netlist.not_ nl x
               | 6 | 7 -> Netlist.mux nl ~sel:x ~t0:(arm ()) ~t1:(arm ())
               | 8 -> Netlist.dff nl ~init:(int 2 = 0) x
               | _ -> Netlist.and_ nl x (Netlist.not_ nl y)))
        done;
        let enables =
          Array.init
            (1 + int 3)
            (fun _ ->
              match int 5 with
              | 0 -> ins.(int (Array.length ins))
              | 1 -> consts.(int 2)
              | 2 -> add (Netlist.not_ nl (pick ()))
              | 3 -> qs.(int n_regs)
              | _ -> pick ())
        in
        all := !nets;
        Array.map
          (fun q ->
            let en = enables.(int (Array.length enables)) in
            match int 5 with
            | 0 -> pick ()
            | 1 -> qs.(int n_regs)
            | 2 | 3 -> Netlist.mux nl ~sel:en ~t0:q ~t1:(arm ())
            | _ -> Netlist.mux nl ~sel:en ~t0:(arm ()) ~t1:q)
          qs)
  in
  for k = 0 to int 4 do
    Netlist.output nl (Printf.sprintf "o%d" k) !all.(int (Array.length !all))
  done;
  Netlist.finalise nl;
  nl

let prob_matches_oracle =
  QCheck.Test.make ~name:"tape kernel = per-net sweep oracle (bits)" ~count:2000
    QCheck.(pair (int_bound 1_000_000) (int_range 0 30))
    (fun (seed, iters) ->
      let nl = random_prob_case seed in
      match prob_oracle_mismatch ~iters nl with
      | None -> true
      | m -> QCheck.Test.fail_report (show_prob_mismatch m))

let seeded_harnesses () =
  [
    ( "fig2a",
      Circuits.fig2a ~width:16 ~a_pattern:0xDEAD ~b_pattern:0xBEEF
        ~mask:0xFFFF ~payload_mask:0x8 );
    ( "fig2b",
      Circuits.fig2b ~width:16 ~a_pattern:0xCAFE ~b_pattern:0x1234
        ~mask:0xFFFF ~threshold:2 ~payload_mask:0x8 );
    ( "fig3",
      Circuits.fig3 ~width:16 ~a_pattern:0xDEAD ~b_pattern:0xBEEF
        ~mask:0xFFFF ~payload_mask:0x8 );
  ]

let test_rare_flags_seeded_trojans () =
  List.iter
    (fun (name, h) ->
      Netlist.finalise h.Circuits.netlist;
      let fs, p = Prob.analyse h.Circuits.netlist in
      let flagged =
        List.filter_map (fun f -> f.Finding.net) (with_rule "rare-net" fs)
      in
      Alcotest.(check bool)
        (name ^ " trigger net flagged")
        true
        (List.mem (Netlist.net_index h.Circuits.trigger_net) flagged);
      let pt = p.(Netlist.net_index h.Circuits.trigger_net) in
      Alcotest.(check bool)
        (name ^ " trigger probability tiny")
        true
        (Float.min pt (1.0 -. pt) < Prob.default_threshold))
    (seeded_harnesses ())

(* --------------------- elaborated designs ------------------------- *)

let design_for ?mode name catalog l_det l_rec area =
  let dfg = Option.get (Thr_benchmarks.Suite.find name) in
  let spec =
    Spec.make ?mode ~dfg ~catalog ~latency_detect:l_det ~latency_recover:l_rec
      ~area_limit:area ()
  in
  match Thr_opt.License_search.search spec with
  | Thr_opt.License_search.Solved { design; _ }, _ -> design
  | _ -> Alcotest.fail ("no design for " ^ name)

let clean_designs () =
  [
    ("motivational", design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000);
    ("diff2", design_for "diff2" Thr_iplib.Catalog.eight_vendors 5 4 80_000);
    ( "motivational-detection-only",
      design_for ~mode:Spec.Detection_only "motivational"
        Thr_iplib.Catalog.table1 4 3 40_000 );
  ]

let test_clean_elaborations_are_clean () =
  List.iter
    (fun (name, design) ->
      let rtl = Rtl.elaborate ~width:16 design in
      let report = Rtl.check rtl in
      let bad = blocking report.Check.findings in
      List.iter (fun f -> Printf.printf "%s: %s\n" name (Format.asprintf "%a" Finding.pp f)) bad;
      Alcotest.(check int) (name ^ " has no blocking findings") 0 (List.length bad);
      Alcotest.(check bool) (name ^ " is clean") true (Check.clean report);
      Alcotest.(check int)
        (name ^ " has zero trigger candidates")
        0
        (List.length (with_rule "rare-net" report.Check.findings)))
    (clean_designs ())

let injection_for design op =
  let nc = Copy.index design.Design.spec { Copy.op; phase = Copy.NC } in
  {
    Engine.inj_vendor = Binding.vendor design.Design.binding nc;
    inj_type = Spec.iptype_of_op design.Design.spec op;
    trojan =
      Trojan.make
        (Trojan.Combinational
           { a_pattern = 0xDEAD; b_pattern = 0xBEEF; mask = 0xFFFF })
        (Trojan.Xor_offset 0xFF);
  }

let test_rare_flags_rtl_injection () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 ~injections:[ injection_for design 4 ] design in
  let report = Rtl.check rtl in
  Alcotest.(check bool) "trigger candidates found" true
    (with_rule "rare-net" report.Check.findings <> []);
  Alcotest.(check bool) "not clean" false (Check.clean report)

let test_taint_flags_comparator_bypass () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 ~seeded_bug:Rtl.Comparator_skip design in
  let report = Rtl.check rtl in
  let errs = Check.errors report in
  Alcotest.(check bool) "taint errors reported" true (errs <> []);
  Alcotest.(check bool) "an output is unguarded" true
    (with_rule "unguarded-output" errs <> []);
  Alcotest.(check bool) "exit code is Lint" true
    (Check.exit_code report = Thr_util.Exit_code.Lint)

let test_elab_assertion_catches_bypass () =
  (* the post-elaboration assertion itself must reject the mutant when it
     is not explicitly seeded (simulate by running taint on the mutant) *)
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 ~seeded_bug:Rtl.Comparator_skip design in
  let fs, _ =
    Taint.analyse
      ~vendor_of:(Rtl.vendor_of rtl)
      ~mismatch:rtl.Rtl.mismatch rtl.Rtl.netlist
  in
  Alcotest.(check bool) "assertion condition trips" true
    (List.exists (fun f -> f.Finding.severity = Finding.Error) fs)

(* Every paper benchmark, solved on the eight-vendor catalog with one
   step of detection slack and generous area. *)
let benchmark_designs () =
  List.map
    (fun (name, dfg) ->
      let cp = Thr_dfg.Dfg.critical_path dfg in
      let spec =
        Spec.make ~dfg ~catalog:Thr_iplib.Catalog.eight_vendors
          ~latency_detect:(cp + 1) ~latency_recover:cp ~area_limit:400_000 ()
      in
      match Thr_opt.License_search.search spec with
      | Thr_opt.License_search.Solved { design; _ }, _ -> (name, dfg, design)
      | _ -> Alcotest.fail ("no design for " ^ name))
    (Thr_benchmarks.Suite.all ())

(* A design elaborated clean, with each canned Trojan and with the
   comparator bypass — the variants [thls lint --mutant] builds. *)
let canned_variants ~w design =
  [
    ("clean", Rtl.elaborate ~width:w design);
    ( "trojan",
      Rtl.elaborate ~width:w
        ~injections:[ Rtl.canned_injection ~width:w design ]
        design );
    ( "trojan-seq",
      Rtl.elaborate ~width:w
        ~injections:[ Rtl.canned_sequential_injection ~width:w design ]
        design );
    ( "dud",
      Rtl.elaborate ~width:w
        ~injections:[ Rtl.canned_dud_injection ~width:w design ]
        design );
    ("bypass", Rtl.elaborate ~width:w ~seeded_bug:Rtl.Comparator_skip design);
  ]

(* Every paper benchmark, elaborated clean, with each canned Trojan, with
   the comparator bypass and with the gated zoo that fault simulation
   arms: the taint pass gives exactly the oracle's findings and labels,
   and only the bypass has an unguarded output. *)
let test_taint_oracle_on_benchmarks () =
  List.iter
    (fun (name, dfg, design) ->
      let spec = design.Design.spec in
      let op = List.hd (Thr_dfg.Dfg.outputs dfg) in
      let nc = Copy.index spec { Copy.op; phase = Copy.NC } in
      let gated_injections =
        List.map
          (fun (nm, trojan) ->
            ( "mut_" ^ nm,
              {
                Engine.inj_vendor = Binding.vendor design.Design.binding nc;
                inj_type = Spec.iptype_of_op spec op;
                trojan;
              } ))
          (Trojan.zoo ~a_pattern:0x1234 ~b_pattern:0x00FF ~mask:0xFFFF)
      in
      let w = 16 in
      List.iter
        (fun (variant, rtl) ->
          let label = name ^ "/" ^ variant in
          let vendor_of = Rtl.vendor_of rtl and mismatch = rtl.Rtl.mismatch in
          let nl = rtl.Rtl.netlist in
          Alcotest.(check bool) (label ^ " matches the oracle") true
            (same_as_oracle ~vendor_of ~mismatch ~min_vendors:2 nl);
          let fs, _ = Taint.analyse ~vendor_of ~mismatch nl in
          Alcotest.(check bool)
            (label ^ " unguarded iff bypassed")
            (variant = "bypass")
            (with_rule "unguarded-output" fs <> []))
        (canned_variants ~w design
        @ [ ("zoo", Rtl.elaborate ~width:w ~gated_injections design) ]))
    (benchmark_designs ())

(* Rare-net scoring on every paper benchmark and lint mutant — the
   netlists whose hold-mux registers share step enables — equals the
   per-net sweep oracle on every net, bit for bit. *)
let test_prob_oracle_on_benchmarks () =
  List.iter
    (fun (name, _, design) ->
      List.iter
        (fun (variant, rtl) ->
          Alcotest.(check string)
            (name ^ "/" ^ variant ^ " probabilities")
            "bit-identical"
            (show_prob_mismatch (prob_oracle_mismatch rtl.Rtl.netlist)))
        (canned_variants ~w:16 design))
    (benchmark_designs ())

(* ------------------------------ prove ----------------------------- *)

let prove_stats report =
  match report.Check.prove with
  | Some s -> s
  | None -> Alcotest.fail "report carries no prove stats"

let test_prove_clean_design () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 design in
  let report = Rtl.check ~prove:8 rtl in
  let s = prove_stats report in
  Alcotest.(check bool) "still clean" true (Check.clean report);
  Alcotest.(check bool) "exit Ok" true
    (Check.exit_code report = Thr_util.Exit_code.Ok);
  Alcotest.(check int) "no candidates" 0 s.Check.prove_candidates;
  Alcotest.(check int) "bound recorded" 8 s.Check.prove_bound

let test_prove_seq_injection () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl =
    Rtl.elaborate ~width:16
      ~injections:[ Rtl.canned_sequential_injection ~width:16 design ]
      design
  in
  let report = Rtl.check ~prove:8 rtl in
  let s = prove_stats report in
  let proved = with_rule "proved-reachable" report.Check.findings in
  Alcotest.(check bool) "candidates found" true (s.Check.prove_candidates > 0);
  Alcotest.(check int) "every candidate proved reachable"
    s.Check.prove_candidates s.Check.prove_reachable;
  Alcotest.(check int) "no replay failures" 0 s.Check.prove_replay_failed;
  Alcotest.(check bool) "escalated to errors" true
    (proved <> []
    && List.for_all (fun f -> f.Finding.severity = Finding.Error) proved);
  Alcotest.(check bool) "witness text carries a cycle" true
    (List.for_all (fun f -> contains f.Finding.detail "cycle") proved);
  Alcotest.(check bool) "exit code is Lint" true
    (Check.exit_code report = Thr_util.Exit_code.Lint)

let test_prove_budget_inconclusive () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl =
    Rtl.elaborate ~width:16
      ~injections:[ Rtl.canned_sequential_injection ~width:16 design ]
      design
  in
  let report = Rtl.check ~prove:8 ~prove_budget:1 rtl in
  let s = prove_stats report in
  Alcotest.(check int) "every candidate inconclusive" s.Check.prove_candidates
    s.Check.prove_inconclusive;
  Alcotest.(check int) "nothing proved" 0 s.Check.prove_reachable;
  Alcotest.(check bool) "rare-inconclusive warnings remain" true
    (with_rule "rare-inconclusive" report.Check.findings <> []);
  Alcotest.(check bool) "exit code is Inconclusive" true
    (Check.exit_code report = Thr_util.Exit_code.Inconclusive)

let test_prove_dud_certified () =
  (* the decoy injection scores rare but its trigger is structurally
     unsatisfiable: --prove must discharge every candidate with an
     unbounded certificate and leave the design clean *)
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl =
    Rtl.elaborate ~width:16
      ~injections:[ Rtl.canned_dud_injection ~width:16 design ]
      design
  in
  let report = Rtl.check ~prove:8 rtl in
  let s = prove_stats report in
  let certs = with_rule "unreachable-unbounded" report.Check.findings in
  Alcotest.(check bool) "candidates found" true (s.Check.prove_candidates > 0);
  Alcotest.(check int) "every candidate certified" s.Check.prove_candidates
    s.Check.prove_certified;
  Alcotest.(check int) "none inconclusive" 0 s.Check.prove_inconclusive;
  Alcotest.(check int) "one certificate finding per candidate"
    s.Check.prove_candidates (List.length certs);
  Alcotest.(check bool) "certificates name their method" true
    (List.for_all
       (fun f ->
         contains f.Finding.detail "k-induction"
         || contains f.Finding.detail "combinational")
       certs);
  Alcotest.(check bool) "still clean" true (Check.clean report);
  Alcotest.(check bool) "exit Ok" true
    (Check.exit_code report = Thr_util.Exit_code.Ok)

let test_prove_replay_gate () =
  (* a prover that fabricates witnesses must not produce errors: the
     packed-simulator replay gate downgrades them and logs the bug *)
  let h =
    Circuits.fig2b ~width:16 ~a_pattern:0xCAFE ~b_pattern:0x1234 ~mask:0xFFFF
      ~threshold:2 ~payload_mask:0x8
  in
  let nl = h.Circuits.netlist in
  Netlist.finalise nl;
  let bogus ~net ~value =
    Bmc.Reachable
      { Bmc.w_target = net; w_value = value; w_cycle = 1; w_inputs = [| [] |] }
  in
  let logged = Buffer.create 256 in
  Log.set_sink (Some (fun line -> Buffer.add_string logged line));
  let report =
    Fun.protect
      ~finally:(fun () -> Log.set_sink None)
      (fun () -> Check.run ~prove:8 ~prover:bogus nl)
  in
  let s = prove_stats report in
  Alcotest.(check bool) "replay failures counted" true
    (s.Check.prove_replay_failed > 0);
  Alcotest.(check bool) "mismatch findings reported" true
    (with_rule "witness-replay-mismatch" report.Check.findings <> []);
  Alcotest.(check bool) "rare warnings survive the downgrade" true
    (with_rule "rare-net" report.Check.findings <> []);
  Alcotest.(check bool) "replay bug logged" true
    (contains (Buffer.contents logged) "witness_replay_mismatch")

(* --------------------------- reporting ---------------------------- *)

let test_report_json_and_render () =
  let design = design_for "motivational" Thr_iplib.Catalog.table1 4 3 40_000 in
  let rtl = Rtl.elaborate ~width:16 design in
  let report = Rtl.check rtl in
  let json = Check.to_json report in
  Alcotest.(check (option bool)) "clean in json" (Some true)
    (Thr_util.Json.mem_bool "clean" json);
  Alcotest.(check bool) "render mentions verdict" true
    (contains (Check.render report) "clean")

let () =
  Alcotest.run "check"
    [
      ( "lint",
        [
          Alcotest.test_case "all rules fire" `Quick test_lint_rules_fire;
          Alcotest.test_case "clean netlist" `Quick test_lint_clean_netlist;
          Alcotest.test_case "const values" `Quick test_const_values;
        ] );
      ( "taint",
        [
          Alcotest.test_case "propagation" `Quick test_taint_propagation;
          Alcotest.test_case "unguarded output" `Quick test_taint_unguarded_output;
          Alcotest.test_case "diversity" `Quick test_taint_diversity;
          Alcotest.test_case "label word boundaries" `Quick
            test_taint_word_boundaries;
          QCheck_alcotest.to_alcotest taint_matches_oracle;
        ] );
      ( "rare",
        [
          Alcotest.test_case "probability model" `Quick test_prob_model;
          Alcotest.test_case "counter converges" `Quick test_prob_counter_converges;
          Alcotest.test_case "flags seeded trojans" `Quick test_rare_flags_seeded_trojans;
          Alcotest.test_case "empirical = scalar Sim (any jobs)" `Quick
            test_empirical_matches_scalar;
          QCheck_alcotest.to_alcotest prob_matches_oracle;
          Alcotest.test_case "oracle on benchmarks x mutants" `Quick
            test_prob_oracle_on_benchmarks;
        ] );
      ( "elaborations",
        [
          Alcotest.test_case "clean designs are clean" `Quick
            test_clean_elaborations_are_clean;
          Alcotest.test_case "rtl injection flagged" `Quick
            test_rare_flags_rtl_injection;
          Alcotest.test_case "comparator bypass flagged" `Quick
            test_taint_flags_comparator_bypass;
          Alcotest.test_case "elab assertion trips" `Quick
            test_elab_assertion_catches_bypass;
          Alcotest.test_case "taint = oracle on benchmarks x mutants" `Quick
            test_taint_oracle_on_benchmarks;
        ] );
      ( "prove",
        [
          Alcotest.test_case "clean design certifies" `Quick
            test_prove_clean_design;
          Alcotest.test_case "sequential injection proved" `Quick
            test_prove_seq_injection;
          Alcotest.test_case "budget starves to inconclusive" `Quick
            test_prove_budget_inconclusive;
          Alcotest.test_case "decoy injection certified unreachable" `Quick
            test_prove_dud_certified;
          Alcotest.test_case "replay gate rejects fabricated witnesses" `Quick
            test_prove_replay_gate;
        ] );
      ( "report",
        [
          Alcotest.test_case "json and render" `Quick test_report_json_and_render;
        ] );
    ]
