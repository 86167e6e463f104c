module Netlist = Thr_gates.Netlist
module Packed = Thr_gates.Packed
module Prng = Thr_util.Prng

(* Calibrated between the two populations this repo elaborates: a
   full-width trigger condition (>= 32 specified pattern bits) scores
   <= 2^-32 ~ 2.3e-10, and a set-only trigger latch fed by it (Fig. 3)
   accumulates to ~(iters/2) * 2^-32 ~ 3e-9, while a clean design's
   rarest logic — wide equality comparators and time-multiplexed
   arithmetic cones — stays above ~3e-7 under the select-conditioned
   model below. *)
let default_threshold = 1e-8

let default_iters = 24

(* Plain independence scoring has a fatal blind spot on time-multiplexed
   datapaths: every gate in a shared core's cone is gated by the same
   step-select net (operand muxes [mux sel 0 x]), and treating those
   gates as independent multiplies the select's probability back in at
   every meet — a 16-bit multiplier's carry chain compounds [p(sel)^k]
   and lands below any trigger threshold.  To kill that false-positive
   class each net carries, besides its probability, at most one
   {e conditioning literal}: a [(net, polarity, residual)] triple
   meaning "this net computes [lit AND x] where [P(x) = residual]".
   When two nets conditioned on the same literal meet at a gate, the
   literal's probability is paid once and only the residuals combine;
   different or absent literals fall back to independence.  A net with
   no stored tag acts as its own literal (a NOT gate as its operand's
   negative literal), which also buys absorption ([a OR (a AND x) = a])
   for free. *)

type tag = { lit : int; pos : bool; residual : float }

let signal_probabilities ?(iters = default_iters) nl =
  let n = Netlist.n_nets nl in
  let p = Array.make n 0.5 in
  let tags : tag option array = Array.make n None in
  let order = Netlist.nets_in_order nl in
  let clamp v = Float.max 0.0 (Float.min 1.0 v) in
  (* One combinational propagation over explicit arrays, so the same code
     serves the main fixpoint and the conditional re-evaluations below.
     [pin] forces one net to a value for the whole pass (its fanout sees
     the pinned probability; its own driver is not evaluated). *)
  let sweep ?pin p (tags : tag option array) =
    let get x = p.(Netlist.net_index x) in
    let plit l pos = if pos then p.(l) else 1.0 -. p.(l) in
    (* effective descriptor: stored tag, else the net as its own literal *)
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
      else if a.lit = b.lit then (* l AND x, NOT l AND y: disjoint *)
        (0.0, None)
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
        (* disjoint supports: OR is a sum *)
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
              (* mux(s, s&x, s&y) collapses to one arm *)
              if a.pos then
                (ps *. b.residual, Some { b with residual = b.residual })
              else ((1.0 -. ps) *. a.residual, Some a)
            else
              let r = ((1.0 -. ps) *. a.residual) +. (ps *. b.residual) in
              (plit a.lit a.pos *. r, Some { a with residual = r })
          else (((1.0 -. ps) *. p0) +. (ps *. p1), None)
    in
    let pinned i =
      match pin with Some j -> i = j | None -> false
    in
    (* combinational probabilities in evaluation order, registers held *)
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
  (* power-on register state *)
  Array.iter
    (fun net ->
      match Netlist.driver nl net with
      | Netlist.D_dff k ->
          p.(Netlist.net_index net) <-
            (if Netlist.dff_init nl k then 1.0 else 0.0)
      | _ -> ())
    order;
  (* Hold-mux registers [q' = mux en q new]: the register samples [new]
     only on cycles where [en] fires, so its steady-state target is
     [P(new | en)], not the unconditional [p new].  That distinction is
     the sequential half of the time-multiplexing blind spot: a result
     register's data is gated by the same step-select chain as its load
     enable ("core busy" ORs, operand-mux selects), so the unconditional
     probability is select-crushed by several orders of magnitude and
     every downstream carry chain inherits the error.  No single
     conditioning literal survives that whole path (OR-absorption plus
     two mux levels), so [P(new | en)] is computed honestly: re-run the
     combinational sweep on scratch arrays with [en] pinned and read
     [new] there.  One conditional sweep per distinct enable per round. *)
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
    (* damped register update: p' = (p + target) / 2.  Plain assignment
       oscillates on toggling state (a counter's low bit alternates 0,1);
       averaging converges it to the 0.5 a long-run observer sees. *)
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
  (* settle gate probabilities on the final register values *)
  sweep p tags;
  p

(* Monte-Carlo cross-check of the analytic model above: simulate random
   vectors on 8-word gate-engine strips and count how often each net
   is 1.  One generator per vector is split off up front (sequentially),
   each strip chunk copies its generators before drawing, and shard
   counts are plain sums — so the estimate is bit-identical for any
   [jobs] and any lane/strip packing. *)
let empirical_words = 8

let empirical ?(cycles = 8) ?(jobs = 1) ~seed ~vectors nl =
  if vectors < 1 then invalid_arg "Prob.empirical: vectors < 1";
  if cycles < 1 then invalid_arg "Prob.empirical: cycles < 1";
  Netlist.finalise nl;
  let input_tbl = Netlist.input_index nl in
  let ids =
    List.map (fun nm -> [| Hashtbl.find input_tbl nm |]) (Netlist.input_names nl)
  in
  let nets = Netlist.nets_in_order nl in
  let n = Netlist.n_nets nl in
  let prng = Prng.create ~seed in
  let gens = Array.make vectors prng in
  for j = 0 to vectors - 1 do
    gens.(j) <- Prng.split prng
  done;
  let cap = empirical_words * Packed.lanes in
  let count_range st lo hi =
    let counts = Array.make n 0 in
    let j = ref lo in
    while !j < hi do
      let cnt = min cap (hi - !j) in
      Packed.strip_reset st;
      let gs = Array.init cnt (fun k -> Prng.copy gens.(!j + k)) in
      for _ = 1 to cycles do
        (* inputs change every cycle, so each edge needs both settles:
           one for the comb cone under the new inputs, one after the
           latch — a full Sim.clock, but each pass carries
           [empirical_words] lane words of vectors *)
        List.iter
          (fun bus ->
            Packed.strip_drive st bus cnt (fun l -> Bool.to_int (Prng.bool gs.(l))))
          ids;
        Packed.strip_settle st;
        Packed.strip_latch st;
        Packed.strip_settle st;
        Array.iter
          (fun net ->
            let i = Netlist.net_index net in
            counts.(i) <- counts.(i) + Packed.strip_count st i cnt)
          nets
      done;
      j := !j + cnt
    done;
    counts
  in
  let total = Array.make n 0 in
  List.iter
    (Array.iteri (fun i c -> total.(i) <- total.(i) + c))
    (Packed.sharded ~jobs ~words:empirical_words nl vectors count_range);
  let samples = float_of_int (vectors * cycles) in
  Array.map (fun c -> float_of_int c /. samples) total

let analyse ?iters ?(threshold = default_threshold) ?exclude nl =
  let p = signal_probabilities ?iters nl in
  let cv = Lint.const_values nl in
  let excluded i =
    match exclude with Some m -> m.(i) | None -> false
  in
  let findings = ref [] in
  let rarest = ref 1.0 in
  Array.iter
    (fun net ->
      let i = Netlist.net_index net in
      (* statically-constant nets are dead logic, not triggers *)
      if cv.(i) = None && not (excluded i) then begin
        let activation = Float.min p.(i) (1.0 -. p.(i)) in
        if activation < !rarest then rarest := activation;
        if activation > 0.0 && activation < threshold then
          findings :=
            Finding.make ~pass:Finding.Rare ~severity:Finding.Warning
              ~rule:"rare-net" ~net
              (Printf.sprintf
                 "%s has activation probability %.3g (threshold %.3g): \
                  trigger candidate"
                 (Finding.net_label nl net) activation threshold)
            :: !findings
      end)
    (Netlist.nets_in_order nl);
  let stats =
    Finding.make ~pass:Finding.Rare ~severity:Finding.Info ~rule:"rarest"
      (Printf.sprintf "rarest non-constant activation %.3g (threshold %.3g)"
         !rarest threshold)
  in
  (List.sort Finding.compare (stats :: !findings), p)
