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

(* The model runs on the levelized tape [Packed] and [Cnf] share,
   lowered once per netlist to kernel opcodes: the tape's gates, with
   each mux's constant-arm case resolved in the order the model tests
   it ([mux s 0 x] is [s AND x], [mux s x 0] is [NOT s AND x],
   [mux s 1 x] is [NOT s OR x], [mux s x 1] is [s OR x]), so no sweep
   looks at a driver. *)
let k_not = 0

let k_and = 1

let k_or = 2

let k_xor = 3

let k_nand = 4

let k_nor = 5

let k_mux = 6 (* a = sel, b = t0, c = t1 *)

let k_and_lit = 7 (* [a] as a literal of polarity [c = 1], AND [b] *)

let k_or_lit = 8 (* [a] as a literal of polarity [c = 1], OR [b] *)

let k_dff = -1 (* never swept *)

type kernel = {
  code : int array;  (* per instruction, tape order *)
  a : int array;
  b : int array;
  c : int array;
  dst : int array;
  self_lit : int array;  (* per net: its literal when it has no stored tag *)
  self_pos : bool array;
}

let compile tp =
  let n = Netlist.n_nets (Packed.tape_netlist tp) in
  let len = Packed.tape_length tp in
  let const_value = Array.make n (-1) in
  Array.iter
    (fun (i, v) -> const_value.(i) <- Bool.to_int v)
    (Packed.tape_consts tp);
  let k =
    {
      code = Array.make len k_dff;
      a = Array.make len 0;
      b = Array.make len 0;
      c = Array.make len 0;
      dst = Array.init len (Packed.tape_dst tp);
      self_lit = Array.init n Fun.id;
      self_pos = Array.make n true;
    }
  in
  for pc = 0 to len - 1 do
    let emit op x y z =
      k.code.(pc) <- op;
      k.a.(pc) <- x;
      k.b.(pc) <- y;
      k.c.(pc) <- z
    in
    let op = Packed.tape_code tp pc and x, y, z = Packed.tape_args tp pc in
    if op = Packed.op_mux then
      if const_value.(y) = 0 then emit k_and_lit x z 1
      else if const_value.(z) = 0 then emit k_and_lit x y 0
      else if const_value.(y) = 1 then emit k_or_lit x z 0
      else if const_value.(z) = 1 then emit k_or_lit x y 1
      else emit k_mux x y z
    else if op = Packed.op_not then begin
      emit k_not x 0 0;
      k.self_lit.(k.dst.(pc)) <- x;
      k.self_pos.(k.dst.(pc)) <- false
    end
    else if op = Packed.op_and then emit k_and x y 0
    else if op = Packed.op_or then emit k_or x y 0
    else if op = Packed.op_xor then emit k_xor x y 0
    else if op = Packed.op_nand then emit k_nand x y 0
    else if op = Packed.op_nor then emit k_nor x y 0
    else emit k_dff x 0 0
  done;
  k

(* Probabilities and tags, indexed by net.  A tag is three parallel
   slots: [lit] ([-1] for none), [pos] and [res]idual. *)
type state = {
  p : float array;
  lit : int array;
  pos : bool array;
  res : float array;
}

let state n =
  {
    p = Array.make n 0.5;
    lit = Array.make n (-1);
    pos = Array.make n true;
    res = Array.make n 1.0;
  }

let[@inline] plit p l pos = if pos then p.(l) else 1.0 -. p.(l)

(* [Float.max 0.0 (Float.min 1.0 v)], NaN and signed zero included *)
let[@inline] clamp v =
  if v > 1.0 then 1.0 else if v > 0.0 then v else if v <> v then v else 0.0

let[@inline] set st d v l pos r =
  st.p.(d) <- clamp v;
  st.lit.(d) <- l;
  st.pos.(d) <- pos;
  st.res.(d) <- r

let[@inline] set_plain st d v =
  st.p.(d) <- clamp v;
  st.lit.(d) <- -1

(* One combinational propagation over the instructions [prog], in
   place.  Each operand's descriptor — probability, literal, polarity,
   residual — is read into locals (a stored tag, else the net as its own
   literal) and each result written straight into [st], so nothing is
   allocated per net. *)
let sweep k st prog =
  let p = st.p and tl = st.lit and tp = st.pos and tr = st.res in
  for j = 0 to Array.length prog - 1 do
    let pc = prog.(j) in
    let op = k.code.(pc) and d = k.dst.(pc) in
    if op = k_not then set_plain st d (1.0 -. p.(k.a.(pc)))
    else begin
      let y = k.b.(pc) in
      let pb = p.(y) and ty = tl.(y) in
      let lb = if ty >= 0 then ty else k.self_lit.(y) in
      let sb = if ty >= 0 then tp.(y) else k.self_pos.(y) in
      let rb = if ty >= 0 then tr.(y) else 1.0 in
      if op = k_mux then begin
        (* [b] is the [t0] arm, [z] the [t1] arm *)
        let s = k.a.(pc) and z = k.c.(pc) in
        let ps = p.(s) and pz = p.(z) and tz = tl.(z) in
        let lz = if tz >= 0 then tz else k.self_lit.(z) in
        let sz = if tz >= 0 then tp.(z) else k.self_pos.(z) in
        let rz = if tz >= 0 then tr.(z) else 1.0 in
        if lb = lz && sb = sz then
          if lb = s then
            (* mux(s, s&x, s&y) collapses to one arm *)
            if sb then set st d (ps *. rz) lz sz rz
            else set st d ((1.0 -. ps) *. rb) lb sb rb
          else
            let r = ((1.0 -. ps) *. rb) +. (ps *. rz) in
            set st d (plit p lb sb *. r) lb sb r
        else set_plain st d (((1.0 -. ps) *. pb) +. (ps *. pz))
      end
      else begin
        (* operand [a]: a net's descriptor, or the select as a literal *)
        let x = k.a.(pc) in
        let is_lit = op = k_and_lit || op = k_or_lit in
        let ta = if is_lit then -1 else tl.(x) in
        let sa =
          if is_lit then k.c.(pc) = 1
          else if ta >= 0 then tp.(x)
          else k.self_pos.(x)
        in
        let pa = if is_lit && not sa then 1.0 -. p.(x) else p.(x) in
        let la = if is_lit then x else if ta >= 0 then ta else k.self_lit.(x) in
        let ra = if ta >= 0 then tr.(x) else 1.0 in
        let same = la = lb && sa = sb in
        if op = k_and || op = k_and_lit || op = k_nand then
          if same then begin
            let r = ra *. rb in
            let v = plit p la sa *. r in
            if op = k_nand then set_plain st d (1.0 -. v) else set st d v la sa r
          end
          else if la = lb then
            (* l AND x, NOT l AND y: disjoint *)
            set_plain st d (if op = k_nand then 1.0 else 0.0)
          else if op = k_nand then set_plain st d (1.0 -. (pa *. pb))
          else if plit p la sa <= plit p lb sb then
            set st d (pa *. pb) la sa (ra *. pb)
          else set st d (pa *. pb) lb sb (rb *. pa)
        else if op = k_xor then
          if same then begin
            let r = ra +. rb -. (2.0 *. ra *. rb) in
            set st d (plit p la sa *. r) la sa r
          end
          else if la = lb then
            set_plain st d ((plit p la sa *. ra) +. (plit p lb sb *. rb))
          else set_plain st d ((pa *. (1.0 -. pb)) +. (pb *. (1.0 -. pa)))
        else if same then begin
          (* k_or, k_or_lit, k_nor from here on *)
          let r = ra +. rb -. (ra *. rb) in
          let v = plit p la sa *. r in
          if op = k_nor then set_plain st d (1.0 -. v) else set st d v la sa r
        end
        else
          let v =
            if la = lb then
              (* disjoint supports: OR is a sum *)
              (plit p la sa *. ra) +. (plit p lb sb *. rb)
            else 1.0 -. ((1.0 -. pa) *. (1.0 -. pb))
          in
          set_plain st d (if op = k_nor then 1.0 -. v else v)
      end
    end
  done

(* Ascending [i] in [0, n) with [f i]. *)
let indices n f =
  let m = ref 0 in
  for i = 0 to n - 1 do
    if f i then incr m
  done;
  let out = Array.make !m 0 and j = ref 0 in
  for i = 0 to n - 1 do
    if f i then begin
      out.(!j) <- i;
      incr j
    end
  done;
  out

(* Hold-mux registers [q' = mux en q new]: the register samples [new]
   only on cycles where [en] fires, so its steady-state target is
   [P(new | en)], not the unconditional [p new].  That distinction is
   the sequential half of the time-multiplexing blind spot: a result
   register's data is gated by the same step-select chain as its load
   enable ("core busy" ORs, operand-mux selects), so the unconditional
   probability is select-crushed by several orders of magnitude and
   every downstream carry chain inherits the error.  No single
   conditioning literal survives that whole path (OR-absorption plus
   two mux levels), so [P(new | en)] is computed honestly: a
   combinational sweep with [en] pinned to its loading value.

   Registers sharing an enable and polarity share one such {e key}, and
   a key's sweep needs only the combinational fan-in cone of its
   registers' [new] arms.  So it runs over those instructions alone, on
   scratch arrays: the cone's leaves (registers, inputs, constants) are
   copied from the live values, [en] is pinned, and the cone's gates
   are swept — exactly what a full sweep over copies of every array
   gives on those arms, since no arm reads a net outside its cone. *)
type key = {
  en : int;
  en_value : float;
  regs : int array;  (* register slots sharing the key *)
  cone : int array;  (* cone gates in tape order, [en] left out *)
  leaves : int array;  (* the cone's non-gate nets *)
}

let signal_probabilities ?(iters = default_iters) nl =
  let tp = Packed.tape nl in
  let k = compile tp in
  let n = Netlist.n_nets nl and len = Packed.tape_length tp in
  let nets = Netlist.nets_in_order nl in
  let net_of = Array.copy nets in
  Array.iter (fun x -> net_of.(Netlist.net_index x) <- x) nets;
  let instr = Array.make n (-1) in
  Array.iteri (fun pc d -> instr.(d) <- pc) k.dst;
  let gate i = instr.(i) >= 0 && k.code.(instr.(i)) <> k_dff in
  let gates = indices len (fun pc -> k.code.(pc) <> k_dff) in
  let live = state n and scratch = state n in
  Array.iter
    (fun (i, v) -> live.p.(i) <- (if v then 1.0 else 0.0))
    (Packed.tape_consts tp);
  (* registers in tape order, at their power-on values; [src] is the
     data net, or for a hold-mux register the [new] arm *)
  let regs = indices len (fun pc -> k.code.(pc) = k_dff) in
  let n_regs = Array.length regs in
  let reg_q = Array.map (fun pc -> k.dst.(pc)) regs in
  let reg_src = Array.make n_regs 0 and reg_key = Array.make n_regs (-1) in
  let key_ids = Hashtbl.create 7 and key_defs = ref [] in
  Array.iteri
    (fun r pc ->
      let dff = k.a.(pc) and q = reg_q.(r) in
      live.p.(q) <- (if Packed.tape_dff_init tp dff then 1.0 else 0.0);
      let data = Packed.tape_dff_data tp dff in
      let m = instr.(data) in
      let s, t0, t1 =
        if m >= 0 && Packed.tape_code tp m = Packed.op_mux then
          Packed.tape_args tp m
        else (-1, -1, -1)
      in
      let hold pos arm =
        reg_src.(r) <- arm;
        reg_key.(r) <-
          (match Hashtbl.find_opt key_ids (s, pos) with
          | Some id -> id
          | None ->
              let id = Hashtbl.length key_ids in
              Hashtbl.add key_ids (s, pos) id;
              key_defs := (s, pos) :: !key_defs;
              id)
      in
      if t0 = q then hold true t1
      else if t1 = q then hold false t0
      else reg_src.(r) <- data)
    regs;
  let keys =
    Array.of_list (List.rev !key_defs)
    |> Array.mapi (fun id (en, pos) ->
           let regs = indices n_regs (fun r -> reg_key.(r) = id) in
           let roots = Array.map (fun r -> net_of.(reg_src.(r))) regs in
           let cone =
             Netlist.in_cone nl ~through_dffs:false ~roots:(Array.to_list roots) ()
           in
           {
             en;
             en_value = (if pos then 1.0 else 0.0);
             regs;
             cone =
               indices len (fun pc ->
                   let d = k.dst.(pc) in
                   k.code.(pc) <> k_dff && cone.(d) && d <> en);
             leaves = indices n (fun i -> cone.(i) && not (gate i));
           })
  in
  (* a key's targets, read per register when the key is evaluated *)
  let target = Array.make n_regs 0.0 in
  let evaluated = Array.make (Array.length keys) false in
  (* Evaluated lazily, when the in-place register update below first
     asks for it: the key then sees every register updated earlier in
     the round, and all of its registers read that one snapshot. *)
  let eval_key key =
    Array.iter (fun i -> scratch.p.(i) <- live.p.(i)) key.leaves;
    scratch.p.(key.en) <- key.en_value;
    scratch.lit.(key.en) <- -1;
    sweep k scratch key.cone;
    Array.iter (fun r -> target.(r) <- scratch.p.(reg_src.(r))) key.regs
  in
  for _round = 1 to iters do
    sweep k live gates;
    Array.fill evaluated 0 (Array.length evaluated) false;
    (* damped register update: p' = (p + target) / 2.  Plain assignment
       oscillates on toggling state (a counter's low bit alternates 0,1);
       averaging converges it to the 0.5 a long-run observer sees. *)
    for r = 0 to n_regs - 1 do
      let id = reg_key.(r) in
      if id < 0 then target.(r) <- live.p.(reg_src.(r))
      else if not evaluated.(id) then begin
        evaluated.(id) <- true;
        eval_key keys.(id)
      end;
      let q = reg_q.(r) in
      live.p.(q) <- 0.5 *. (live.p.(q) +. target.(r))
    done
  done;
  (* settle gate probabilities on the final register values *)
  sweep k live gates;
  live.p

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
