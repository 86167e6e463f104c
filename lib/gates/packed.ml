module Prng = Thr_util.Prng
module Dpool = Thr_util.Dpool
module Trace = Thr_obs.Trace
module Metrics = Thr_obs.Metrics

let lanes = Sys.int_size

let all_lanes = -1 (* every lane bit set *)

let lane_mask k = if k >= lanes then all_lanes else (1 lsl k) - 1

(* 16-bit popcount table; a lane word is at most 63 bits, so four
   lookups cover it without looping over lanes. *)
let pop16 =
  let t = Bytes.make 65536 '\000' in
  for i = 1 to 65535 do
    Bytes.set t i (Char.chr (Char.code (Bytes.get t (i lsr 1)) + (i land 1)))
  done;
  t

let popcount w =
  Char.code (Bytes.unsafe_get pop16 (w land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 16) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 32) land 0xffff))
  + Char.code (Bytes.unsafe_get pop16 ((w lsr 48) land 0xffff))

(* ---------------------------- the tape ----------------------------- *)

(* Opcodes of the instruction tape.  D_input nets are not compiled (their
   values are written by strip_poke and retained); D_const nets are poked
   into the state once at reset instead of re-evaluated every pass. *)
let op_not = 0

let op_and = 1

let op_or = 2

let op_xor = 3

let op_nand = 4

let op_nor = 5

let op_mux = 6 (* a = sel, b = t0, c = t1 *)

let op_dff = 7 (* a = DFF table index *)

type tape = {
  t_nl : Netlist.t;
  t_code : int array;
  t_a : int array;
  t_b : int array;
  t_c : int array;
  t_dst : int array;
  t_const_net : int array;
  t_const_val : int array;
  t_dff_src : int array;  (* data net index per DFF *)
  t_dff_init : int array; (* power-on lane word per DFF *)
  t_input_nets : (string * int) array; (* declaration order *)
  t_out_nets : (string * int) array;   (* declaration order *)
}

let compiles = Metrics.counter "thr_sim_compiles_total"

let compile_hits = Metrics.counter "thr_sim_compile_cache_hits_total"

let vectors_total = Metrics.counter "thr_sim_vectors_total"

(* Half-decade-ish buckets (1 / 2.5 / 5 per decade) so post-strip rates
   land in real buckets instead of piling into one coarse decade: the
   strip engine moved single-domain rates past the old top buckets. *)
let vps_hist =
  Metrics.histogram
    ~buckets:
      [|
        1e3; 2.5e3; 5e3; 1e4; 2.5e4; 5e4; 1e5; 2.5e5; 5e5; 1e6; 2.5e6; 5e6;
        1e7; 2.5e7; 5e7; 1e8; 2.5e8; 5e8; 1e9; 2.5e9; 5e9; 1e10;
      |]
    "thr_sim_vectors_per_second"

(* Resident bytes of compiled tapes (scalar and strip), counted at
   compile time: recompiles after strip-width changes show up here and
   in [thr_sim_compiles_total] instead of being silent cache churn. *)
let tape_bytes = Metrics.counter "thr_sim_tape_bytes_total"

let compile nl =
  Netlist.finalise nl;
  Trace.with_span "sim.compile"
    ~args:[ ("netlist", Netlist.name nl) ]
    (fun () ->
      Metrics.incr compiles;
      let order = Netlist.nets_in_order nl in
      let idx = Netlist.net_index in
      let n_instr = ref 0 and n_consts = ref 0 in
      Array.iter
        (fun net ->
          match Netlist.driver nl net with
          | Netlist.D_input _ -> ()
          | Netlist.D_const _ -> incr n_consts
          | _ -> incr n_instr)
        order;
      let code = Array.make !n_instr 0 in
      let a = Array.make !n_instr 0 in
      let b = Array.make !n_instr 0 in
      let c = Array.make !n_instr 0 in
      let dst = Array.make !n_instr 0 in
      let const_net = Array.make !n_consts 0 in
      let const_val = Array.make !n_consts 0 in
      let pc = ref 0 and kc = ref 0 in
      let emit op oa ob oc d =
        code.(!pc) <- op;
        a.(!pc) <- oa;
        b.(!pc) <- ob;
        c.(!pc) <- oc;
        dst.(!pc) <- d;
        incr pc
      in
      Array.iter
        (fun net ->
          let d = idx net in
          match Netlist.driver nl net with
          | Netlist.D_input _ -> ()
          | Netlist.D_const v ->
              const_net.(!kc) <- d;
              const_val.(!kc) <- (if v then all_lanes else 0);
              incr kc
          | Netlist.D_not x -> emit op_not (idx x) 0 0 d
          | Netlist.D_and (x, y) -> emit op_and (idx x) (idx y) 0 d
          | Netlist.D_or (x, y) -> emit op_or (idx x) (idx y) 0 d
          | Netlist.D_xor (x, y) -> emit op_xor (idx x) (idx y) 0 d
          | Netlist.D_nand (x, y) -> emit op_nand (idx x) (idx y) 0 d
          | Netlist.D_nor (x, y) -> emit op_nor (idx x) (idx y) 0 d
          | Netlist.D_mux (s, t0, t1) -> emit op_mux (idx s) (idx t0) (idx t1) d
          | Netlist.D_dff k -> emit op_dff k 0 0 d)
        order;
      let n_dffs = Netlist.n_dffs nl in
      let input_tbl = Netlist.input_index nl in
      Metrics.add tape_bytes
        (8 * ((5 * !n_instr) + (2 * !n_consts) + (2 * n_dffs)));
      {
        t_nl = nl;
        t_code = code;
        t_a = a;
        t_b = b;
        t_c = c;
        t_dst = dst;
        t_const_net = const_net;
        t_const_val = const_val;
        t_dff_src = Array.init n_dffs (fun k -> idx (Netlist.dff_data nl k));
        t_dff_init =
          Array.init n_dffs (fun k ->
              if Netlist.dff_init nl k then all_lanes else 0);
        t_input_nets =
          Netlist.input_names nl
          |> List.map (fun nm -> (nm, Hashtbl.find input_tbl nm))
          |> Array.of_list;
        t_out_nets =
          Netlist.outputs nl
          |> List.map (fun (nm, net) -> (nm, idx net))
          |> Array.of_list;
      })

(* Compile-once cache keyed on Netlist.uid.  Bounded (reset past a
   generous cap) so a long-lived process elaborating many netlists does
   not pin them all; recompiling after a reset is deterministic. *)
let cache : (int, tape) Hashtbl.t = Hashtbl.create 32

let cache_mutex = Mutex.create ()

let cache_cap = 128

let tape nl =
  Netlist.finalise nl;
  let id = Netlist.uid nl in
  match
    Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache id)
  with
  | Some tp ->
      Metrics.incr compile_hits;
      tp
  | None ->
      let tp = compile nl in
      Mutex.protect cache_mutex (fun () ->
          match Hashtbl.find_opt cache id with
          | Some existing -> existing (* another domain won the race *)
          | None ->
              if Hashtbl.length cache >= cache_cap then Hashtbl.reset cache;
              Hashtbl.add cache id tp;
              tp)

(* ------------------------ tape introspection ------------------------ *)

(* Read-only views of the compiled tape for consumers that lower the
   levelized instruction stream to another representation (the Thr_sat
   CNF encoder).  The arrays behind these accessors are shared with the
   simulator hot loop — callers must not mutate what they see. *)

let tape_netlist tp = tp.t_nl

let tape_length tp = Array.length tp.t_code

let tape_code tp i = tp.t_code.(i)

let tape_args tp i = (tp.t_a.(i), tp.t_b.(i), tp.t_c.(i))

let tape_dst tp i = tp.t_dst.(i)

let tape_consts tp =
  Array.init (Array.length tp.t_const_net) (fun i ->
      (tp.t_const_net.(i), tp.t_const_val.(i) <> 0))

let tape_dff_data tp k = tp.t_dff_src.(k)

let tape_dff_init tp k = tp.t_dff_init.(k) <> 0

let tape_inputs tp = Array.copy tp.t_input_nets

(* ----------------------------- batches ----------------------------- *)

type batch = {
  b_seed : int;           (* counter-hash key for the full-activity stream *)
  b_gens : Prng.t array;  (* per-vector generators for the hold stream *)
  b_n : int;
  b_cycles : int;
  b_activity : float;
}

let batch ~prng ?(cycles = 1) ?(activity = 1.0) n =
  if n < 0 then invalid_arg "Packed.batch: negative size";
  if cycles < 1 then invalid_arg "Packed.batch: cycles < 1";
  if not (activity > 0.0 && activity <= 1.0) then
    invalid_arg "Packed.batch: activity must be in (0, 1]";
  let seed = Int64.to_int (Prng.next_int64 prng) in
  (* split in vector order so the derivation is independent of packing *)
  let gens = ref [] in
  for _ = 1 to n do
    gens := Prng.split prng :: !gens
  done;
  {
    b_seed = seed;
    b_gens = Array.of_list (List.rev !gens);
    b_n = n;
    b_cycles = cycles;
    b_activity = activity;
  }

(* Full-activity stimulus is counter-based: one hashed lane word per
   (global lane-word index, cycle, input ordinal), so driving [lanes]
   vectors costs ONE hash instead of [lanes] generator draws — with 512
   inputs the per-lane draws, not the settle passes, used to dominate
   the run.  Vector [j] owns bit [j mod lanes] of word [j / lanes]; the
   word index is global (never shard- or strip-relative), so every
   engine and any sharding derives the identical stream. *)
(* distinct odd multipliers decorrelate the three counter axes before
   the finalisers; all arithmetic is native 63-bit int, so a stimulus
   word costs a dozen register ops and no allocation *)
let[@inline] stim_word b w c k =
  Prng.mix63
    (b.b_seed
    lxor Prng.mix63
           ((w * 0x24BAED4963EE407) + (c * 0xFB21C651E98DF25)
           + (k * 0x16E8FEB86659FD93)))

(* One stimulus bit for one vector of the hold stream (activity < 1.0):
   a float draw decides between a fresh bool and holding [prev] (inputs
   power on at 0, so the first cycle's "previous" value is false).
   Strips of either width and the scalar reference both derive
   low-activity stimulus this way, per vector, so it too is
   independent of the packing by construction. *)
let[@inline] stimulus_bit g activity prev =
  if Prng.float g 1.0 < activity then Prng.bool g else prev

type outputs = {
  out_names : string array;
  out_bits : bool array array;
}

let equal_outputs x y =
  x.out_names = y.out_names
  && Array.length x.out_bits = Array.length y.out_bits
  && Array.for_all2 (fun a b -> a = b) x.out_bits y.out_bits

let observe_throughput n t0 =
  Metrics.add vectors_total n;
  let dt = (Trace.now_us () -. t0) /. 1e6 in
  if n > 0 && dt > 0.0 then Metrics.observe vps_hist (float_of_int n /. dt)

let out_names_of tp = Array.map fst tp.t_out_nets

let run_reference nl b =
  Netlist.finalise nl;
  let sim = Sim.create nl in
  let names = Array.of_list (Netlist.input_names nl) in
  let outs = Array.of_list (Netlist.outputs nl) in
  let n = b.b_n in
  let bits = Array.init n (fun _ -> Array.make (Array.length outs) false) in
  let act = b.b_activity in
  for j = 0 to n - 1 do
    Sim.reset sim;
    let word = j / lanes and lane = j mod lanes in
    let g = Prng.copy b.b_gens.(j) in
    for c = 1 to b.b_cycles do
      if act >= 1.0 then
        Array.iteri
          (fun k nm ->
            Sim.set_input sim nm ((stim_word b word c k lsr lane) land 1 = 1))
          names
      else
        Array.iter
          (fun nm ->
            Sim.set_input sim nm (stimulus_bit g act (Sim.input_value sim nm)))
          names;
      Sim.clock sim
    done;
    let row = bits.(j) in
    Array.iteri (fun oi (_, net) -> row.(oi) <- Sim.peek sim net) outs
  done;
  { out_names = Array.map fst outs; out_bits = bits }

(* --------------------------- strip tapes ---------------------------- *)

(* A strip tape re-compiles the scalar tape for a fixed strip width [S]:
   every net holds [S] consecutive lane words (S * lanes vectors), and
   the instruction stream is stably sorted by (level, opcode) into
   homogeneous segments.  Levels make the reorder sound — operands of a
   level-l instruction are strictly below l, so any intra-level order
   evaluates identically — and segments let the settle kernel dispatch
   on the opcode once per run of instructions instead of once per
   instruction.  Operand/destination indices are pre-scaled by [S]. *)

type stape = {
  s_tp : tape;
  s_words : int;
  s_a : int array;     (* operand offsets, pre-scaled by s_words;
                          op_dff: DFF table index * s_words *)
  s_b : int array;
  s_c : int array;
  s_d : int array;     (* destination offset, pre-scaled *)
  s_seg_op : int array;
  s_seg_lo : int array;
  s_seg_hi : int array; (* exclusive *)
  s_dff_src : int array;   (* data-net offset per DFF, pre-scaled *)
  s_dff_init : int array;  (* power-on lane word per DFF *)
  s_const_net : int array; (* pre-scaled *)
  s_const_val : int array;
}

let compile_strip tp s =
  Trace.with_span "sim.compile_strip"
    ~args:
      [ ("netlist", Netlist.name tp.t_nl); ("words", string_of_int s) ]
    (fun () ->
      Metrics.incr compiles;
      let n = Array.length tp.t_code in
      let n_nets = Netlist.n_nets tp.t_nl in
      (* per-net then per-instruction levels: inputs, constants and DFF
         outputs are level 0, combinational nets 1 + max over operands *)
      let net_level = Array.make n_nets 0 in
      let ilevel = Array.make (max n 1) 0 in
      for i = 0 to n - 1 do
        let lvl =
          match tp.t_code.(i) with
          | 7 -> 0
          | 0 -> 1 + net_level.(tp.t_a.(i))
          | 6 ->
              1
              + max net_level.(tp.t_a.(i))
                  (max net_level.(tp.t_b.(i)) net_level.(tp.t_c.(i)))
          | _ -> 1 + max net_level.(tp.t_a.(i)) net_level.(tp.t_b.(i))
        in
        ilevel.(i) <- lvl;
        net_level.(tp.t_dst.(i)) <- lvl
      done;
      (* stable (level, opcode) sort via encoded integer keys *)
      let keys =
        Array.init n (fun i ->
            (((ilevel.(i) lsl 3) lor tp.t_code.(i)) * n) + i)
      in
      Array.sort compare keys;
      let perm = Array.map (fun k -> k mod n) keys in
      let scaled src = Array.map (fun i -> src.(i) * s) perm in
      let op = Array.map (fun i -> tp.t_code.(i)) perm in
      let level = Array.map (fun i -> ilevel.(i)) perm in
      (* segment boundaries: maximal runs of equal (level, opcode) *)
      let segs = ref [] in
      let p = ref 0 in
      while !p < n do
        let lo = !p in
        while !p < n && op.(!p) = op.(lo) && level.(!p) = level.(lo) do
          incr p
        done;
        segs := (op.(lo), lo, !p) :: !segs
      done;
      let segs = Array.of_list (List.rev !segs) in
      let n_dffs = Array.length tp.t_dff_src in
      Metrics.add tape_bytes
        (8
        * ((4 * n) + (3 * Array.length segs) + (2 * n_dffs)
          + (2 * Array.length tp.t_const_net)));
      {
        s_tp = tp;
        s_words = s;
        s_a = scaled tp.t_a;
        s_b = scaled tp.t_b;
        s_c = scaled tp.t_c;
        s_d = scaled tp.t_dst;
        s_seg_op = Array.map (fun (o, _, _) -> o) segs;
        s_seg_lo = Array.map (fun (_, l, _) -> l) segs;
        s_seg_hi = Array.map (fun (_, _, h) -> h) segs;
        s_dff_src = Array.map (fun i -> i * s) tp.t_dff_src;
        s_dff_init = Array.copy tp.t_dff_init;
        s_const_net = Array.map (fun i -> i * s) tp.t_const_net;
        s_const_val = Array.copy tp.t_const_val;
      })

(* Strip tapes are cached under (netlist uid, strip width) — a distinct
   key space from the scalar cache, so the two widths recompile visibly
   (thr_sim_compiles_total / thr_sim_tape_bytes_total) instead of
   evicting each other silently. *)
let scache : (int * int, stape) Hashtbl.t = Hashtbl.create 16

let strip_tape nl s =
  if s <> 1 && s <> 8 then
    invalid_arg
      (Printf.sprintf "Packed.strip: words must be 1 or 8 (got %d)" s);
  let tp = tape nl in
  let key = (Netlist.uid nl, s) in
  match Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt scache key) with
  | Some sp ->
      Metrics.incr compile_hits;
      sp
  | None ->
      let sp = compile_strip tp s in
      Mutex.protect cache_mutex (fun () ->
          match Hashtbl.find_opt scache key with
          | Some existing -> existing
          | None ->
              if Hashtbl.length scache >= cache_cap then Hashtbl.reset scache;
              Hashtbl.add scache key sp;
              sp)

(* --------------------------- strip state --------------------------- *)

type strip = {
  sp : stape;
  sv : int array; (* s_words lane words per net *)
  sd : int array; (* s_words lane words per DFF *)
  s_ins : (string, int) Hashtbl.t;
}

let strip_reset st =
  let sp = st.sp in
  let s = sp.s_words in
  Array.fill st.sv 0 (Array.length st.sv) 0;
  Array.iteri
    (fun i off -> Array.fill st.sv off s sp.s_const_val.(i))
    sp.s_const_net;
  for k = 0 to Array.length sp.s_dff_src - 1 do
    Array.fill st.sd (k * s) s sp.s_dff_init.(k)
  done

let strip ?(words = 8) nl =
  let sp = strip_tape nl words in
  let st =
    {
      sp;
      sv = Array.make (Netlist.n_nets nl * words) 0;
      sd = Array.make (Array.length sp.s_dff_src * words) 0;
      s_ins = Netlist.input_index nl;
    }
  in
  strip_reset st;
  st

let strip_words st = st.sp.s_words

let strip_netlist st = st.sp.s_tp.t_nl

let strip_poke st net w v = st.sv.((net * st.sp.s_words) + w) <- v

let strip_set_input st nm w v =
  match Hashtbl.find_opt st.s_ins nm with
  | Some i -> strip_poke st i w v
  | None ->
      invalid_arg (Printf.sprintf "Packed.strip_set_input: unknown input %S" nm)

let strip_peek_index st i w = st.sv.((i * st.sp.s_words) + w)

let strip_peek st net w = strip_peek_index st (Netlist.net_index net) w

(* --------------------------- lane transpose --------------------------- *)

(* Lane [l] of a strip is bit [l mod lanes] of word [l / lanes].  A bus
   word is written from, or read into, one value per lane: bit [i] of
   lane [k]'s value is bit [k] of the word of bus net [i]. *)
let strip_write st bus w vals m =
  if m > lanes || m > Array.length vals then
    invalid_arg "Packed.strip_write: more lanes than values";
  let s = st.sp.s_words and sv = st.sv in
  for i = 0 to Array.length bus - 1 do
    let acc = ref 0 in
    for k = 0 to m - 1 do
      acc := !acc lor (((Array.unsafe_get vals k lsr i) land 1) lsl k)
    done;
    sv.((bus.(i) * s) + w) <- !acc
  done

let strip_read st bus w out =
  if Array.length out < lanes then
    invalid_arg "Packed.strip_read: output shorter than a lane word";
  let s = st.sp.s_words and sv = st.sv in
  Array.fill out 0 lanes 0;
  for i = Array.length bus - 1 downto 0 do
    let word = sv.((bus.(i) * s) + w) in
    for k = 0 to lanes - 1 do
      Array.unsafe_set out k
        ((Array.unsafe_get out k lsl 1) lor ((word lsr k) land 1))
    done
  done

(* [value] runs exactly once per lane, in order (per-lane generator draws
   stay in sequence), into a word's buffer; then the word is written. *)
let strip_drive st bus n value =
  let buf = Array.make lanes 0 in
  for w = 0 to st.sp.s_words - 1 do
    let base = w * lanes in
    let m = max 0 (min lanes (n - base)) in
    for k = 0 to m - 1 do
      buf.(k) <- value (base + k)
    done;
    strip_write st bus w buf m
  done

let strip_count st net n =
  let acc = ref 0 in
  for w = 0 to min st.sp.s_words ((n + lanes - 1) / lanes) - 1 do
    acc :=
      !acc + popcount (strip_peek_index st net w land lane_mask (n - (w * lanes)))
  done;
  !acc

(* Contiguous strip-aligned shards, a couple per domain for balance:
   the strip tape is warmed once in the calling domain, then every shard
   gets its own simulator state. *)
let sharded ~jobs ~words nl n f =
  let cap = words * lanes in
  let groups = (n + cap - 1) / cap in
  if jobs <= 1 || groups <= 1 then [ f (strip ~words nl) 0 n ]
  else begin
    ignore (strip_tape nl words);
    let shards = min groups (jobs * 2) in
    let per = (groups + shards - 1) / shards in
    let ranges =
      List.init shards (fun sh ->
          let lo = sh * per * cap in
          (lo, min n (lo + (per * cap))))
      |> List.filter (fun (lo, hi) -> lo < hi)
    in
    Dpool.run ~jobs (fun pool ->
        Dpool.map pool (fun (lo, hi) -> f (strip ~words nl) lo hi) ranges)
  end

(* ------------------------- strip settle kernels ------------------------- *)

(* One unrolled kernel per strip width: the opcode dispatch happens once
   per segment, the instruction loop body is straight-line code over the
   S words of each operand.  Indices come pre-scaled from the strip
   tape and accesses are unsafe.  [lnot] pollutes the unused high lanes
   with ones; that is deliberate — only active lanes are ever read out,
   and masking per instruction would double the work. *)

let settle_full_1 sp v sd =
  let sa = sp.s_a and sb = sp.s_b and sc = sp.s_c and sdst = sp.s_d in
  let seg_op = sp.s_seg_op and seg_lo = sp.s_seg_lo and seg_hi = sp.s_seg_hi in
  for g = 0 to Array.length seg_op - 1 do
    let lo = Array.unsafe_get seg_lo g and hi = Array.unsafe_get seg_hi g in
    match Array.unsafe_get seg_op g with
    | 0 ->
        for i = lo to hi - 1 do
          Array.unsafe_set v
            (Array.unsafe_get sdst i)
            (lnot (Array.unsafe_get v (Array.unsafe_get sa i)))
        done
    | 1 ->
        for i = lo to hi - 1 do
          Array.unsafe_set v
            (Array.unsafe_get sdst i)
            (Array.unsafe_get v (Array.unsafe_get sa i)
            land Array.unsafe_get v (Array.unsafe_get sb i))
        done
    | 2 ->
        for i = lo to hi - 1 do
          Array.unsafe_set v
            (Array.unsafe_get sdst i)
            (Array.unsafe_get v (Array.unsafe_get sa i)
            lor Array.unsafe_get v (Array.unsafe_get sb i))
        done
    | 3 ->
        for i = lo to hi - 1 do
          Array.unsafe_set v
            (Array.unsafe_get sdst i)
            (Array.unsafe_get v (Array.unsafe_get sa i)
            lxor Array.unsafe_get v (Array.unsafe_get sb i))
        done
    | 4 ->
        for i = lo to hi - 1 do
          Array.unsafe_set v
            (Array.unsafe_get sdst i)
            (lnot
               (Array.unsafe_get v (Array.unsafe_get sa i)
               land Array.unsafe_get v (Array.unsafe_get sb i)))
        done
    | 5 ->
        for i = lo to hi - 1 do
          Array.unsafe_set v
            (Array.unsafe_get sdst i)
            (lnot
               (Array.unsafe_get v (Array.unsafe_get sa i)
               lor Array.unsafe_get v (Array.unsafe_get sb i)))
        done
    | 6 ->
        for i = lo to hi - 1 do
          let s0 = Array.unsafe_get v (Array.unsafe_get sa i) in
          Array.unsafe_set v
            (Array.unsafe_get sdst i)
            (Array.unsafe_get v (Array.unsafe_get sc i)
             land s0
            lor (Array.unsafe_get v (Array.unsafe_get sb i) land lnot s0))
        done
    | _ ->
        for i = lo to hi - 1 do
          Array.unsafe_set v
            (Array.unsafe_get sdst i)
            (Array.unsafe_get sd (Array.unsafe_get sa i))
        done
  done


let settle_full_8 sp v sd =
  let sa = sp.s_a and sb = sp.s_b and sc = sp.s_c and sdst = sp.s_d in
  let seg_op = sp.s_seg_op and seg_lo = sp.s_seg_lo and seg_hi = sp.s_seg_hi in
  for g = 0 to Array.length seg_op - 1 do
    let lo = Array.unsafe_get seg_lo g and hi = Array.unsafe_get seg_hi g in
    match Array.unsafe_get seg_op g with
    | 0 ->
        for i = lo to hi - 1 do
          let a = Array.unsafe_get sa i and d = Array.unsafe_get sdst i in
          Array.unsafe_set v d (lnot (Array.unsafe_get v a));
          Array.unsafe_set v (d + 1) (lnot (Array.unsafe_get v (a + 1)));
          Array.unsafe_set v (d + 2) (lnot (Array.unsafe_get v (a + 2)));
          Array.unsafe_set v (d + 3) (lnot (Array.unsafe_get v (a + 3)));
          Array.unsafe_set v (d + 4) (lnot (Array.unsafe_get v (a + 4)));
          Array.unsafe_set v (d + 5) (lnot (Array.unsafe_get v (a + 5)));
          Array.unsafe_set v (d + 6) (lnot (Array.unsafe_get v (a + 6)));
          Array.unsafe_set v (d + 7) (lnot (Array.unsafe_get v (a + 7)))
        done
    | 1 ->
        for i = lo to hi - 1 do
          let a = Array.unsafe_get sa i
          and b = Array.unsafe_get sb i
          and d = Array.unsafe_get sdst i in
          Array.unsafe_set v d
            (Array.unsafe_get v a land Array.unsafe_get v b);
          Array.unsafe_set v (d + 1)
            (Array.unsafe_get v (a + 1) land Array.unsafe_get v (b + 1));
          Array.unsafe_set v (d + 2)
            (Array.unsafe_get v (a + 2) land Array.unsafe_get v (b + 2));
          Array.unsafe_set v (d + 3)
            (Array.unsafe_get v (a + 3) land Array.unsafe_get v (b + 3));
          Array.unsafe_set v (d + 4)
            (Array.unsafe_get v (a + 4) land Array.unsafe_get v (b + 4));
          Array.unsafe_set v (d + 5)
            (Array.unsafe_get v (a + 5) land Array.unsafe_get v (b + 5));
          Array.unsafe_set v (d + 6)
            (Array.unsafe_get v (a + 6) land Array.unsafe_get v (b + 6));
          Array.unsafe_set v (d + 7)
            (Array.unsafe_get v (a + 7) land Array.unsafe_get v (b + 7))
        done
    | 2 ->
        for i = lo to hi - 1 do
          let a = Array.unsafe_get sa i
          and b = Array.unsafe_get sb i
          and d = Array.unsafe_get sdst i in
          Array.unsafe_set v d (Array.unsafe_get v a lor Array.unsafe_get v b);
          Array.unsafe_set v (d + 1)
            (Array.unsafe_get v (a + 1) lor Array.unsafe_get v (b + 1));
          Array.unsafe_set v (d + 2)
            (Array.unsafe_get v (a + 2) lor Array.unsafe_get v (b + 2));
          Array.unsafe_set v (d + 3)
            (Array.unsafe_get v (a + 3) lor Array.unsafe_get v (b + 3));
          Array.unsafe_set v (d + 4)
            (Array.unsafe_get v (a + 4) lor Array.unsafe_get v (b + 4));
          Array.unsafe_set v (d + 5)
            (Array.unsafe_get v (a + 5) lor Array.unsafe_get v (b + 5));
          Array.unsafe_set v (d + 6)
            (Array.unsafe_get v (a + 6) lor Array.unsafe_get v (b + 6));
          Array.unsafe_set v (d + 7)
            (Array.unsafe_get v (a + 7) lor Array.unsafe_get v (b + 7))
        done
    | 3 ->
        for i = lo to hi - 1 do
          let a = Array.unsafe_get sa i
          and b = Array.unsafe_get sb i
          and d = Array.unsafe_get sdst i in
          Array.unsafe_set v d
            (Array.unsafe_get v a lxor Array.unsafe_get v b);
          Array.unsafe_set v (d + 1)
            (Array.unsafe_get v (a + 1) lxor Array.unsafe_get v (b + 1));
          Array.unsafe_set v (d + 2)
            (Array.unsafe_get v (a + 2) lxor Array.unsafe_get v (b + 2));
          Array.unsafe_set v (d + 3)
            (Array.unsafe_get v (a + 3) lxor Array.unsafe_get v (b + 3));
          Array.unsafe_set v (d + 4)
            (Array.unsafe_get v (a + 4) lxor Array.unsafe_get v (b + 4));
          Array.unsafe_set v (d + 5)
            (Array.unsafe_get v (a + 5) lxor Array.unsafe_get v (b + 5));
          Array.unsafe_set v (d + 6)
            (Array.unsafe_get v (a + 6) lxor Array.unsafe_get v (b + 6));
          Array.unsafe_set v (d + 7)
            (Array.unsafe_get v (a + 7) lxor Array.unsafe_get v (b + 7))
        done
    | 4 ->
        for i = lo to hi - 1 do
          let a = Array.unsafe_get sa i
          and b = Array.unsafe_get sb i
          and d = Array.unsafe_get sdst i in
          Array.unsafe_set v d
            (lnot (Array.unsafe_get v a land Array.unsafe_get v b));
          Array.unsafe_set v (d + 1)
            (lnot (Array.unsafe_get v (a + 1) land Array.unsafe_get v (b + 1)));
          Array.unsafe_set v (d + 2)
            (lnot (Array.unsafe_get v (a + 2) land Array.unsafe_get v (b + 2)));
          Array.unsafe_set v (d + 3)
            (lnot (Array.unsafe_get v (a + 3) land Array.unsafe_get v (b + 3)));
          Array.unsafe_set v (d + 4)
            (lnot (Array.unsafe_get v (a + 4) land Array.unsafe_get v (b + 4)));
          Array.unsafe_set v (d + 5)
            (lnot (Array.unsafe_get v (a + 5) land Array.unsafe_get v (b + 5)));
          Array.unsafe_set v (d + 6)
            (lnot (Array.unsafe_get v (a + 6) land Array.unsafe_get v (b + 6)));
          Array.unsafe_set v (d + 7)
            (lnot (Array.unsafe_get v (a + 7) land Array.unsafe_get v (b + 7)))
        done
    | 5 ->
        for i = lo to hi - 1 do
          let a = Array.unsafe_get sa i
          and b = Array.unsafe_get sb i
          and d = Array.unsafe_get sdst i in
          Array.unsafe_set v d
            (lnot (Array.unsafe_get v a lor Array.unsafe_get v b));
          Array.unsafe_set v (d + 1)
            (lnot (Array.unsafe_get v (a + 1) lor Array.unsafe_get v (b + 1)));
          Array.unsafe_set v (d + 2)
            (lnot (Array.unsafe_get v (a + 2) lor Array.unsafe_get v (b + 2)));
          Array.unsafe_set v (d + 3)
            (lnot (Array.unsafe_get v (a + 3) lor Array.unsafe_get v (b + 3)));
          Array.unsafe_set v (d + 4)
            (lnot (Array.unsafe_get v (a + 4) lor Array.unsafe_get v (b + 4)));
          Array.unsafe_set v (d + 5)
            (lnot (Array.unsafe_get v (a + 5) lor Array.unsafe_get v (b + 5)));
          Array.unsafe_set v (d + 6)
            (lnot (Array.unsafe_get v (a + 6) lor Array.unsafe_get v (b + 6)));
          Array.unsafe_set v (d + 7)
            (lnot (Array.unsafe_get v (a + 7) lor Array.unsafe_get v (b + 7)))
        done
    | 6 ->
        for i = lo to hi - 1 do
          let a = Array.unsafe_get sa i
          and b = Array.unsafe_get sb i
          and c = Array.unsafe_get sc i
          and d = Array.unsafe_get sdst i in
          let s0 = Array.unsafe_get v a in
          Array.unsafe_set v d
            (Array.unsafe_get v c
             land s0
            lor (Array.unsafe_get v b land lnot s0));
          let s1 = Array.unsafe_get v (a + 1) in
          Array.unsafe_set v (d + 1)
            (Array.unsafe_get v (c + 1)
             land s1
            lor (Array.unsafe_get v (b + 1) land lnot s1));
          let s2 = Array.unsafe_get v (a + 2) in
          Array.unsafe_set v (d + 2)
            (Array.unsafe_get v (c + 2)
             land s2
            lor (Array.unsafe_get v (b + 2) land lnot s2));
          let s3 = Array.unsafe_get v (a + 3) in
          Array.unsafe_set v (d + 3)
            (Array.unsafe_get v (c + 3)
             land s3
            lor (Array.unsafe_get v (b + 3) land lnot s3));
          let s4 = Array.unsafe_get v (a + 4) in
          Array.unsafe_set v (d + 4)
            (Array.unsafe_get v (c + 4)
             land s4
            lor (Array.unsafe_get v (b + 4) land lnot s4));
          let s5 = Array.unsafe_get v (a + 5) in
          Array.unsafe_set v (d + 5)
            (Array.unsafe_get v (c + 5)
             land s5
            lor (Array.unsafe_get v (b + 5) land lnot s5));
          let s6 = Array.unsafe_get v (a + 6) in
          Array.unsafe_set v (d + 6)
            (Array.unsafe_get v (c + 6)
             land s6
            lor (Array.unsafe_get v (b + 6) land lnot s6));
          let s7 = Array.unsafe_get v (a + 7) in
          Array.unsafe_set v (d + 7)
            (Array.unsafe_get v (c + 7)
             land s7
            lor (Array.unsafe_get v (b + 7) land lnot s7))
        done
    | _ ->
        for i = lo to hi - 1 do
          let a = Array.unsafe_get sa i and d = Array.unsafe_get sdst i in
          Array.unsafe_set v d (Array.unsafe_get sd a);
          Array.unsafe_set v (d + 1) (Array.unsafe_get sd (a + 1));
          Array.unsafe_set v (d + 2) (Array.unsafe_get sd (a + 2));
          Array.unsafe_set v (d + 3) (Array.unsafe_get sd (a + 3));
          Array.unsafe_set v (d + 4) (Array.unsafe_get sd (a + 4));
          Array.unsafe_set v (d + 5) (Array.unsafe_get sd (a + 5));
          Array.unsafe_set v (d + 6) (Array.unsafe_get sd (a + 6));
          Array.unsafe_set v (d + 7) (Array.unsafe_get sd (a + 7))
        done
  done


let strip_settle st =
  let sp = st.sp in
  if sp.s_words = 1 then settle_full_1 sp st.sv st.sd
  else settle_full_8 sp st.sv st.sd

let strip_latch st =
  let s = st.sp.s_words in
  let v = st.sv and sd = st.sd and src = st.sp.s_dff_src in
  for k = 0 to Array.length src - 1 do
    let sk = Array.unsafe_get src k in
    let base = k * s in
    for w = 0 to s - 1 do
      Array.unsafe_set sd (base + w) (Array.unsafe_get v (sk + w))
    done
  done


(* ------------------------- strip batch runs ------------------------- *)

(* The strip runner fuses the clock: [Sim.clock] settles twice per cycle
   (the trailing settle exposes the post-edge state), but when inputs
   are redriven every cycle and outputs are read only at the end, the
   pre-latch settle of cycle [c+1] recomputes exactly what cycle [c]'s
   trailing settle produced.  So each cycle is poke + settle + latch,
   with one final settle before readout — bit-identical, at nearly half
   the passes. *)
let run_strips_into st b bits lo hi =
  let sp = st.sp in
  let s = sp.s_words in
  let tp = sp.s_tp in
  let n_in = Array.length tp.t_input_nets in
  let n_out = Array.length tp.t_out_nets in
  let cap = s * lanes in
  let act = b.b_activity in
  let j = ref lo in
  while !j < hi do
    let count = min cap (hi - !j) in
    let full_words = (count + lanes - 1) / lanes in
    let word0 = !j / lanes in
    strip_reset st;
    let gens =
      if act >= 1.0 then [||]
      else Array.init count (fun k -> Prng.copy b.b_gens.(!j + k))
    in
    for c = 1 to b.b_cycles do
      for ii = 0 to n_in - 1 do
        let _, net = tp.t_input_nets.(ii) in
        for w = 0 to full_words - 1 do
          if act >= 1.0 then strip_poke st net w (stim_word b (word0 + w) c ii)
          else begin
            let base = w * lanes in
            let cnt = min lanes (count - base) in
            let prev = st.sv.((net * s) + w) in
            let word = ref 0 in
            for k = 0 to cnt - 1 do
              if stimulus_bit gens.(base + k) act ((prev lsr k) land 1 = 1)
              then word := !word lor (1 lsl k)
            done;
            strip_poke st net w !word
          end
        done
      done;
      strip_settle st;
      strip_latch st
    done;
    strip_settle st;
    for w = 0 to full_words - 1 do
      let base = w * lanes in
      let cnt = min lanes (count - base) in
      for k = 0 to cnt - 1 do
        let row = bits.(!j + base + k) in
        for oi = 0 to n_out - 1 do
          let _, net = tp.t_out_nets.(oi) in
          row.(oi) <- (st.sv.((net * s) + w) lsr k) land 1 = 1
        done
      done
    done;
    j := !j + count
  done

let run_strips ?(jobs = 1) ?(words = 8) nl b =
  let n = b.b_n in
  Trace.with_span "sim.run"
    ~args:
      [
        ("netlist", Netlist.name nl);
        ("vectors", string_of_int n);
        ("strip_words", string_of_int words);
      ]
    (fun () ->
      let sp = strip_tape nl words in
      let n_out = Array.length sp.s_tp.t_out_nets in
      let bits = Array.init n (fun _ -> Array.make n_out false) in
      let t0 = Trace.now_us () in
      (* rows are disjoint, so shards never share a cell *)
      ignore
        (sharded ~jobs ~words nl n (fun st lo hi ->
             run_strips_into st b bits lo hi));
      observe_throughput n t0;
      { out_names = out_names_of sp.s_tp; out_bits = bits })

(* ------------------------ mutant-lane packing ------------------------ *)

(* Concurrent fault simulation at the netlist level: every lane carries
   the SAME stimulus stream (one shared draw per non-forced input per
   cycle, replicated across lanes) while the [forced] inputs — mutant
   enable gates, in the Rtl use — carry a distinct per-lane word.  One
   tape pass therefore evaluates up to [lanes] trojan on/off variants of
   one vector.  Runs on a 1-word strip with the fused clock. *)
let run_mutants ?(cycles = 1) ~prng ~forced nl =
  if cycles < 1 then invalid_arg "Packed.run_mutants: cycles < 1";
  let st = strip ~words:1 nl in
  let tp = st.sp.s_tp in
  let g = Prng.copy prng in
  for _ = 1 to cycles do
    Array.iter
      (fun (nm, net) ->
        strip_poke st net 0
          (match List.assoc_opt nm forced with
          | Some w -> w
          | None -> if Prng.bool g then all_lanes else 0))
      tp.t_input_nets;
    strip_settle st;
    strip_latch st
  done;
  strip_settle st;
  let n_out = Array.length tp.t_out_nets in
  let bits =
    Array.init lanes (fun k ->
        Array.init n_out (fun oi ->
            let _, net = tp.t_out_nets.(oi) in
            (strip_peek_index st net 0 lsr k) land 1 = 1))
  in
  { out_names = out_names_of tp; out_bits = bits }

let run_mutants_reference ?(cycles = 1) ~prng ~forced nl =
  if cycles < 1 then invalid_arg "Packed.run_mutants_reference: cycles < 1";
  Netlist.finalise nl;
  let sim = Sim.create nl in
  let names = Array.of_list (Netlist.input_names nl) in
  let outs = Array.of_list (Netlist.outputs nl) in
  let bits =
    Array.init lanes (fun k ->
        Sim.reset sim;
        let g = Prng.copy prng in
        for _ = 1 to cycles do
          Array.iter
            (fun nm ->
              match List.assoc_opt nm forced with
              | Some w -> Sim.set_input sim nm ((w lsr k) land 1 = 1)
              | None -> Sim.set_input sim nm (Prng.bool g))
            names;
          Sim.clock sim
        done;
        Array.map (fun (_, net) -> Sim.peek sim net) outs)
  in
  { out_names = Array.map fst outs; out_bits = bits }
