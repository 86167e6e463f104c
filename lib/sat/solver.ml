(* CDCL SAT solver (MiniSat lineage): two-watched-literal propagation,
   VSIDS-style variable activities with an indexed max-heap, first-UIP
   conflict analysis, activity-driven learnt-clause deletion, Luby
   restarts, phase saving, and incremental solving under assumptions.

   External literals are DIMACS integers (variable [v >= 1], negation
   [-v]); internally a literal is [(var lsl 1) lor sign] with [sign = 1]
   for the negation, so arrays index by literal directly.

   Every clause lives in one flat int arena: a header word followed by
   its internal literals, the first two of which are watched.  A clause
   is named by the offset of its header; reasons and watch lists hold
   offsets, [-1] standing for "no reason".  Learnt-clause activities sit
   in a float array parallel to the [learnts] offset vector.  Deleting
   learnt clauses marks their headers; once the dead words pass a fifth
   of the arena, [compact] slides the live clauses down in place and
   remaps every offset, keeping the order of each watch list. *)

module Trace = Thr_obs.Trace
module Metrics = Thr_obs.Metrics

type result = Sat | Unsat | Unknown

type t = {
  mutable n_vars : int;
  mutable cap : int; (* capacity of the per-variable arrays *)
  (* clause arena *)
  mutable arena : int array;
  mutable arena_sz : int;
  mutable wasted : int; (* words held by deleted clauses *)
  mutable n_problem : int; (* problem clauses stored *)
  mutable learnts : int array; (* learnt-clause offsets, arena order *)
  mutable act : float array; (* learnt activities, parallel to [learnts] *)
  mutable n_learnts : int;
  (* per literal *)
  mutable vals : Bytes.t; (* '\001' true, '\002' false, '\000' unassigned *)
  mutable watch : int array array; (* clause offsets; [||] until first use *)
  mutable watch_sz : int array;
  (* per variable *)
  mutable level : int array;
  mutable reason : int array; (* clause offset, -1 for none *)
  mutable activity : float array;
  mutable phase : Bytes.t; (* saved polarity, '\001' for true *)
  mutable seen : Bytes.t; (* conflict-analysis marks *)
  mutable model : Bytes.t; (* last satisfying assignment, '\001' for true *)
  mutable heap : int array; (* binary max-heap of vars by activity *)
  mutable heap_sz : int;
  mutable heap_pos : int array; (* var -> heap slot, -1 when absent *)
  mutable trail : int array;
  mutable trail_sz : int;
  mutable trail_lim : int array;
  mutable trail_lim_sz : int;
  mutable qhead : int;
  (* scratch: the clause being added, the learnt clause being built *)
  mutable add_buf : int array;
  mutable lit_buf : int array;
  mutable learnt_len : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable max_learnts : float;
  mutable ok : bool; (* false once unsatisfiable at level 0 *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable learned : int;
}

let var_decay = 1.0 /. 0.95

let cla_decay = 1.0 /. 0.999

let create () =
  {
    n_vars = 0;
    cap = 0;
    arena = [||];
    arena_sz = 0;
    wasted = 0;
    n_problem = 0;
    learnts = [||];
    act = [||];
    n_learnts = 0;
    vals = Bytes.empty;
    watch = [||];
    watch_sz = [||];
    level = [||];
    reason = [||];
    activity = [||];
    phase = Bytes.empty;
    seen = Bytes.empty;
    model = Bytes.empty;
    heap = [||];
    heap_sz = 0;
    heap_pos = [||];
    trail = [||];
    trail_sz = 0;
    trail_lim = [||];
    trail_lim_sz = 0;
    qhead = 0;
    add_buf = Array.make 8 0;
    lit_buf = Array.make 8 0;
    learnt_len = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    max_learnts = 100.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    learned = 0;
  }

(* ---------------------------- literals ----------------------------- *)

let var l = l lsr 1

let mk_lit v s = (v lsl 1) lor s

let of_dimacs t d =
  let v = abs d - 1 in
  if d = 0 || v >= t.n_vars then
    invalid_arg (Printf.sprintf "Solver: literal %d out of range" d);
  mk_lit v (if d < 0 then 1 else 0)

let l_true = '\001'

let l_false = '\002'

let l_undef = '\000'

(* 1 true, -1 false, 0 undef *)
let value t l =
  let c = Bytes.get t.vals l in
  if c = l_true then 1 else if c = l_false then -1 else 0

let decision_level t = t.trail_lim_sz

(* Int-array copy.  [Array.blit] runs the write barrier on every word
   stored into a major-heap array; a loop over arrays typed [int] stores
   plain words.  Copies forwards, so [dst] may overlap [src] below it. *)
let blit_ints (src : int array) so (dst : int array) d n =
  for i = 0 to n - 1 do
    dst.(d + i) <- src.(so + i)
  done

(* ---------------------------- the arena ---------------------------- *)

(* Header word: bit 0 deleted, bit 1 learnt, bits 2-31 the literal
   count, bits 32 and up [aux] — a learnt clause's slot in [learnts] and
   [act], and during [compact] every live clause's new offset. *)
let hdr_size h = (h lsr 2) land 0x3FFF_FFFF

let hdr_deleted h = h land 1 = 1

let hdr_learnt h = h land 2 = 2

let hdr_aux h = h lsr 32

let hdr_with_aux h a = (h land 0xFFFF_FFFF) lor (a lsl 32)

(* Grow by half: a doubling arena would, while copying, hold its old
   buffer next to one twice its size. *)
let reserve t words =
  let need = t.arena_sz + words in
  if need > Array.length t.arena then begin
    let cap = max (max need 1024) (Array.length t.arena * 3 / 2) in
    let d = Array.make cap 0 in
    blit_ints t.arena 0 d 0 t.arena_sz;
    t.arena <- d
  end

(* Copy [len] internal literals from [src] into a new clause; returns
   its offset.  A learnt clause joins [learnts] with activity 0. *)
let alloc_clause t ~learnt src len =
  reserve t (len + 1);
  let c = t.arena_sz in
  let hdr = (len lsl 2) lor (if learnt then 2 else 0) in
  if learnt then begin
    let n = t.n_learnts in
    if n = Array.length t.learnts then begin
      let cap = max 16 (2 * n) in
      let l = Array.make cap 0 and a = Array.make cap 0.0 in
      blit_ints t.learnts 0 l 0 n;
      Array.blit t.act 0 a 0 n;
      t.learnts <- l;
      t.act <- a
    end;
    t.learnts.(n) <- c;
    t.act.(n) <- 0.0;
    t.n_learnts <- n + 1;
    t.arena.(c) <- hdr_with_aux hdr n
  end
  else begin
    t.n_problem <- t.n_problem + 1;
    t.arena.(c) <- hdr
  end;
  blit_ints src 0 t.arena (c + 1) len;
  t.arena_sz <- c + 1 + len;
  c

(* --------------------------- growth/heap --------------------------- *)

let grow a cap fill =
  let d = Array.make cap fill in
  Array.blit a 0 d 0 (Array.length a);
  d

let grow_int a cap fill =
  let d = Array.make cap fill in
  blit_ints a 0 d 0 (Array.length a);
  d

let grow_bytes b cap =
  let d = Bytes.make cap '\000' in
  Bytes.blit b 0 d 0 (Bytes.length b);
  d

(* every per-variable and per-literal array at once, to [cap] vars *)
let grow_vars t cap =
  t.vals <- grow_bytes t.vals (2 * cap);
  t.watch <- grow t.watch (2 * cap) [||];
  t.watch_sz <- grow_int t.watch_sz (2 * cap) 0;
  t.level <- grow_int t.level cap 0;
  t.reason <- grow_int t.reason cap (-1);
  t.activity <- grow t.activity cap 0.0;
  t.phase <- grow_bytes t.phase cap;
  t.seen <- grow_bytes t.seen cap;
  t.model <- grow_bytes t.model cap;
  t.heap <- grow_int t.heap cap 0;
  t.heap_pos <- grow_int t.heap_pos cap (-1);
  t.trail <- grow_int t.trail cap 0;
  t.cap <- cap

let heap_swap t i j =
  let u = t.heap.(i) and v = t.heap.(j) in
  t.heap.(i) <- v;
  t.heap.(j) <- u;
  t.heap_pos.(v) <- i;
  t.heap_pos.(u) <- j

let rec heap_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if t.activity.(t.heap.(i)) > t.activity.(t.heap.(p)) then begin
      heap_swap t i p;
      heap_up t p
    end
  end

let rec heap_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < t.heap_sz && t.activity.(t.heap.(l)) > t.activity.(t.heap.(!best))
  then best := l;
  if r < t.heap_sz && t.activity.(t.heap.(r)) > t.activity.(t.heap.(!best))
  then best := r;
  if !best <> i then begin
    heap_swap t i !best;
    heap_down t !best
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    t.heap.(t.heap_sz) <- v;
    t.heap_pos.(v) <- t.heap_sz;
    t.heap_sz <- t.heap_sz + 1;
    heap_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_sz <- t.heap_sz - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_sz > 0 then begin
    t.heap.(0) <- t.heap.(t.heap_sz);
    t.heap_pos.(t.heap.(0)) <- 0;
    heap_down t 0
  end;
  v

(* --------------------------- activities ---------------------------- *)

let bump_var t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for u = 0 to t.n_vars - 1 do
      t.activity.(u) <- t.activity.(u) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then heap_up t t.heap_pos.(v)

let decay_var t = t.var_inc <- t.var_inc *. var_decay

let bump_clause t c =
  let i = hdr_aux t.arena.(c) in
  t.act.(i) <- t.act.(i) +. t.cla_inc;
  if t.act.(i) > 1e20 then begin
    for k = 0 to t.n_learnts - 1 do
      t.act.(k) <- t.act.(k) *. 1e-20
    done;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let decay_clause t = t.cla_inc <- t.cla_inc *. cla_decay

(* ----------------------------- new_var ----------------------------- *)

let new_var t =
  let v = t.n_vars in
  if v = t.cap then grow_vars t (max 16 (2 * t.cap));
  t.n_vars <- v + 1;
  heap_insert t v;
  v + 1

(* ----------------------- assignment and trail ---------------------- *)

let enqueue t l reason =
  let v = var l in
  Bytes.set t.vals l l_true;
  Bytes.set t.vals (l lxor 1) l_false;
  t.level.(v) <- decision_level t;
  t.reason.(v) <- reason;
  t.trail.(t.trail_sz) <- l;
  t.trail_sz <- t.trail_sz + 1;
  t.propagations <- t.propagations + 1

(* Assumptions already implied still open a level each, so the level
   count can pass the variable count: [trail_lim] grows on demand. *)
let new_decision_level t =
  if t.trail_lim_sz = Array.length t.trail_lim then
    t.trail_lim <- grow_int t.trail_lim (max 16 (2 * t.trail_lim_sz)) 0;
  t.trail_lim.(t.trail_lim_sz) <- t.trail_sz;
  t.trail_lim_sz <- t.trail_lim_sz + 1

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = t.trail_lim.(lvl) in
    for i = t.trail_sz - 1 downto bound do
      let l = t.trail.(i) in
      let v = var l in
      Bytes.set t.phase v
        (if Bytes.get t.vals (mk_lit v 0) = l_true then l_true else l_undef);
      Bytes.set t.vals l l_undef;
      Bytes.set t.vals (l lxor 1) l_undef;
      t.reason.(v) <- -1;
      heap_insert t v
    done;
    t.trail_sz <- bound;
    t.qhead <- bound;
    t.trail_lim_sz <- lvl
  end

(* --------------------------- propagation --------------------------- *)

let watch_push t l c =
  let ws = t.watch.(l) and n = t.watch_sz.(l) in
  if n = Array.length ws then begin
    let d = Array.make (max 4 (2 * n)) 0 in
    blit_ints ws 0 d 0 n;
    d.(n) <- c;
    t.watch.(l) <- d
  end
  else ws.(n) <- c;
  t.watch_sz.(l) <- n + 1

let attach t c =
  watch_push t t.arena.(c + 1) c;
  watch_push t t.arena.(c + 2) c

(* A deleted clause still on a watch list (compaction is lazy) is
   dropped from it when met, exactly as if it had been removed.  The
   loop reads unchecked: watch lists hold live offsets only, a clause's
   literals end inside the arena, and every literal indexes [vals]. *)
let propagate t =
  let confl = ref (-1) in
  let arena = t.arena and vals = t.vals in
  while !confl < 0 && t.qhead < t.trail_sz do
    let p = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let false_lit = p lxor 1 in
    (* nothing is pushed onto [false_lit]'s own list below, so [ws]
       stays the list's buffer throughout *)
    let ws = t.watch.(false_lit) in
    let n = t.watch_sz.(false_lit) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = Array.unsafe_get ws !i in
      incr i;
      let hdr = Array.unsafe_get arena c in
      if not (hdr_deleted hdr) then begin
        (* normalise: the false watched literal sits at c + 2 *)
        if Array.unsafe_get arena (c + 1) = false_lit then begin
          Array.unsafe_set arena (c + 1) (Array.unsafe_get arena (c + 2));
          Array.unsafe_set arena (c + 2) false_lit
        end;
        let first = Array.unsafe_get arena (c + 1) in
        if Bytes.unsafe_get vals first = l_true then begin
          (* clause already satisfied: keep the watch *)
          Array.unsafe_set ws !j c;
          incr j
        end
        else begin
          (* look for a non-false literal to watch instead *)
          let stop = c + 1 + hdr_size hdr in
          let k = ref (c + 3) in
          while
            !k < stop
            && Bytes.unsafe_get vals (Array.unsafe_get arena !k) = l_false
          do
            incr k
          done;
          if !k < stop then begin
            let l = Array.unsafe_get arena !k in
            Array.unsafe_set arena (c + 2) l;
            Array.unsafe_set arena !k false_lit;
            watch_push t l c
          end
          else begin
            Array.unsafe_set ws !j c;
            incr j;
            if Bytes.unsafe_get vals first = l_false then begin
              (* conflict: keep the remaining watches and stop *)
              confl := c;
              while !i < n do
                Array.unsafe_set ws !j (Array.unsafe_get ws !i);
                incr j;
                incr i
              done;
              t.qhead <- t.trail_sz
            end
            else enqueue t first c
          end
        end
      end
    done;
    t.watch_sz.(false_lit) <- !j
  done;
  !confl

(* ------------------------ conflict analysis ------------------------ *)

let lit_buf_reserve t n =
  if n > Array.length t.lit_buf then
    t.lit_buf <- grow_int t.lit_buf (max n (2 * Array.length t.lit_buf)) 0

(* First-UIP: walk the trail backwards resolving on literals of the
   current decision level until one remains; the learnt clause is that
   UIP's negation plus the lower-level literals met on the way, latest
   first.  The clause is left in [lit_buf.(0 .. learnt_len - 1)] with
   the asserting literal first and a literal of the backjump level
   second; the backjump level is returned. *)
let analyze t confl =
  (* lower-level literals collect from slot 1 in discovery order *)
  let n_lower = ref 0 in
  let pathc = ref 0 in
  let p = ref (-1) in
  let c = ref confl in
  let index = ref (t.trail_sz - 1) in
  let looping = ref true in
  while !looping do
    let c0 = !c in
    let hdr = t.arena.(c0) in
    if hdr_learnt hdr then bump_clause t c0;
    let start = if !p = -1 then 0 else 1 in
    for k = start to hdr_size hdr - 1 do
      let q = t.arena.(c0 + 1 + k) in
      let v = var q in
      if Bytes.get t.seen v = '\000' && t.level.(v) > 0 then begin
        bump_var t v;
        Bytes.set t.seen v '\001';
        if t.level.(v) >= decision_level t then incr pathc
        else begin
          lit_buf_reserve t (!n_lower + 2);
          t.lit_buf.(!n_lower + 1) <- q;
          incr n_lower
        end
      end
    done;
    while Bytes.get t.seen (var t.trail.(!index)) = '\000' do
      decr index
    done;
    p := t.trail.(!index);
    decr index;
    Bytes.set t.seen (var !p) '\000';
    decr pathc;
    if !pathc = 0 then looping := false
    else begin
      c := t.reason.(var !p);
      assert (!c >= 0) (* a decision cannot be mid-path *)
    end
  done;
  let buf = t.lit_buf in
  let len = !n_lower + 1 in
  buf.(0) <- !p lxor 1;
  (* latest first: reverse the lower-level literals in place *)
  let lo = ref 1 and hi = ref (len - 1) in
  while !lo < !hi do
    let x = buf.(!lo) in
    buf.(!lo) <- buf.(!hi);
    buf.(!hi) <- x;
    incr lo;
    decr hi
  done;
  for k = 1 to len - 1 do
    Bytes.set t.seen (var buf.(k)) '\000'
  done;
  t.learnt_len <- len;
  if len = 1 then 0
  else begin
    (* the second-highest decision level, swapped into the watch slot *)
    let mx = ref 1 in
    for k = 2 to len - 1 do
      if t.level.(var buf.(k)) > t.level.(var buf.(!mx)) then mx := k
    done;
    let tmp = buf.(1) in
    buf.(1) <- buf.(!mx);
    buf.(!mx) <- tmp;
    t.level.(var buf.(1))
  end

let record_learnt t =
  let len = t.learnt_len in
  if len = 1 then enqueue t t.lit_buf.(0) (-1)
  else begin
    let c = alloc_clause t ~learnt:true t.lit_buf len in
    attach t c;
    bump_clause t c;
    enqueue t t.lit_buf.(0) c
  end;
  t.learned <- t.learned + 1

(* ----------------------- learnt-DB reduction ----------------------- *)

let locked t c =
  let l0 = t.arena.(c + 1) in
  t.reason.(var l0) = c && value t l0 = 1

(* Slide every live clause down over the deleted ones.  Pass 1 stores
   each live clause's new offset in its header; pass 2 rewrites the
   watch lists (dropping deleted entries, keeping order), the reasons
   and [learnts] through those headers; pass 3 moves the clauses and
   re-stamps the learnt slots, which follow arena order as [learnts]
   does.  [reduce_db] has already dropped the deleted learnts. *)
let compact t =
  let arena = t.arena in
  let o = ref 0 and dst = ref 0 in
  while !o < t.arena_sz do
    let h = arena.(!o) in
    let len = hdr_size h in
    if not (hdr_deleted h) then begin
      arena.(!o) <- hdr_with_aux h !dst;
      dst := !dst + 1 + len
    end;
    o := !o + 1 + len
  done;
  let new_sz = !dst in
  for l = 0 to (2 * t.n_vars) - 1 do
    let ws = t.watch.(l) in
    let j = ref 0 in
    for i = 0 to t.watch_sz.(l) - 1 do
      let h = arena.(ws.(i)) in
      if not (hdr_deleted h) then begin
        ws.(!j) <- hdr_aux h;
        incr j
      end
    done;
    t.watch_sz.(l) <- !j
  done;
  for v = 0 to t.n_vars - 1 do
    let r = t.reason.(v) in
    if r >= 0 then t.reason.(v) <- hdr_aux arena.(r)
  done;
  for i = 0 to t.n_learnts - 1 do
    t.learnts.(i) <- hdr_aux arena.(t.learnts.(i))
  done;
  let slot = ref 0 in
  o := 0;
  while !o < t.arena_sz do
    let h = arena.(!o) in
    let len = hdr_size h in
    if not (hdr_deleted h) then begin
      let d = hdr_aux h in
      blit_ints arena (!o + 1) arena (d + 1) len;
      arena.(d) <-
        (if hdr_learnt h then begin
           let s = !slot in
           incr slot;
           hdr_with_aux h s
         end
         else hdr_with_aux h 0)
    end;
    o := !o + 1 + len
  done;
  t.arena_sz <- new_sz;
  t.wasted <- 0

let reduce_db t =
  let n = t.n_learnts in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare t.act.(a) t.act.(b)) order;
  let keep_from = n / 2 in
  for i = 0 to keep_from - 1 do
    let c = t.learnts.(order.(i)) in
    let h = t.arena.(c) in
    if hdr_size h > 2 && not (locked t c) then begin
      t.arena.(c) <- h lor 1;
      t.wasted <- t.wasted + 1 + hdr_size h
    end
  done;
  let j = ref 0 in
  for i = 0 to n - 1 do
    let c = t.learnts.(i) in
    if not (hdr_deleted t.arena.(c)) then begin
      t.learnts.(!j) <- c;
      t.act.(!j) <- t.act.(i);
      t.arena.(c) <- hdr_with_aux t.arena.(c) !j;
      incr j
    end
  done;
  t.n_learnts <- !j;
  if 5 * t.wasted > t.arena_sz then compact t;
  t.max_learnts <- t.max_learnts *. 1.15

(* ---------------------------- add_clause --------------------------- *)

(* sort [a.(0 .. n - 1)] in place: insertion sort for the short clauses
   CNF emits, [Array.sort] on a copy past 32 literals *)
let sort_prefix (a : int array) n =
  if n > 32 then begin
    let s = Array.sub a 0 n in
    Array.sort Int.compare s;
    Array.blit s 0 a 0 n
  end
  else
    for i = 1 to n - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

(* The clause is stored with its literals in ascending internal order,
   duplicates merged and root-level false literals dropped. *)
let add_clause_array t lits n =
  if t.ok then begin
    if n > Array.length t.add_buf then
      t.add_buf <- Array.make (max n (2 * Array.length t.add_buf)) 0;
    let buf = t.add_buf in
    for i = 0 to n - 1 do
      buf.(i) <- of_dimacs t lits.(i)
    done;
    sort_prefix buf n;
    (* one pass: merge duplicates, drop false literals, and give up on a
       true literal or a literal next to its negation (a tautology whose
       variable is unassigned; an assigned one makes a literal true) *)
    let k = ref 0 and prev = ref (-1) and i = ref 0 in
    while !i < n do
      let l = buf.(!i) in
      incr i;
      if l <> !prev then begin
        prev := l;
        let c = Bytes.get t.vals l in
        if c = l_true || (!k > 0 && buf.(!k - 1) lxor 1 = l) then begin
          k := -1;
          i := n
        end
        else if c = l_undef then begin
          buf.(!k) <- l;
          incr k
        end
      end
    done;
    match !k with
    | -1 -> ()
    | 0 -> t.ok <- false
    | 1 ->
        enqueue t buf.(0) (-1);
        if propagate t >= 0 then t.ok <- false
    | k -> attach t (alloc_clause t ~learnt:false buf k)
  end

let add_clause t dimacs =
  let n = List.length dimacs in
  lit_buf_reserve t n;
  List.iteri (fun i d -> t.lit_buf.(i) <- d) dimacs;
  add_clause_array t t.lit_buf n

(* ------------------------------ search ----------------------------- *)

(* Luby restart sequence: 1 1 2 1 1 2 4 ... *)
let rec luby i =
  let rec size_seq sz len = if sz >= i + 1 then (sz, len) else size_seq ((2 * sz) + 1) (len + 1) in
  let sz, len = size_seq 1 0 in
  if sz = i + 1 then 1 lsl len else luby (i - (sz / 2))

let restart_first = 100

let steps t = t.decisions + t.propagations + t.conflicts

(* the unassigned variable of highest activity, -1 when none is left *)
let rec choose_var t =
  if t.heap_sz = 0 then -1
  else
    let v = heap_pop t in
    if Bytes.get t.vals (mk_lit v 0) = l_undef then v else choose_var t

let save_model t =
  for v = 0 to t.n_vars - 1 do
    Bytes.set t.model v
      (if Bytes.get t.vals (mk_lit v 0) = l_true then l_true else l_undef)
  done

(* Open the next decision level: the next assumption (assumptions are
   decided first, one level each, in order), else the most active
   unassigned variable at its saved phase.  [Some r] ends the search. *)
let rec decide t asms =
  if decision_level t < Array.length asms then begin
    let p = asms.(decision_level t) in
    match value t p with
    | 1 ->
        new_decision_level t;
        decide t asms
    | -1 -> Some Unsat
    | _ ->
        new_decision_level t;
        enqueue t p (-1);
        None
  end
  else
    let v = choose_var t in
    if v < 0 then begin
      save_model t;
      Some Sat
    end
    else begin
      t.decisions <- t.decisions + 1;
      new_decision_level t;
      let sign = if Bytes.get t.phase v = l_true then 0 else 1 in
      enqueue t (mk_lit v sign) (-1);
      None
    end

let search t ~asms ~within_budget =
  let result = ref None in
  let restarts = ref 0 in
  let conflict_c = ref 0 in
  let limit = ref (restart_first * luby 0) in
  while Option.is_none !result do
    let confl = propagate t in
    if confl >= 0 then begin
      t.conflicts <- t.conflicts + 1;
      incr conflict_c;
      if decision_level t = 0 then begin
        t.ok <- false;
        result := Some Unsat
      end
      else begin
        let bt = analyze t confl in
        cancel_until t bt;
        record_learnt t;
        decay_var t;
        decay_clause t;
        if not (within_budget ()) then result := Some Unknown
      end
    end
    else if not (within_budget ()) then result := Some Unknown
    else if !conflict_c >= !limit then begin
      incr restarts;
      conflict_c := 0;
      limit := restart_first * luby !restarts;
      cancel_until t 0
    end
    else begin
      if float_of_int t.n_learnts >= t.max_learnts then reduce_db t;
      result := decide t asms
    end
  done;
  cancel_until t 0;
  match !result with Some r -> r | None -> assert false

(* ----------------------------- metrics ----------------------------- *)

let m_conflicts = Metrics.counter "thr_sat_conflicts_total"

let m_decisions = Metrics.counter "thr_sat_decisions_total"

let m_propagations = Metrics.counter "thr_sat_propagations_total"

let m_learned = Metrics.counter "thr_sat_learned_clauses_total"

let solve_buckets = [| 0.1; 1.0; 5.0; 10.0; 50.0; 100.0; 500.0; 1e3; 5e3; 3e4 |]

let m_solve_ms = Metrics.histogram ~buckets:solve_buckets "thr_sat_solve_ms"

(* per-phase siblings so `bench -- sat` can attribute solve time to the
   plain BMC sweep, the k-induction base case or the inductive step *)
let m_solve_ms_bmc =
  Metrics.histogram ~buckets:solve_buckets "thr_sat_solve_ms_bmc"

let m_solve_ms_base =
  Metrics.histogram ~buckets:solve_buckets "thr_sat_solve_ms_base"

let m_solve_ms_step =
  Metrics.histogram ~buckets:solve_buckets "thr_sat_solve_ms_step"

(* ------------------------------ solve ------------------------------ *)

let solve ?(assumptions = []) ?phase ?max_steps t =
  Trace.with_span "sat.solve"
    ~args:
      [
        ("vars", string_of_int t.n_vars);
        ("clauses", string_of_int (t.n_problem + t.n_learnts));
      ]
    (fun () ->
      let t0 = Trace.now_us () in
      let c0 = t.conflicts
      and d0 = t.decisions
      and p0 = t.propagations
      and l0 = t.learned in
      let s0 = steps t in
      let r =
        if not t.ok then Unsat
        else begin
          cancel_until t 0;
          let asms = Array.of_list (List.map (of_dimacs t) assumptions) in
          let within_budget () =
            match max_steps with None -> true | Some m -> steps t - s0 < m
          in
          search t ~asms ~within_budget
        end
      in
      Metrics.add m_conflicts (t.conflicts - c0);
      Metrics.add m_decisions (t.decisions - d0);
      Metrics.add m_propagations (t.propagations - p0);
      Metrics.add m_learned (t.learned - l0);
      let ms = (Trace.now_us () -. t0) /. 1e3 in
      Metrics.observe m_solve_ms ms;
      (match phase with
      | Some `Bmc -> Metrics.observe m_solve_ms_bmc ms
      | Some `Base -> Metrics.observe m_solve_ms_base ms
      | Some `Step -> Metrics.observe m_solve_ms_step ms
      | None -> ());
      r)

let value t d =
  let v = abs d - 1 in
  if d = 0 || v >= t.n_vars then
    invalid_arg (Printf.sprintf "Solver.value: literal %d out of range" d);
  let a = Bytes.get t.model v = l_true in
  if d > 0 then a else not a

let ok t = t.ok

let n_vars t = t.n_vars

let n_clauses t = t.n_problem

let n_learnts t = t.n_learnts

let conflicts t = t.conflicts

let decisions t = t.decisions

let propagations t = t.propagations

let learned t = t.learned
