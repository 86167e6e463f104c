(* The SplitMix64 counter, kept unboxed in eight bytes: a draw reads and
   writes it in place, where a [mutable int64] field would box every new
   state. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 finaliser: mixes a weak 64-bit counter into a high-quality
   output.  Constants from Steele, Lea & Flood, "Fast splittable
   pseudorandom number generators" (OOPSLA 2014). *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

(* Stateless finaliser over the native 63-bit int, for counter-based
   streams in hot loops: xorshift-multiply rounds in immediate (unboxed)
   arithmetic, so hashing is allocation-free.  Multipliers are odd
   62-bit constants (from xorshift64* / splitmix variants) so literals
   stay in range; arithmetic wraps modulo 2^63. *)
let mix63 z =
  let z = (z lxor (z lsr 31)) * 0x2545F4914F6CDD1D in
  let z = (z lxor (z lsr 29)) * 0x369DEA0F31A53F85 in
  z lxor (z lsr 32)

let split t = of_state (next_int64 t)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (next_int64 t) mask) in
  v mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Prng.sample_without_replacement";
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  Array.to_list (Array.sub a 0 k)
