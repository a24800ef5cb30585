(* Word-sized modular arithmetic.

   All RNS moduli in this library are <= 30 bits, matching the paper's
   28-bit datapath with a little headroom.  A product of two residues
   then fits in OCaml's 63-bit native int, so every operation below is
   branch-light native-int code.

   Barrett reduction: for modulus q with k = bits(q), precompute
   mu = floor(2^(2k+3) / q).  Then for x < 2^(2k+3),
   x - q * floor(x * mu / 2^(2k+3)) lies in [0, 2q) after at most one
   correction.  We use the simpler (and still single-correction) form
   operating on the full product. *)

type modulus = {
  q : int; (* the modulus, 2 < q < 2^30 *)
  shift : int; (* 2k where k = bit width used for Barrett *)
  mu : int; (* floor(2^shift / q) *)
}

let max_modulus_bits = 30

let bit_width q =
  let rec go acc v = if v = 0 then acc else go (acc + 1) (v lsr 1) in
  go 0 q

let modulus q =
  if q < 3 || bit_width q > max_modulus_bits then invalid_arg "Modarith.modulus: out of range";
  let k = bit_width q in
  let shift = 2 * k in
  (* 2^shift <= 2^60 so this division is exact native-int arithmetic. *)
  let mu = (1 lsl shift) / q in
  { q; shift; mu }

let q m = m.q

let[@inline] reduce m x =
  (* x in [0, 2^(2k)) roughly; one Barrett step plus correction. *)
  let t = x - (((x lsr (m.shift / 2 - 1)) * m.mu) lsr (m.shift / 2 + 1)) * m.q in
  let t = if t >= m.q then t - m.q else t in
  if t >= m.q then t - m.q else t

(* Shoup precomputation for multiplication by a fixed operand w < q:
   with w' = floor(w * 2^31 / q), the product
     v = x*w - (x*w' lsr 31) * q
   is congruent to x*w mod q and lies in [0, 2q) — two multiplies, a
   shift and a subtract, no mu chain.  The NTT butterflies use it for
   twiddles; 31 is chosen so both x*w and x*w' stay below 2^62 for the
   lazy input ranges the kernels maintain (x < 4q when q < 2^29,
   x < 2q otherwise). *)
let shoup_shift = 31

let shoup m w =
  if w < 0 || w >= m.q then invalid_arg "Modarith.shoup: operand not a residue";
  (w lsl shoup_shift) / m.q

let[@inline] add m a b =
  let s = a + b in
  if s >= m.q then s - m.q else s

let[@inline] sub m a b =
  let d = a - b in
  if d < 0 then d + m.q else d

let[@inline] neg m a = if a = 0 then 0 else m.q - a

let[@inline] mul m a b = reduce m (a * b)

let rec pow m base e =
  if e = 0 then 1
  else begin
    let h = pow m base (e / 2) in
    let h2 = mul m h h in
    if e land 1 = 1 then mul m h2 (base mod m.q) else h2
  end

(* Modular inverse by Fermat (moduli are prime in this library). *)
let inv m a =
  if a mod m.q = 0 then invalid_arg "Modarith.inv: zero";
  pow m a (m.q - 2)

(* Map a signed int to its canonical residue. *)
let of_int m v =
  let r = v mod m.q in
  if r < 0 then r + m.q else r

(* Centered representative in (-q/2, q/2]. *)
let to_centered m r = if r > m.q / 2 then r - m.q else r

let pp fmt m = Format.fprintf fmt "q=%d" m.q
