(* CKKS parameter sets.

   Two regimes (see DESIGN.md):

   - Functional parameters: small ring dimensions used by tests and
     examples.  Not secure — exactly like the test profiles of every
     FHE library — but they exercise the same code paths.

   - Architectural parameters: the paper's N = 64K / 54-limb / 28-bit
     configuration, used by the compiler and simulator where limbs are
     cost units rather than materialized arrays.

   The modulus chain is [q0; q1 .. qL] (q0 the large base prime, the
   rest "scale primes" sized close to the scale) plus [alpha] special
   primes P used only inside keyswitching (hybrid keyswitching with
   dnum digits). *)

open Cinnamon_rns

type t = {
  log_n : int;
  n : int;
  slots : int; (* default slot count for examples/tests, <= n/2 *)
  q0_bits : int;
  scale_bits : int;
  levels : int; (* number of scale primes; max ciphertext level index *)
  dnum : int; (* number of keyswitching digits *)
  alpha : int; (* limbs per digit = special-prime count *)
  scale : float;
  sigma : float; (* noise stddev *)
  hamming_weight : int; (* secret key density; 0 = dense ternary *)
  q_basis : Basis.t; (* q0 :: scale primes, length levels+1 *)
  p_basis : Basis.t; (* alpha special primes *)
}

let make ?(slots = 0) ?(q0_bits = 29) ?(scale_bits = 26) ?(sigma = 3.2) ?(hamming_weight = 0)
    ~log_n ~levels ~dnum () =
  let n = 1 lsl log_n in
  let slots = if slots = 0 then n / 2 else slots in
  if slots > n / 2 || not (Cinnamon_util.Bitops.is_pow2 slots) then
    invalid_arg "Params.make: slots must be a power of two <= N/2";
  let alpha = Cinnamon_util.Bitops.cdiv (levels + 1) dnum in
  (* Special primes must dominate each digit product; digits hold alpha
     limbs of at most q0_bits bits, so alpha primes of (q0_bits+1) bits
     gives comfortable headroom while staying within the 30-bit cap. *)
  let p_bits = min Modarith.max_modulus_bits (q0_bits + 1) in
  (* When q0 is sized like the scale primes (the bootstrapping regime,
     where EvalMod divides by q0 and rescales back to the scale), draw
     it from the same balanced pool; otherwise pick the largest prime
     of its own width. *)
  let scale_primes, q0 =
    if q0_bits = scale_bits then begin
      match Prime_gen.gen_primes_near ~bits:scale_bits ~n ~count:(levels + 1) () with
      | q0 :: rest -> (rest, [ q0 ])
      | [] -> assert false
    end
    else begin
      let q0 = Prime_gen.gen_primes ~bits:q0_bits ~n ~count:1 () in
      (Prime_gen.gen_primes_near ~bits:scale_bits ~n ~count:levels ~avoid:q0 (), q0)
    end
  in
  let p_primes =
    Prime_gen.gen_primes ~bits:p_bits ~n ~count:alpha ~avoid:(q0 @ scale_primes) ()
  in
  {
    log_n;
    n;
    slots;
    q0_bits;
    scale_bits;
    levels;
    dnum;
    alpha;
    scale = Float.pow 2.0 (Float.of_int scale_bits);
    sigma;
    hamming_weight;
    q_basis = Basis.of_primes (q0 @ scale_primes);
    p_basis = Basis.of_primes p_primes;
  }

(* Basis of a ciphertext at level l: q0 plus l scale primes. *)
let basis_at_level t l =
  if l < 0 || l > t.levels then invalid_arg "Params.basis_at_level";
  Basis.prefix t.q_basis (l + 1)

let top_level t = t.levels

(* Full keyswitching basis Q_L ∪ P. *)
let qp_basis t = Basis.union t.q_basis t.p_basis

(* The boundaries of the keyswitching digits over the full chain:
   digit i covers limb indices [i*alpha, min((i+1)*alpha, levels+1)). *)
let digit_ranges t =
  let l = t.levels + 1 in
  List.init t.dnum (fun i ->
      let lo = i * t.alpha in
      let hi = min l (lo + t.alpha) in
      (lo, hi))
  |> List.filter (fun (lo, hi) -> hi > lo)

(* Functional presets. *)

let tiny = lazy (make ~log_n:6 ~levels:4 ~dnum:2 ~slots:8 ())
let small = lazy (make ~log_n:10 ~levels:8 ~dnum:3 ~slots:64 ())
let medium = lazy (make ~log_n:12 ~levels:14 ~dnum:3 ~slots:512 ())

(* Full-ring preset at the paper's N = 2^16: the largest chain the
   30-bit functional datapath supports at this ring dimension (primes
   ≡ 1 mod 2N get scarce below 27 bits), used by the full microbench
   tier to measure kernels at architectural scale. *)
let large = lazy (make ~log_n:16 ~levels:12 ~dnum:3 ~slots:1024 ())

(* Bootstrapping preset: sparse secret (bounds the ModRaise overflow
   count K), deep chain, few slots, q0 sized like the scale so EvalMod's
   division by q0 rescales back to the working scale (see DESIGN.md —
   the 30-bit datapath analog of production 60-bit EvalMod primes). *)
let boot =
  lazy
    (make ~log_n:11 ~levels:21 ~dnum:4 ~slots:8 ~q0_bits:26 ~scale_bits:26 ~hamming_weight:8 ())
