(* Polynomial approximation machinery for non-linear functions.

   CKKS can only evaluate polynomials, so every non-linearity (the
   EvalMod sine in bootstrapping; GELU / tanh / softmax-exp in the
   paper's BERT benchmark) is fit by a Chebyshev series and evaluated
   with the Paterson–Stockmeyer (baby-step/giant-step) scheme, which
   needs only O(sqrt deg) ciphertext multiplications and log depth.

   Division and inverse square roots use Newton–Raphson iteration, as
   the paper does for BERT (§6.2). *)

module C = Cinnamon_util.Cplx

(* --- Chebyshev fitting (plaintext) ------------------------------------ *)

(* Chebyshev coefficients of f on [a, b], degree [deg], via the
   discrete cosine quadrature at Chebyshev nodes. *)
let chebyshev_fit ~a ~b ~deg f =
  let m = max (4 * (deg + 1)) 64 in
  let nodes =
    Array.init m (fun j -> cos (Float.pi *. (Float.of_int j +. 0.5) /. Float.of_int m))
  in
  let fvals =
    Array.map (fun t -> f (((b -. a) /. 2.0 *. t) +. ((b +. a) /. 2.0))) nodes
  in
  Array.init (deg + 1) (fun k ->
      let s = ref 0.0 in
      for j = 0 to m - 1 do
        s := !s +. (fvals.(j) *. cos (Float.pi *. Float.of_int k *. (Float.of_int j +. 0.5) /. Float.of_int m))
      done;
      let c = 2.0 /. Float.of_int m *. !s in
      if k = 0 then c /. 2.0 else c)

(* Evaluate a Chebyshev series at a plaintext point (Clenshaw). *)
let chebyshev_eval_plain ~a ~b coeffs x =
  let t = ((2.0 *. x) -. (a +. b)) /. (b -. a) in
  let deg = Array.length coeffs - 1 in
  let b1 = ref 0.0 and b2 = ref 0.0 in
  for k = deg downto 1 do
    let tmp = (2.0 *. t *. !b1) -. !b2 +. coeffs.(k) in
    b2 := !b1;
    b1 := tmp
  done;
  (t *. !b1) -. !b2 +. coeffs.(0)

(* --- homomorphic evaluation ------------------------------------------- *)

(* Normalize the ciphertext's domain [a,b] to [-1,1]: y = (2x-(a+b))/(b-a). *)
let normalize ctx ct ~a ~b =
  let scaled = Eval.mul_const ctx ct (2.0 /. (b -. a)) in
  Eval.add_const ctx scaled (-.(a +. b) /. (b -. a))

(* Evaluate a Chebyshev series on a ciphertext already normalized to
   [-1,1] using Paterson–Stockmeyer over the Chebyshev basis:
     - baby steps: T_1 .. T_{g-1}
     - giant steps: T_g, T_{2g}, T_{4g}, ... via T_{2k} = 2 T_k^2 - 1
     - combine group polynomials with the giant Chebyshevs.

   Exact scale management (EVA-style): babies are built freely and then
   adjusted to one common (level, scale) point so every group sum is
   bit-exact; giants and combine sub-results then land on a
   deterministic per-depth (level, scale) schedule, with lo-branches
   adjusted to their siblings.  Without this, terms reaching an
   addition through different rescale paths drift by products of
   (scale/prime) ratios — fatal inside EvalMod where term values are
   O(1) and the wanted signal is 2^-6 of that. *)
let chebyshev_eval ctx t1 coeffs =
  let deg = Array.length coeffs - 1 in
  if deg = 0 then Eval.mul_const ctx t1 0.0 |> fun z -> Eval.add_const ctx z coeffs.(0)
  else begin
    let delta = ctx.Eval.params.Params.scale in
    let basis_all = Ciphertext.basis t1 in
    (* Rescaling a ciphertext at level l drops the prime at basis
       index l (the basis then has l limbs plus q0). *)
    let prime_at level = Float.of_int (Cinnamon_rns.Basis.value basis_all level) in
    (* Choose the baby-step group size: a power of two ~ sqrt(deg). *)
    let g = max 2 (1 lsl ((Cinnamon_util.Bitops.ceil_log2 (deg + 1) + 1) / 2)) in
    let n_groups = Cinnamon_util.Bitops.cdiv (deg + 1) g in
    (* Baby Chebyshev polynomials T_0..T_{g-1} (T_0 = 1 handled as None). *)
    let baby = Array.make (max 2 g) None in
    baby.(1) <- Some t1;
    for k = 2 to g - 1 do
      (* T_k = 2 T_{k/2} T_{k - k/2} - T_{|k/2 - (k-k/2)|} *)
      let h = k / 2 in
      let other = k - h in
      let th = Option.get baby.(h) and to_ = Option.get baby.(other) in
      let prod = Eval.mul ctx th to_ in
      let twice = Eval.mul_int prod 2 in
      let diffn = abs (h - other) in
      let v =
        if diffn = 0 then Eval.add_const ctx twice (-1.0)
        else begin
          (* Exact subtraction: align the shallower T to the product. *)
          let sub_t =
            Eval.adjust_scale ctx
              (Option.get baby.(diffn))
              ~target_level:(Ciphertext.level twice) ~target_scale:(Ciphertext.scale twice)
          in
          Eval.sub twice sub_t
        end
      in
      baby.(k) <- Some v
    done;
    (* Bring every baby to one common (level, scale) point. *)
    let min_level =
      Array.fold_left
        (fun acc b -> match b with None -> acc | Some c -> min acc (Ciphertext.level c))
        max_int baby
    in
    let b_level = min_level - 1 in
    for k = 1 to g - 1 do
      baby.(k) <-
        Some (Eval.adjust_scale ctx (Option.get baby.(k)) ~target_level:b_level ~target_scale:delta)
    done;
    (* Giant Chebyshevs T_g, T_2g, T_4g...  Their natural levels follow
       the combine schedule exactly: giants.(i) lives at b_level-1-i. *)
    let n_giant = Cinnamon_util.Bitops.ceil_log2 (max 1 n_groups) in
    let giants = Array.make (max 1 n_giant) None in
    if n_giant > 0 then begin
      let tg =
        let th = Option.get baby.(g / 2) in
        Eval.add_const ctx (Eval.mul_int (Eval.square ctx th) 2) (-1.0)
      in
      giants.(0) <- Some tg;
      for i = 1 to n_giant - 1 do
        let prev = Option.get giants.(i - 1) in
        giants.(i) <- Some (Eval.add_const ctx (Eval.mul_int (Eval.square ctx prev) 2) (-1.0))
      done
    end;
    (* Per-depth (level, scale) schedule for combine results.  Depth 0 =
       the base polynomials (deg < g): sums of mul_plain(baby_j, c_j)
       at identical inputs, hence identical scale delta^2 / q. *)
    let sched = Array.make (n_giant + 1) (0, 0.0) in
    sched.(0) <- (b_level - 1, delta *. delta /. prime_at b_level);
    for d = 1 to n_giant do
      let l, s = sched.(d - 1) in
      let gs = Ciphertext.scale (Option.get giants.(d - 1)) in
      sched.(d) <- (l - 1, s *. gs /. prime_at l)
    done;
    let negligible v = Float.abs v < 1e-13 in
    let poly_deg c =
      let rec go k = if k < 0 then -1 else if negligible c.(k) then go (k - 1) else k in
      go (Array.length c - 1)
    in
    (* Chebyshev-basis division: p = q * T_m + r with deg r < m, using
       T_m T_j = (T_{m+j} + T_{m-j})/2, i.e. eliminating the top
       coefficient c_k (k > m) sets q_{k-m} += 2 c_k and reflects c_k
       into r at index 2m-k.  Requires deg p < 2m, which the power-of-
       two giant schedule guarantees. *)
    let cheb_divmod c m =
      let d = Array.length c - 1 in
      let r = Array.copy c in
      let q = Array.make (max 1 (d - m + 1)) 0.0 in
      for k = d downto m + 1 do
        if not (negligible r.(k)) then begin
          (* c_k T_k = 2 c_k T_m T_{k-m} - c_k T_{2m-k} *)
          q.(k - m) <- q.(k - m) +. (2.0 *. r.(k));
          r.((2 * m) - k) <- r.((2 * m) - k) -. r.(k);
          r.(k) <- 0.0
        end
      done;
      if m <= d && not (negligible r.(m)) then begin
        q.(0) <- q.(0) +. r.(m);
        r.(m) <- 0.0
      end;
      (q, Array.sub r 0 (min (Array.length r) m))
    in
    (* Base case: evaluate sum c_j T_j, deg < g, straight on the babies;
       lands exactly on sched.(0). *)
    let eval_base c =
      let _, s0 = sched.(0) in
      let acc = ref None in
      let const = ref 0.0 in
      Array.iteri
        (fun j cj ->
          if not (negligible cj) then begin
            if j = 0 then const := cj
            else begin
              let zs = Array.make (Ciphertext.slots t1) (C.make cj 0.0) in
              let term =
                Eval.mul_plain_at ctx (Option.get baby.(j)) zs ~encode_scale:delta ~out_scale:s0 ()
              in
              acc := Some (match !acc with None -> term | Some z -> Eval.add z term)
            end
          end)
        c;
      match !acc with
      | None ->
        if negligible !const then None
        else begin
          let l0, s0 = sched.(0) in
          let zero = Ciphertext.drop_to_level (Eval.mul_const ctx t1 0.0) l0 in
          let zero =
            Ciphertext.make ~c0:zero.Ciphertext.c0 ~c1:zero.Ciphertext.c1 ~scale:s0
              ~slots:(Ciphertext.slots zero)
          in
          Some (Eval.add_const ctx zero !const)
        end
      | Some z -> Some (if negligible !const then z else Eval.add_const ctx z !const)
    in
    (* Recursive Paterson–Stockmeyer: result of [go c depth] sits on
       sched.(depth) (when Some). *)
    let rec go c depth =
      let d = poly_deg c in
      if d < 0 then None
      else if depth = 0 then eval_base c
      else begin
        let target_level, target_scale = sched.(depth) in
        let lift r = Eval.adjust_scale ctx r ~target_level ~target_scale in
        let m = g * (1 lsl (depth - 1)) in
        if d < m then Option.map lift (go c (depth - 1))
        else begin
          let cq, cr = cheb_divmod c m in
          let qv = go cq (depth - 1) in
          let rv = go cr (depth - 1) in
          match (qv, rv) with
          | None, None -> None
          | None, Some r -> Some (lift r)
          | Some qc, None -> Some (Eval.mul ctx qc (Option.get giants.(depth - 1)))
          | Some qc, Some r ->
            Some (Eval.add (Eval.mul ctx qc (Option.get giants.(depth - 1))) (lift r))
        end
      end
    in
    match go coeffs n_giant with
    | Some r -> r
    | None -> Eval.add_const ctx (Eval.mul_const ctx t1 0.0) 0.0
  end

(* Fit f on [a,b] and evaluate it homomorphically on ct (whose values
   must lie in [a,b]). *)
let eval_function ctx ct ~a ~b ~deg f =
  let coeffs = chebyshev_fit ~a ~b ~deg f in
  let t1 = normalize ctx ct ~a ~b in
  chebyshev_eval ctx t1 coeffs

(* --- the paper's BERT non-linearities ---------------------------------- *)

let gelu x = 0.5 *. x *. (1.0 +. tanh (0.7978845608028654 *. (x +. (0.044715 *. (x ** 3.0)))))

let eval_gelu ctx ct ~range ~deg = eval_function ctx ct ~a:(-.range) ~b:range ~deg gelu

(* exp for softmax, on a bounded negative domain (inputs are shifted by
   the max, as in Zhang et al.'s non-interactive softmax). *)
let eval_exp ctx ct ~a ~b ~deg = eval_function ctx ct ~a ~b ~deg exp

(* Newton–Raphson reciprocal: x_{k+1} = x_k (2 - v x_k), converging to
   1/v for initial guess x_0 = init (v in a known positive range). *)
let eval_inverse ctx ct ~init ~iters =
  let x = ref (Eval.add_const ctx (Eval.mul_const ctx ct 0.0) init) in
  for _ = 1 to iters do
    let vx = Eval.mul ctx ct !x in
    (* 2 - vx costs no level: negate then add the constant *)
    let two_minus = Eval.add_const ctx (Eval.neg vx) 2.0 in
    x := Eval.mul ctx !x two_minus
  done;
  !x

(* Newton–Raphson inverse square root: x_{k+1} = x_k (3 - v x_k^2) / 2. *)
let eval_inv_sqrt ctx ct ~init ~iters =
  let x = ref (Eval.add_const ctx (Eval.mul_const ctx ct 0.0) init) in
  for _ = 1 to iters do
    let x2 = Eval.square ctx !x in
    let vx2 = Eval.mul ctx ct x2 in
    (* x * (1.5 - 0.5 v x^2): fold the halving into the constant term *)
    let half_term = Eval.add_const ctx (Eval.mul_const ctx vx2 (-0.5)) 1.5 in
    x := Eval.mul ctx !x half_term
  done;
  !x
