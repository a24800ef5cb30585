(* CPU baseline cost model (paper §6.1: 48-core Xeon, 256 GB).

   Two calibrations (see DESIGN.md):

   (a) the paper's reported CPU times (bootstrap 33 s, ResNet 17.5 min,
       HELR 14.9 min, BERT ~17.3 h; the CPU column of
       Cinnamon_arch.Paper_data's Table 2);

   (b) an analytic model from first principles, cross-checked against
       the measured throughput of this repository's own OCaml RNS
       kernels (the bench harness measures NTT/base-conversion
       throughput at small N and extrapolates N log N to 64K).

   The analytic model: a keyswitch at level l with dnum digits costs
   roughly dnum * (l + k) NTT-equivalents of size N plus the
   multiply-accumulate traffic; a 48-core AVX-512 machine sustains a
   few billion 64-bit modmuls per second aggregate. *)

(* Sustained modmuls per second across all 48 cores. *)
let xeon_48_modmuls_per_second = 6.0e9

(* Cost in modmuls of one size-N NTT. *)
let ntt_modmuls ~n = Float.of_int n *. (log (Float.of_int n) /. log 2.0)

(* One keyswitch at [limbs] total Q-limbs with [ext] extension limbs
   and [dnum] digits. *)
let keyswitch_modmuls ~n ~limbs ~ext ~dnum =
  let lk = Float.of_int (limbs + ext) in
  let ntts = Float.of_int dnum *. lk *. ntt_modmuls ~n in
  let bconv = Float.of_int dnum *. lk *. Float.of_int (ext + (limbs / dnum)) *. Float.of_int n in
  let macs = 2.0 *. Float.of_int dnum *. lk *. Float.of_int n in
  ntts +. bconv +. macs

(* A full bootstrap ~ [keyswitches] keyswitches at average level. *)
let bootstrap_seconds ~n ~avg_limbs ~ext ~dnum ~keyswitches =
  let per_ks = keyswitch_modmuls ~n ~limbs:avg_limbs ~ext ~dnum in
  Float.of_int keyswitches *. per_ks /. xeon_48_modmuls_per_second

(* Analytic estimate for the paper's bootstrap configuration. *)
let analytic_bootstrap_seconds =
  bootstrap_seconds ~n:(1 lsl 16) ~avg_limbs:45 ~ext:18 ~dnum:3 ~keyswitches:97

(* Extrapolate a measured small-N NTT throughput (seconds per NTT at
   ring dimension n_meas, single core) to a 48-core machine at 64K. *)
let extrapolate_from_measured ~seconds_per_ntt ~n_meas ~cores =
  let scale = ntt_modmuls ~n:(1 lsl 16) /. ntt_modmuls ~n:n_meas in
  let per_ntt_64k = seconds_per_ntt *. scale /. Float.of_int cores in
  let per_ks =
    keyswitch_modmuls ~n:(1 lsl 16) ~limbs:45 ~ext:18 ~dnum:3
    /. ntt_modmuls ~n:(1 lsl 16)
  in
  (* seconds per keyswitch, then per bootstrap *)
  let ks_seconds = per_ntt_64k *. per_ks in
  ks_seconds *. 97.0
