(* Lowering: ciphertext IR -> polynomial IR (paper Fig. 7, step 2).

   Each ciphertext value becomes a pair of polynomial values (c0, c1).
   Ciphertext operations expand mechanically:
     add       -> two polynomial adds
     mul       -> four pointwise products, a relinearization keyswitch
                  of the c1*c1' term, two adds folding the keyswitch
                  output back in, and two rescales
     rotate    -> two automorphisms + a rotation keyswitch of c1 and an
                  add folding the k0 component into c0
     bootstrap -> a placeholder pair that the cost model expands into
                  the bootstrap kernel (the kernel itself is compiled
                  separately at kernel granularity)

   Keyswitch sites are left as macro ops carrying their kind; the
   keyswitch pass then assigns algorithms and batch groups. *)

open Cinnamon_ir

type env = { c0 : int array; c1 : int array (* ct_id -> poly_id *) }

(* Ciphertext-ciphertext multiplication (paper Fig. 5 left): four
   pointwise products, relinearization keyswitch of the c1*c1' term,
   folds, and rescales. *)
let lower_mul ~emit ~env ~stream ~limbs ~ct_id ~out a b =
  let open Poly_ir in
  let limbs_in = limbs + 1 in
  let ei op = emit ~stream ~limbs:limbs_in ~ct_id op in
  let er op = emit ~stream ~limbs ~ct_id op in
  let d0 = ei (PMul (env.c0.(a), env.c0.(b))) in
  let d1 =
    if a = b then ei (PMul (env.c0.(a), env.c1.(b)))
    else begin
      let x01 = ei (PMul (env.c0.(a), env.c1.(b))) in
      let x10 = ei (PMul (env.c1.(a), env.c0.(b))) in
      ei (PAdd (x01, x10))
    end
  in
  let d1 = if a = b then ei (PAdd (d1, d1)) else d1 in
  let d2 = ei (PMul (env.c1.(a), env.c1.(b))) in
  let k0 = ei (PKeyswitch { input = d2; kind = Ks_relin; component = 0; algorithm = Seq; batch = None }) in
  let k1 = ei (PKeyswitch { input = d2; kind = Ks_relin; component = 1; algorithm = Seq; batch = None }) in
  let s0 = ei (PAdd (d0, k0)) in
  let s1 = ei (PAdd (d1, k1)) in
  env.c0.(out) <- er (PRescale s0);
  env.c1.(out) <- er (PRescale s1)

let lower (cfg : Compile_config.t) (ct : Ct_ir.t) : Poly_ir.t =
  ignore cfg;
  let nodes = ref [] in
  let next = ref 0 in
  let n_ct = Ct_ir.size ct in
  let env = { c0 = Array.make n_ct (-1); c1 = Array.make n_ct (-1) } in
  let emit ~stream ~limbs ~ct_id op =
    let id = !next in
    incr next;
    nodes := { Poly_ir.id; op; stream; limbs; ct = ct_id } :: !nodes;
    id
  in
  Array.iter
    (fun (n : Ct_ir.node) ->
      let stream = n.Ct_ir.stream in
      let limbs = n.Ct_ir.level + 1 in
      let e op = emit ~stream ~limbs ~ct_id:n.Ct_ir.id op in
      let open Poly_ir in
      match n.Ct_ir.op with
      | Ct_ir.Input name ->
        env.c0.(n.id) <- e (PInput (name, 0));
        env.c1.(n.id) <- e (PInput (name, 1))
      | Ct_ir.Add (a, b) ->
        env.c0.(n.id) <- e (PAdd (env.c0.(a), env.c0.(b)));
        env.c1.(n.id) <- e (PAdd (env.c1.(a), env.c1.(b)))
      | Ct_ir.Sub (a, b) ->
        env.c0.(n.id) <- e (PSub (env.c0.(a), env.c0.(b)));
        env.c1.(n.id) <- e (PSub (env.c1.(a), env.c1.(b)))
      | Ct_ir.Mul (a, b) ->
        lower_mul ~emit ~env ~stream ~limbs ~ct_id:n.Ct_ir.id ~out:n.id a b
      | Ct_ir.Square a ->
        lower_mul ~emit ~env ~stream ~limbs ~ct_id:n.Ct_ir.id ~out:n.id a a
      | Ct_ir.MulPlain (a, p) ->
        let limbs_in = limbs + 1 in
        let ei op = emit ~stream ~limbs:limbs_in ~ct_id:n.Ct_ir.id op in
        let m0 = ei (PMulPlain (env.c0.(a), p)) in
        let m1 = ei (PMulPlain (env.c1.(a), p)) in
        env.c0.(n.id) <- e (PRescale m0);
        env.c1.(n.id) <- e (PRescale m1)
      | Ct_ir.MulPlainRaw (a, p) ->
        env.c0.(n.id) <- e (PMulPlain (env.c0.(a), p));
        env.c1.(n.id) <- e (PMulPlain (env.c1.(a), p))
      | Ct_ir.Rescale a ->
        env.c0.(n.id) <- e (PRescale env.c0.(a));
        env.c1.(n.id) <- e (PRescale env.c1.(a))
      | Ct_ir.MulConst (a, c) ->
        let limbs_in = limbs + 1 in
        let ei op = emit ~stream ~limbs:limbs_in ~ct_id:n.Ct_ir.id op in
        let m0 = ei (PMulConst (env.c0.(a), c)) in
        let m1 = ei (PMulConst (env.c1.(a), c)) in
        env.c0.(n.id) <- e (PRescale m0);
        env.c1.(n.id) <- e (PRescale m1)
      | Ct_ir.AddPlain (a, p) ->
        env.c0.(n.id) <- e (PAddPlain (env.c0.(a), p));
        env.c1.(n.id) <- env.c1.(a)
      | Ct_ir.AddConst (a, c) ->
        env.c0.(n.id) <- e (PAddConst (env.c0.(a), c));
        env.c1.(n.id) <- env.c1.(a)
      | Ct_ir.Rotate (a, r) ->
        let galois = r (* resolved to 5^r mod 2N at ISA emission *) in
        let a0 = e (PAutomorph (env.c0.(a), galois)) in
        let a1 = e (PAutomorph (env.c1.(a), galois)) in
        let k0 =
          e (PKeyswitch { input = a1; kind = Ks_rotation r; component = 0; algorithm = Seq; batch = None })
        in
        let k1 =
          e (PKeyswitch { input = a1; kind = Ks_rotation r; component = 1; algorithm = Seq; batch = None })
        in
        env.c0.(n.id) <- e (PAdd (a0, k0));
        env.c1.(n.id) <- k1
      | Ct_ir.Conjugate a ->
        let a0 = e (PAutomorph (env.c0.(a), -1)) in
        let a1 = e (PAutomorph (env.c1.(a), -1)) in
        let k0 =
          e (PKeyswitch { input = a1; kind = Ks_conjugate; component = 0; algorithm = Seq; batch = None })
        in
        let k1 =
          e (PKeyswitch { input = a1; kind = Ks_conjugate; component = 1; algorithm = Seq; batch = None })
        in
        env.c0.(n.id) <- e (PAdd (a0, k0));
        env.c1.(n.id) <- k1
      | Ct_ir.Bootstrap a ->
        env.c0.(n.id) <- e (PBootPlaceholder env.c0.(a));
        env.c1.(n.id) <- e (PBootPlaceholder env.c1.(a))
      | Ct_ir.Output (a, name) ->
        env.c0.(n.id) <- e (POutput (env.c0.(a), name ^ ".0"));
        env.c1.(n.id) <- e (POutput (env.c1.(a), name ^ ".1")))
    ct.Ct_ir.nodes;
  {
    Poly_ir.nodes = Array.of_list (List.rev !nodes);
    num_streams = ct.Ct_ir.num_streams;
    source = ct;
  }
