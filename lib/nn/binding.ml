(* Weight bindings, plaintext materialization, and the cleartext
   reference evaluator (see binding.mli).

   The correctness contract: for an r x c matmul over a period-c
   replicated input x~ with extended diagonals

     D_d[s] = W[s mod r, (s + d) mod c]

   the Halevi-Shoup sum  y~[s] = sum_d D_d[s] * x~[(s+d) mod slots]
   equals  y[s mod r]  with  y = W x  — (s+d) mod c walks every column
   exactly once, and c | slots makes the circular rotation respect the
   period.  The BSGS grouping rotates each giant group's sum by g*i
   AFTER the plaintext products, so diagonal d = g*i + j is bound
   pre-rotated by -g*i.  The reference evaluator computes the semantic
   y[s mod r] directly: agreement with the lowered circuit is the
   algebraic identity above, not shared code. *)

module Cplx = Cinnamon_util.Cplx

type t = {
  matrices : (string, float array array) Hashtbl.t;
  vectors : (string, float array) Hashtbl.t;
}

let create () = { matrices = Hashtbl.create 8; vectors = Hashtbl.create 8 }

let set_matrix b name m = Hashtbl.replace b.matrices name m
let set_vector b name v = Hashtbl.replace b.vectors name v

let matrix b name =
  match Hashtbl.find_opt b.matrices name with
  | Some m -> m
  | None -> invalid_arg (Printf.sprintf "Binding: no matrix %S" name)

let vector b name =
  match Hashtbl.find_opt b.vectors name with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Binding: no vector %S" name)

let random ?(seed = 42) (g : Graph.t) =
  let rng = Cinnamon_util.Rng.create ~seed in
  let u () = (2.0 *. Cinnamon_util.Rng.float rng) -. 1.0 in
  let b = create () in
  Array.iter
    (fun (n : Graph.node) ->
      match n.Graph.op with
      | Graph.Matmul { w; rows; cols; _ } ->
        let a = 1.0 /. sqrt (Float.of_int cols) in
        set_matrix b w (Array.init rows (fun _ -> Array.init cols (fun _ -> a *. u ())))
      | Graph.Conv2d { w; height; width; fold; _ } ->
        let a = 1.0 /. Float.of_int (9 * fold) in
        for t = 0 to 8 do
          set_vector b
            (Printf.sprintf "%s.w%d" w t)
            (Array.init (height * width) (fun _ -> a *. u ()))
        done
      | Graph.Layernorm { gamma; _ } ->
        set_vector b gamma (Array.init n.Graph.dim (fun _ -> 1.0 +. (0.25 *. u ())))
      | _ -> ())
    g.Graph.nodes;
  b

(* --- plaintext materialization ----------------------------------------- *)

let check_period what d slots =
  if slots mod d <> 0 then
    invalid_arg (Printf.sprintf "Binding.%s: period %d does not divide %d slots" what d slots)

let real_vec v = Array.map (fun x -> Cplx.make x 0.0) v

let plaintexts b (g : Graph.t) plan ~slots =
  let tbl = Hashtbl.create 32 in
  let addv name v = Hashtbl.replace tbl name (real_vec v) in
  Array.iter
    (fun (n : Graph.node) ->
      match n.Graph.op with
      | Graph.Matmul { w; rows; cols; _ } -> (
        check_period "plaintexts" cols slots;
        let m = matrix b w in
        let diag d s = m.(s mod rows).((s + d) mod cols) in
        match Plan.packing_of plan n.Graph.id with
        | Some (Plan.Diagonal { Cost.n1; _ }) ->
          for d = 0 to cols - 1 do
            let giant = n1 * (d / n1) in
            addv
              (Printf.sprintf "%s.diag%d" w d)
              (Array.init slots (fun u -> diag d ((u - giant + slots) mod slots)))
          done
        | Some Plan.Column ->
          for i = 0 to rows - 1 do
            addv (Printf.sprintf "%s.row%d" w i) (Array.init slots (fun u -> m.(i).(u mod cols)));
            addv
              (Printf.sprintf "%s.mask%d" w i)
              (Array.init slots (fun u -> if u mod rows = i then 1.0 else 0.0))
          done
        | None -> invalid_arg "Binding.plaintexts: plan has no packing for a matmul")
      | Graph.Conv2d { w; height; width; _ } ->
        let hw = height * width in
        check_period "plaintexts" hw slots;
        for t = 0 to 8 do
          let tap = vector b (Printf.sprintf "%s.w%d" w t) in
          addv (Printf.sprintf "%s.w%d" w t) (Array.init slots (fun u -> tap.(u mod hw)))
        done
      | Graph.Layernorm { gamma; _ } ->
        check_period "plaintexts" n.Graph.dim slots;
        let gv = vector b gamma in
        addv gamma (Array.init slots (fun u -> gv.(u mod n.Graph.dim)))
      | _ -> ())
    g.Graph.nodes;
  tbl

(* --- cleartext reference evaluation ------------------------------------ *)

let rot v k =
  let n = Array.length v in
  Array.init n (fun s -> v.(((s + k) mod n + n) mod n))

(* sum over the period window: w[s] = sum_{k<d} v[(s+k) mod slots] —
   exactly what the rotate-and-sum tree computes for a power-of-two d *)
let window_sum v d =
  let n = Array.length v in
  Array.init n (fun s ->
      let acc = ref 0.0 in
      for k = 0 to d - 1 do
        acc := !acc +. v.((s + k) mod n)
      done;
      !acc)

let poly_ref coeffs v =
  Array.map
    (fun x ->
      let acc = ref coeffs.(0) and xp = ref 1.0 in
      for i = 1 to Array.length coeffs - 1 do
        xp := !xp *. x;
        acc := !acc +. (coeffs.(i) *. !xp)
      done;
      !acc)
    v

let reference b (g : Graph.t) ~slots ~inputs =
  let values : (Graph.node_id, float array) Hashtbl.t = Hashtbl.create 32 in
  let get id = Hashtbl.find values id in
  let outs = ref [] in
  Array.iter
    (fun (n : Graph.node) ->
      let value =
        match n.Graph.op with
        | Graph.Input { name } ->
          check_period "reference" n.Graph.dim slots;
          let x =
            match List.assoc_opt name inputs with
            | Some x when Array.length x = n.Graph.dim -> x
            | Some _ -> invalid_arg (Printf.sprintf "Binding.reference: input %S wrong length" name)
            | None -> invalid_arg (Printf.sprintf "Binding.reference: missing input %S" name)
          in
          Some (Array.init slots (fun s -> x.(s mod n.Graph.dim)))
        | Graph.Output { src; name } ->
          outs := (name, get src) :: !outs;
          None
        | Graph.Reshape { src; _ } -> Some (get src)
        | Graph.Matmul { src; w; rows; cols } ->
          check_period "reference" cols slots;
          let m = matrix b w and x = get src in
          Some
            (Array.init slots (fun s ->
                 let acc = ref 0.0 in
                 for j = 0 to cols - 1 do
                   acc := !acc +. (m.(s mod rows).(j) *. x.(j))
                 done;
                 !acc))
        | Graph.Conv2d { src; w; height; width; fold } ->
          let hw = height * width in
          check_period "reference" hw slots;
          let x = get src in
          let c = Array.make slots 0.0 in
          List.iteri
            (fun t off ->
              let tap = vector b (Printf.sprintf "%s.w%d" w t) in
              let xr = rot x off in
              for s = 0 to slots - 1 do
                c.(s) <- c.(s) +. (tap.(s mod hw) *. xr.(s))
              done)
            (Lower.conv_offsets width);
          Some (if fold > 1 then window_sum c fold else c)
        | Graph.Act { src; coeffs; _ } -> Some (poly_ref coeffs (get src))
        | Graph.Softmax { src; exp_coeffs; iters; _ } ->
          let e = poly_ref exp_coeffs (get src) in
          let scaled = Array.map (fun s -> s /. Float.of_int n.Graph.dim) (window_sum e n.Graph.dim) in
          let inv =
            Array.map
              (fun v ->
                let x = ref 1.0 in
                for _ = 1 to iters do
                  x := !x *. (2.0 -. (v *. !x))
                done;
                !x)
              scaled
          in
          Some (Array.map2 ( *. ) e inv)
        | Graph.Layernorm { src; gamma; eps; iters } ->
          let d = n.Graph.dim in
          let x = get src in
          let mean = Array.map (fun s -> s /. Float.of_int d) (window_sum x d) in
          let centered = Array.map2 ( -. ) x mean in
          let var =
            Array.map
              (fun s -> (s /. Float.of_int d) +. eps)
              (window_sum (Array.map (fun c -> c *. c) centered) d)
          in
          let inv_std =
            Array.map
              (fun v ->
                let x = ref 1.0 in
                for _ = 1 to iters do
                  x := !x *. (1.5 -. (0.5 *. v *. !x *. !x))
                done;
                !x)
              var
          in
          let gv = vector b gamma in
          Some
            (Array.init slots (fun s -> centered.(s) *. inv_std.(s) *. gv.(s mod d)))
        | Graph.Mul (a, c) -> Some (Array.map2 ( *. ) (get a) (get c))
        | Graph.Add (a, c) -> Some (Array.map2 ( +. ) (get a) (get c))
      in
      Option.iter (Hashtbl.replace values n.Graph.id) value)
    g.Graph.nodes;
  List.rev !outs
