(* Graph-built workloads (see zoo.mli).

   Registry-scale defaults are sized so every graph fits the
   architectural top level (51) — the BERT encoder at iters=2 consumes
   49 levels on its critical chain, the deepest of the three. *)

(* Degree-d odd-ish "ReLU/GELU-shaped" polynomial coefficients; exact
   values only matter to the functional tests, which mirror them in
   the reference evaluator. *)
let act_coeffs deg =
  match deg with
  | 1 -> [| 0.0; 1.0 |]
  | 2 -> [| 0.1; 0.5; 0.4 |]
  | 3 -> [| 0.0; 0.5; 0.25; 0.1 |]
  | _ -> invalid_arg "Zoo: activation degree must be 1..3"

let matvec ?(dim = 10) () =
  let b = Graph.create ~name:(Printf.sprintf "matvec-%d" dim) in
  let x = Graph.input b ~name:"v" ~dim in
  let y = Graph.matmul b ~w:"m" ~rows:dim ~cols:dim x in
  Graph.output b ~name:"out" y;
  Graph.finish b

let mlp3 ?(dim = 64) ?(classes = 10) ?(act_deg = 2) () =
  let b = Graph.create ~name:"mlp3" in
  let coeffs = act_coeffs act_deg in
  let x = Graph.input b ~name:"x" ~dim in
  let h1 = Graph.act b ~label:"act1" ~coeffs (Graph.matmul b ~w:"w1" ~rows:dim ~cols:dim x) in
  let h2 = Graph.act b ~label:"act2" ~coeffs (Graph.matmul b ~w:"w2" ~rows:dim ~cols:dim h1) in
  let y = Graph.matmul b ~w:"w3" ~rows:classes ~cols:dim h2 in
  Graph.output b ~name:"out" y;
  Graph.finish b

let resnet_block ?(height = 32) ?(width = 32) ?(fold = 8) ?(act_deg = 3) () =
  let b = Graph.create ~name:"resnet-block" in
  let coeffs = act_coeffs act_deg in
  let x = Graph.input b ~name:"x" ~dim:(height * width) in
  let c1 = Graph.act b ~label:"relu1" ~coeffs (Graph.conv2d b ~w:"c1" ~height ~width ~fold x) in
  let c2 = Graph.conv2d b ~w:"c2" ~height ~width ~fold c1 in
  let res = Graph.add b c2 x in
  let y = Graph.act b ~label:"relu2" ~coeffs res in
  Graph.output b ~name:"out" y;
  Graph.finish b

let bert_encoder ?(d_model = 128) ?(d_ff = 256) ?(exp_deg = 3) ?(gelu_deg = 3) ?(iters = 2) () =
  let b = Graph.create ~name:"bert-encoder" in
  let x = Graph.input b ~name:"x" ~dim:d_model in
  let proj w src = Graph.matmul b ~w ~rows:d_model ~cols:d_model src in
  let q = proj "wq" x and k = proj "wk" x and v = proj "wv" x in
  let scores = Graph.mul b q k in
  let soft =
    Graph.softmax b ~label:"softmax" ~exp_coeffs:(act_coeffs exp_deg) ~iters scores
  in
  let av = Graph.mul b soft v in
  let o = proj "wo" av in
  let ln1 = Graph.layernorm b ~gamma:"ln1.gamma" ~iters (Graph.add b o x) in
  let h = Graph.matmul b ~w:"ff1" ~rows:d_ff ~cols:d_model ln1 in
  let h = Graph.act b ~label:"gelu" ~coeffs:(act_coeffs gelu_deg) h in
  let h2 = Graph.matmul b ~w:"ff2" ~rows:d_model ~cols:d_ff h in
  let ln2 = Graph.layernorm b ~gamma:"ln2.gamma" ~iters (Graph.add b h2 ln1) in
  Graph.output b ~name:"out" ln2;
  Graph.finish b
