(* Packing planner (see plan.mli). *)

type packing = Diagonal of Cost.split | Column
type policy = Cost_optimal | Sqrt_split | Naive_column

type t = {
  graph : string;
  matmuls : (Graph.node_id * string * packing) list;  (* node, description, packing *)
}

let choose policy ~rows ~cols =
  (* column packing rotate-and-sums over all [cols] slots of a window
     and masks with period [rows]; both must be powers of two for the
     halving sums and the slot replication to be exact *)
  let column_ok = Cinnamon_util.Bitops.is_pow2 cols && Cinnamon_util.Bitops.is_pow2 rows in
  match policy with
  | Naive_column ->
    if not column_ok then
      invalid_arg
        (Printf.sprintf "Plan: column packing needs power-of-two dims, got %dx%d" rows cols);
    Column
  | Sqrt_split ->
    let n1 = max 1 (int_of_float (Float.round (sqrt (Float.of_int cols)))) in
    Diagonal { Cost.n1; n2 = Cinnamon_util.Bitops.cdiv cols n1 }
  | Cost_optimal ->
    let w = Cost.default in
    let split = Cost.best_split w ~diagonals:cols in
    let diag = Cost.bsgs_units w ~diagonals:cols ~n1:split.Cost.n1 in
    if column_ok && Cost.column_units w ~rows ~cols < diag then Column else Diagonal split

let make ?(policy = Cost_optimal) (g : Graph.t) =
  let matmul (n : Graph.node) =
    match n.Graph.op with
    | Graph.Matmul { w; rows; cols; _ } ->
      Some (n.Graph.id, Printf.sprintf "matmul %s [%dx%d]" w rows cols, choose policy ~rows ~cols)
    | _ -> None
  in
  { graph = g.Graph.name; matmuls = List.filter_map matmul (Array.to_list g.Graph.nodes) }

let packing_of t id = List.find_map (fun (n, _, p) -> if n = id then Some p else None) t.matmuls

let pp fmt t =
  Format.fprintf fmt "plan %s: %d matmuls@." t.graph (List.length t.matmuls);
  List.iter
    (fun (id, desc, packing) ->
      Format.fprintf fmt "  %%%d %-28s %s@." id desc
        (match packing with
        | Diagonal { Cost.n1; n2 } -> Printf.sprintf "diagonal %dx%d" n1 n2
        | Column -> "column"))
    t.matmuls
