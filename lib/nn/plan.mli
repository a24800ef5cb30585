(** Packing plans: the typed, inspectable artifact between the cost
    model and the lowering.

    [make] walks a {!Graph.t} and decides, per matmul, the packing
    (diagonal vs. naive column) and the BSGS split (n1 babies x n2
    giants), priced with {!Cost}.  That is all a plan holds: what each
    layer then emits — rotations, products, levels — is a fact of the
    lowered program ({!Lower}, [Ct_ir.count_ops]), not a second model
    kept here. *)

type packing = Diagonal of Cost.split | Column

type t

type policy =
  | Cost_optimal  (** per-shape argmin of the cost model (the default) *)
  | Sqrt_split
      (** diagonal packing with the legacy n1 = round(sqrt D) split —
          what the hand-written kernels use; keeps [matvec-<n>]
          bit-identical *)
  | Naive_column  (** force column packing everywhere (the baseline) *)

(** Raises [Invalid_argument] when [Naive_column] meets a matmul whose
    dims are not both powers of two (column packing would be inexact). *)
val make : ?policy:policy -> Graph.t -> t

(** [Some] exactly on matmul nodes. *)
val packing_of : t -> Graph.node_id -> packing option

(** One line per matmul: shape, packing and split. *)
val pp : Format.formatter -> t -> unit
