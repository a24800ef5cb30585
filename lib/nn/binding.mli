(** Weight bindings: the numeric side of a graph.

    A binding maps every weight name a graph references to real data —
    matrices for matmuls, tap vectors for convolutions, gamma vectors
    for layernorms.  From one binding both executions are derived:

    - {!plaintexts} materializes the slot-vector plaintext operands the
      lowered program multiplies by (extended diagonals pre-rotated by
      the giant step, column rows and masks, replicated taps/gammas),
      keyed by the exact names {!Lower} emits;
    - {!reference} evaluates the graph in the clear over replicated
      slot vectors, mirroring the lowered circuit's arithmetic (same
      polynomial activations, same Newton-Raphson iterations, circular
      rotate-and-sum) — so decrypting the lowered program must agree
      with it up to CKKS noise. *)

type t

val create : unit -> t

(** Deterministically fill every weight the graph needs: matmul entries
    uniform in [±1/sqrt cols], conv taps in [±1/(9 fold)], gammas near
    1. *)
val random : ?seed:int -> Graph.t -> t

(** Slot-vector plaintext operands for a lowered program, under the
    packing decisions of [plan].  Raises [Invalid_argument] if a
    dimension does not divide [slots] or a weight is missing. *)
val plaintexts :
  t -> Graph.t -> Plan.t -> slots:int -> (string, Cinnamon_util.Cplx.t array) Hashtbl.t

(** Cleartext evaluation over full slot vectors; inputs are logical
    vectors of each input node's dimension, outputs are slot vectors
    (compare directly against [Encrypt.decrypt_real]). *)
val reference :
  t -> Graph.t -> slots:int -> inputs:(string * float array) list -> (string * float array) list
