(** Public-key encryption and decryption. *)

open Cinnamon_rns

(** Encrypt a complex vector; [level] defaults to the top of the chain,
    [scale] to the parameter scale. *)
val encrypt :
  Params.t ->
  Keys.public_key ->
  ?level:int ->
  ?scale:float ->
  Cinnamon_util.Cplx.t array ->
  Cinnamon_util.Rng.t ->
  Ciphertext.t

val encrypt_real :
  Params.t ->
  Keys.public_key ->
  ?level:int ->
  ?scale:float ->
  float array ->
  Cinnamon_util.Rng.t ->
  Ciphertext.t

(** The raw message polynomial c0 + c1·s (before decoding). *)
val decrypt_poly : Keys.secret_key -> Ciphertext.t -> Rns_poly.t

val decrypt : Params.t -> Keys.secret_key -> Ciphertext.t -> Cinnamon_util.Cplx.t array
val decrypt_real : Params.t -> Keys.secret_key -> Ciphertext.t -> float array
