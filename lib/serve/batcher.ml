(* Dynamic batcher: group compatible queued requests so one compile —
   served from the Result_cache when warm — and one simulated execution
   amortize over the whole batch.

   Compatibility means "could be packed into the same CKKS ciphertext
   batch and served by the same compiled program": same benchmark, same
   system, and a structurally identical compile configuration.  The
   configuration part of the key (in [Request.req_program], computed
   once per request) digests Exec.Cache_key.config_sig —
   the SAME structural rendering (every behavioural field, no cosmetic
   ones) the Result_cache keys compile+simulate results on — so the
   batcher and the cache can never disagree about which requests share
   a compiled program.  (It used to digest Marshal output, which is
   sensitive to sharing/representation rather than structure.) *)

(* Batch size is capped by the caller's [max_batch] AND by the ring's
   slot count (2^(log_n - 1)) — the CKKS slot-packing limit: one
   ciphertext holds at most that many packed inferences. *)

type batch = {
  batch_id : int;
  batch_key : string;
  requests : Request.t list; (* dispatch order; non-empty *)
  formed_s : float; (* virtual formation time *)
}

let size b = List.length b.requests

(* Tenant and epoch lead the key: requests of different tenants — or of
   one tenant across a key rotation — run under different key material,
   so they can never share a packed ciphertext or a dispatch. *)
let compat_key (r : Request.t) =
  String.concat "|"
    [
      Cinnamon_tenant.Tenant_id.to_string r.Request.req_tenant;
      Cinnamon_tenant.Epoch.to_string r.Request.req_epoch;
      r.Request.req_program;
    ]

(* [compat_key] equality without rendering a string: the program key
   was digested once, in [Request.make]. *)
let compatible (a : Request.t) (b : Request.t) =
  Cinnamon_tenant.Tenant_id.equal a.Request.req_tenant b.Request.req_tenant
  && Cinnamon_tenant.Epoch.equal a.Request.req_epoch b.Request.req_epoch
  && String.equal a.Request.req_program b.Request.req_program

let form q ~now_s ~max_batch ~batch_id =
  if max_batch < 1 then invalid_arg "Batcher.form: max_batch must be >= 1";
  match Admission.peek q with
  | None -> None
  | Some head ->
    let limit = min max_batch (Request.slots head) in
    let requests = Admission.take q (compatible head) ~limit in
    Some { batch_id; batch_key = compat_key head; requests; formed_s = now_s }
