(* An opaque tenant identity.

   Serving-layer components (requests, batches, key-cache entries,
   router decisions) carry this instead of a bare int so that a tenant
   id can never be confused with a node id, an epoch, or a request id —
   the indexed-table discipline of mitls-fstar's key stores, where the
   index type is the only way to name a key.  [default] is the tenant
   a request belongs to unless it names one: single-tenant serving is
   a key store that only ever sees it. *)

type t = int

let make i =
  if i < 0 then invalid_arg "Tenant_id.make: tenant ids are non-negative";
  i

let default = 0
let to_int t = t
let to_string t = Printf.sprintf "t%d" t
let compare = Int.compare
let equal = Int.equal
let pp fmt t = Format.pp_print_string fmt (to_string t)
