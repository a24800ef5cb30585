(** The tenant key-store lifecycle with a [tick] that scans every
    tenant in provision order: the reference semantics, event order
    included, that {!Cinnamon_tenant.Store} must reproduce exactly. *)

open Cinnamon_tenant

type t

val create : Store.config -> t
val provision : t -> Tenant_id.t -> now_s:float -> (Key_set.t, Store.error) result
val lease : t -> Tenant_id.t -> (Key_set.t, Store.error) result
val release : t -> Tenant_id.t -> Epoch.t -> unit
val key_set_for : t -> Tenant_id.t -> Epoch.t -> (Key_set.t, Store.error) result
val begin_rotation : t -> Tenant_id.t -> now_s:float -> (Key_set.t, Store.error) result
val retire : t -> Tenant_id.t -> now_s:float -> (unit, Store.error) result
val tick : t -> now_s:float -> Store.event list
val stats : t -> Store.stats
