(* The tenant key-store lifecycle by a full scan: every [tick] visits
   every provisioned tenant in provision order, completes its rotation
   if the old epoch has drained, then begins one if it is due.  Kept
   as the differential oracle for {!Cinnamon_tenant.Store}, which must
   return the same results, events (in the same order) and statistics
   on every sequence of operations. *)

open Cinnamon_tenant
module S = Store

type phase =
  | Active of Key_set.t
  | Rotating of { old : Key_set.t; next : Key_set.t }
  | Retired

type tenant = {
  mutable phase : phase;
  mutable next_rotation_s : float;
  leases : (int, int ref) Hashtbl.t; (* epoch int -> in-flight count *)
}

type t = {
  config : S.config;
  tenants : (int, tenant) Hashtbl.t;
  mutable order : Tenant_id.t list; (* reverse provision order *)
  mutable provisioned : int;
  mutable started : int;
  mutable completed : int;
}

let create (config : S.config) =
  if config.S.sc_rotation_period_s <= 0.0 then
    invalid_arg "Store.create: rotation period must be > 0";
  { config; tenants = Hashtbl.create 64; order = []; provisioned = 0; started = 0; completed = 0 }

let find t tenant = Hashtbl.find_opt t.tenants (Tenant_id.to_int tenant)

let key_set t tenant epoch =
  Key_set.make t.config.S.sc_profile ~tenant ~epoch ~rotations:t.config.S.sc_rotations
    ~conjugation:t.config.S.sc_conjugation

let leases_on st epoch =
  match Hashtbl.find_opt st.leases (Epoch.to_int epoch) with Some r -> !r | None -> 0

let live st =
  match st.phase with Active ks -> [ ks ] | Rotating { old; next } -> [ old; next ] | Retired -> []

let provision t tenant ~now_s =
  match find t tenant with
  | Some _ -> Error (S.Already_provisioned tenant)
  | None ->
    let ks = key_set t tenant Epoch.zero in
    Hashtbl.replace t.tenants (Tenant_id.to_int tenant)
      {
        phase = Active ks;
        next_rotation_s = now_s +. t.config.S.sc_rotation_period_s;
        leases = Hashtbl.create 4;
      };
    t.order <- tenant :: t.order;
    t.provisioned <- t.provisioned + 1;
    Ok ks

let lease t tenant =
  match find t tenant with
  | None -> Error (S.Unknown_tenant tenant)
  | Some { phase = Retired; _ } -> Error (S.Tenant_retired tenant)
  | Some ({ phase = Active ks | Rotating { next = ks; _ }; _ } as st) ->
    let e = Epoch.to_int (Key_set.epoch ks) in
    (match Hashtbl.find_opt st.leases e with
    | Some r -> incr r
    | None -> Hashtbl.replace st.leases e (ref 1));
    Ok ks

let release t tenant epoch =
  match find t tenant with
  | None -> ()
  | Some st -> (
    match Hashtbl.find_opt st.leases (Epoch.to_int epoch) with
    | Some r when !r > 0 -> decr r
    | _ -> invalid_arg "Store.release: no outstanding lease for this epoch")

let key_set_for t tenant epoch =
  match find t tenant with
  | None -> Error (S.Unknown_tenant tenant)
  | Some { phase = Retired; _ } -> Error (S.Tenant_retired tenant)
  | Some st -> (
    match List.find_opt (fun ks -> Epoch.equal (Key_set.epoch ks) epoch) (live st) with
    | Some ks -> Ok ks
    | None ->
      Error
        (S.Stale_epoch
           { st_tenant = tenant; st_wanted = epoch; st_live = List.map Key_set.epoch (live st) }))

let begin_rotation t tenant ~now_s =
  match find t tenant with
  | None -> Error (S.Unknown_tenant tenant)
  | Some { phase = Retired; _ } -> Error (S.Tenant_retired tenant)
  | Some { phase = Rotating _; _ } -> Error (S.Rotation_in_progress tenant)
  | Some ({ phase = Active old; _ } as st) ->
    let next = key_set t tenant (Epoch.next (Key_set.epoch old)) in
    st.phase <- Rotating { old; next };
    st.next_rotation_s <- now_s +. t.config.S.sc_rotation_period_s;
    t.started <- t.started + 1;
    Ok next

let retire t tenant ~now_s:_ =
  match find t tenant with
  | None -> Error (S.Unknown_tenant tenant)
  | Some { phase = Retired; _ } -> Error (S.Tenant_retired tenant)
  | Some { phase = Rotating _; _ } -> Error (S.Rotation_in_progress tenant)
  | Some ({ phase = Active ks; _ } as st) ->
    if leases_on st (Key_set.epoch ks) > 0 then Error (S.Rotation_in_progress tenant)
    else begin
      st.phase <- Retired;
      Ok ()
    end

let tick t ~now_s =
  let events = ref [] in
  let emit tenant kind = events := { S.ev_tenant = tenant; ev_at_s = now_s; ev_kind = kind } :: !events in
  List.iter
    (fun tenant ->
      match find t tenant with
      | None -> ()
      | Some st -> (
        (match st.phase with
        | Rotating { old; next } when leases_on st (Key_set.epoch old) = 0 ->
          st.phase <- Active next;
          Hashtbl.remove st.leases (Epoch.to_int (Key_set.epoch old));
          t.completed <- t.completed + 1;
          emit tenant (`Rotation_completed (Key_set.epoch next))
        | _ -> ());
        match st.phase with
        | Active old when st.next_rotation_s <= now_s -> (
          match begin_rotation t tenant ~now_s with
          | Ok next -> emit tenant (`Rotation_started (Key_set.epoch old, Key_set.epoch next))
          | Error _ -> assert false)
        | _ -> ()))
    (List.rev t.order);
  List.rev !events

let stats t =
  {
    S.st_provisioned = t.provisioned;
    st_rotations_started = t.started;
    st_rotations_completed = t.completed;
    st_rotating_now =
      Hashtbl.fold
        (fun _ st acc -> match st.phase with Rotating _ -> acc + 1 | _ -> acc)
        t.tenants 0;
  }
