(* Re-export: the domain pool lives in its own library
   (cinnamon_pool) so the fused keyswitch in lib/ckks can fan its
   per-digit and per-share work out across domains without a
   dependency cycle (lib/exec depends on lib/compiler, which depends
   on lib/ckks).  Including the implementation re-exports every binding
   with type equality, so [Exec.Pool] remains the name everyone else
   uses. *)
include Cinnamon_pool.Pool
