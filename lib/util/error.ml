(* Typed diagnostics for every user-facing failure path.

   Entry points (CLI subcommands, the serving loop and benches, the compile
   pipeline) raise [Error] with a kind instead of bare
   [Failure]/[Invalid_argument], so callers can react to the category —
   and the CLI maps each kind to a distinct process exit code under a
   uniform "error:" prefix.  The kinds mirror the places a toolchain
   run can fail:

     Invalid_input   the request itself is malformed (bad flag value,
                     inconsistent serving config)            exit 2
     Unknown_name    a registry lookup missed                exit 3
     Capacity        a hardware resource cannot fit the job
                     (register file too small, queue bound)  exit 4
     Verification    the IR verifier found violations        exit 5
     Internal        a bug: an invariant the toolchain
                     itself must maintain broke              exit 70

   70 follows BSD sysexits' EX_SOFTWARE for internal faults. *)

type kind =
  | Invalid_input
  | Unknown_name
  | Capacity
  | Verification
  | Internal

type t = { kind : kind; message : string }

exception Error of t

let make kind message = { kind; message }
let message e = e.message
let kind e = e.kind

let kind_name = function
  | Invalid_input -> "invalid-input"
  | Unknown_name -> "unknown-name"
  | Capacity -> "capacity"
  | Verification -> "verification"
  | Internal -> "internal"

let exit_code = function
  | Invalid_input -> 2
  | Unknown_name -> 3
  | Capacity -> 4
  | Verification -> 5
  | Internal -> 70

let to_string e = Printf.sprintf "%s: %s" (kind_name e.kind) e.message

let fail kind message = raise (Error { kind; message })
let failf kind fmt = Printf.ksprintf (fail kind) fmt

(* Run [f], mapping typed errors (and legacy Invalid_argument
   preconditions) to a printed "error: ..." line plus the kind's exit
   code — the single translation point between exceptions and process
   exit status. *)
let guard f =
  match f () with
  | code -> code
  | exception Error e ->
    Printf.eprintf "error: %s\n" e.message;
    exit_code e.kind
  | exception Invalid_argument msg ->
    Printf.eprintf "error: %s\n" msg;
    exit_code Invalid_input

(* --- did-you-mean suggestions ----------------------------------------- *)

(* Levenshtein distance, O(|a| * |b|) with two rows. *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  if la = 0 then lb
  else if lb = 0 then la
  else begin
    let prev = Array.init (lb + 1) (fun j -> j) in
    let cur = Array.make (lb + 1) 0 in
    for i = 1 to la do
      cur.(0) <- i;
      for j = 1 to lb do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (lb + 1)
    done;
    prev.(lb)
  end

(* Nearest candidate by edit distance, if any is near enough to be a
   plausible typo: within 3 edits and under half the query's length. *)
let suggest ~candidates name =
  let lname = String.lowercase_ascii name in
  let best =
    List.fold_left
      (fun acc c ->
        let d = edit_distance lname (String.lowercase_ascii c) in
        match acc with
        | Some (_, bd) when bd <= d -> acc
        | _ -> Some (c, d))
      None candidates
  in
  match best with
  | Some (c, d) when d > 0 && d <= 3 && 2 * d <= String.length name -> Some c
  | _ -> None
