(* A two-level verdict cache shared across worker domains.

   Keys are caller-built strings (canonical history keys, possibly
   extended with crashed-thread sets and a checker tag); values are the
   per-outcome verdicts of the obligation checkers.

   L2 — always present — is the shared sharded, mutex-protected table.
   Sharding by key hash keeps the critical sections short and mostly
   uncontended; a miss computes {e outside} the shard lock, so two
   domains may occasionally both compute the same verdict — harmless,
   since verdicts are deterministic functions of the key, and the first
   insert wins.

   L1 — only when the cache is unbounded — is a per-domain
   [Domain.DLS] hash table in front of L2. Parallel exploration delivers
   the same canonical class from many domains; once a domain has seen a
   verdict it re-reads it from its own L1 with no lock and no atomic,
   taking the shard mutexes off the hot lookup path entirely. An L1 is
   a plain duplicate of L2 entries, so it needs no invalidation; per-
   domain hit counters are registered at first use and summed into
   {!hits}. Bounded caches (the streaming service) skip L1: duplicated
   entries would make the capacity accounting lie, and eviction could
   not reach the per-domain copies.

   An optional capacity bounds the cache for long-running callers: each
   shard gets its slice of the budget and evicts in insertion (FIFO)
   order. Eviction is verdict-transparent — a later lookup of an evicted
   key recomputes the same deterministic verdict — so it only costs
   recomputation, never correctness. *)

type verdict = (unit, string) result

(* A fixed four-byte length before each field makes the join injective on
   field lists whatever bytes the fields hold — canonical keys are binary
   and may contain any separator one could pick. *)
let key fields =
  let size = List.fold_left (fun n f -> n + 4 + String.length f) 0 fields in
  let b = Bytes.create size in
  let (_ : int) =
    List.fold_left
      (fun pos f ->
        let l = String.length f in
        Bytes.set_int32_be b pos (Int32.of_int l);
        Bytes.blit_string f 0 b (pos + 4) l;
        pos + 4 + l)
      0 fields
  in
  Bytes.unsafe_to_string b

type shard = {
  lock : Mutex.t;
  table : (string, verdict) Hashtbl.t;
  order : string Queue.t;  (* insertion order, only kept when bounded *)
  cap : int option;  (* this shard's slice of the capacity *)
}

(* One domain's private L1: owner-only access, so a mutable int hit
   counter suffices. Other domains read [l_hits] only through {!hits},
   which tolerates a stale value (callers read stats after joining). *)
type local = { l_table : (string, verdict) Hashtbl.t; mutable l_hits : int }

type t = {
  shards : shard array;
  hits : int Atomic.t;       (* L2 hits *)
  misses : int Atomic.t;
  evictions : int Atomic.t;
  l1 : local Domain.DLS.key option;  (* [None] when bounded *)
  l1_registry : local list ref;      (* under [l1_lock] *)
  l1_lock : Mutex.t;
}

let create ?(shards = 16) ?capacity () =
  let shards = max 1 shards in
  (* Small capacities collapse the shard count (at least 4 entries per
     shard): sharding exists for lock contention, and slicing a tiny
     budget 16 ways would let hash skew evict far below the budget. *)
  let shards =
    match capacity with Some c -> max 1 (min shards (c / 4)) | None -> shards
  in
  let cap i =
    match capacity with
    | None -> None
    | Some c ->
        let base = max 1 c / shards and extra = max 1 c mod shards in
        Some (base + if i < extra then 1 else 0)
  in
  let l1_lock = Mutex.create () in
  let l1_registry = ref [] in
  let l1 =
    match capacity with
    | Some _ -> None
    | None ->
        Some
          (Domain.DLS.new_key (fun () ->
               let l = { l_table = Hashtbl.create 64; l_hits = 0 } in
               Mutex.lock l1_lock;
               l1_registry := l :: !l1_registry;
               Mutex.unlock l1_lock;
               l))
  in
  {
    shards =
      Array.init shards (fun i ->
          {
            lock = Mutex.create ();
            table = Hashtbl.create 64;
            order = Queue.create ();
            cap = cap i;
          });
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    l1;
    l1_registry;
    l1_lock;
  }

let shard_of t key =
  t.shards.(Hashtbl.hash key mod Array.length t.shards)

let insert t s key v =
  if not (Hashtbl.mem s.table key) then begin
    Hashtbl.add s.table key v;
    match s.cap with
    | None -> ()
    | Some cap ->
        Queue.push key s.order;
        while Hashtbl.length s.table > cap do
          let victim = Queue.pop s.order in
          Hashtbl.remove s.table victim;
          Atomic.incr t.evictions
        done
  end

let find_shared t ~key compute =
  let s = shard_of t key in
  Mutex.lock s.lock;
  match Hashtbl.find_opt s.table key with
  | Some v ->
      Mutex.unlock s.lock;
      Atomic.incr t.hits;
      v
  | None ->
      Mutex.unlock s.lock;
      let v = compute () in
      Atomic.incr t.misses;
      Mutex.lock s.lock;
      insert t s key v;
      Mutex.unlock s.lock;
      v

let find_or_compute t ~key compute =
  match t.l1 with
  | None -> find_shared t ~key compute
  | Some dls -> (
      let l = Domain.DLS.get dls in
      match Hashtbl.find_opt l.l_table key with
      | Some v ->
          l.l_hits <- l.l_hits + 1;
          v
      | None ->
          let v = find_shared t ~key compute in
          Hashtbl.add l.l_table key v;
          v)

let hits t =
  let l1 =
    Mutex.lock t.l1_lock;
    let n = List.fold_left (fun n l -> n + l.l_hits) 0 !(t.l1_registry) in
    Mutex.unlock t.l1_lock;
    n
  in
  Atomic.get t.hits + l1

let misses t = Atomic.get t.misses
let evictions t = Atomic.get t.evictions

let size t =
  Array.fold_left (fun n s -> n + Hashtbl.length s.table) 0 t.shards
