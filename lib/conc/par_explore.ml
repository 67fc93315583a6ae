(* Work-stealing parallel exploration over OCaml 5 domains (DESIGN §2.11).

   This module is only the pool; the walk is {!Engine.dfs}. Dynamic
   cooperative splitting: there is no up-front task partition — the whole
   schedule tree starts as one task, and splitting happens on demand while
   workers explore. A shared [hungry] counter says how many workers
   currently have nothing to run; the walker consults it through its
   donation hook and, whenever it is positive, a busy walk that has
   descended at least one edge donates the {e entire remaining branch list
   of its shallowest open frame} — the biggest available chunk — as a new
   task into a small mutex-guarded pool. An idle worker claims it and
   resumes the walk there (one prefix replay on its own private {!Runner}
   cursor), exactly where the donor would have continued — including
   further donations, so big subtrees keep splitting as long as anyone is
   idle. The only synchronisation on the hot descend/backtrack path is one
   atomic load per node. A bounded level is split the same way.

   Determinism. Every task owns a {e contiguous interval} of the
   canonical (sequential DFS) leaf order: a donation always takes the
   canonical tail of the donor's remaining work (the shallowest frame's
   rest comes after everything below it), so intervals stay contiguous
   and disjoint by induction. Each task is labelled with its start {e
   rank} — the branch-index path from the global root to its first
   branch; ranks compare lexicographically ([int list] structural
   compare), and sorting the per-task accumulators by rank reproduces
   the sequential delivery order exactly, whatever the domain count or
   the steal timing. For first-failure searches the workers share a
   monotonically lowering [best] start rank: a task that finds a failure
   publishes its own start rank, and a task is abandoned only when
   [best] is strictly below its start — i.e. when a whole earlier
   interval already failed, so the sequential engine would never have
   reached it. The surviving failure with the lowest rank is the first
   failure in canonical schedule order — byte-identical to the
   sequential witness. The walker prunes nothing, so every sweep without
   a run budget is byte-identical across domain counts and executions. *)

type task = Root | Chunk of unit Engine.chunk

(* The task pool. [p_hungry] is the lock-free donation signal (workers
   not currently executing a task); the queue, idle count and termination
   flag live under the mutex. Termination: every worker idle with an
   empty queue means no task is running, so nothing can be donated —
   done. *)
type pool = {
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  mutable p_queue : unit Engine.chunk list;
  mutable p_idle : int;
  mutable p_finished : bool;
  mutable p_root_taken : bool;
  mutable p_stolen : int;  (* donated chunks claimed from the pool *)
  p_domains : int;
  p_hungry : int Atomic.t;
  p_pending : int Atomic.t;  (* donated chunks not yet claimed *)
  p_failure : exn option Atomic.t;
}

let new_pool ~domains =
  {
    p_mutex = Mutex.create ();
    p_cond = Condition.create ();
    p_queue = [];
    p_idle = 0;
    p_finished = false;
    p_root_taken = false;
    p_stolen = 0;
    p_domains = domains;
    p_hungry = Atomic.make domains;
    p_pending = Atomic.make 0;
    p_failure = Atomic.make None;
  }

let claim pool =
  Mutex.lock pool.p_mutex;
  let rec go () =
    if pool.p_finished || Atomic.get pool.p_failure <> None then None
    else if not pool.p_root_taken then begin
      pool.p_root_taken <- true;
      Some Root
    end
    else
      match pool.p_queue with
      | c :: rest ->
          pool.p_queue <- rest;
          pool.p_stolen <- pool.p_stolen + 1;
          Atomic.decr pool.p_pending;
          Some (Chunk c)
      | [] ->
          pool.p_idle <- pool.p_idle + 1;
          if pool.p_idle = pool.p_domains then begin
            pool.p_finished <- true;
            Condition.broadcast pool.p_cond
          end
          else
            while
              pool.p_queue = [] && not pool.p_finished
              && Atomic.get pool.p_failure = None
            do
              Condition.wait pool.p_cond pool.p_mutex
            done;
          pool.p_idle <- pool.p_idle - 1;
          go ()
  in
  let r = go () in
  (match r with Some _ -> Atomic.decr pool.p_hungry | None -> ());
  Mutex.unlock pool.p_mutex;
  r

let donate pool chunk =
  Mutex.lock pool.p_mutex;
  pool.p_queue <- pool.p_queue @ [ chunk ];
  Atomic.incr pool.p_pending;
  Condition.signal pool.p_cond;
  Mutex.unlock pool.p_mutex

let fail pool e =
  if Atomic.compare_and_set pool.p_failure None (Some e) then begin
    Mutex.lock pool.p_mutex;
    pool.p_finished <- true;
    Condition.broadcast pool.p_cond;
    Mutex.unlock pool.p_mutex
  end

(* ------------------------------------------------------ domain capping -- *)

(* Worker domains beyond the hardware's core count buy no parallelism and
   pay for it in stop-the-world minor-GC synchronisation (every domain
   must reach a safepoint for every collection), so a request is capped at
   [Domain.recommended_domain_count]. Reports are domain-count-invariant
   by construction, so the cap never changes a verdict — only wall-clock;
   the cap decision is surfaced as [domains_used] vs [domains_requested]
   in the stats. [CAL_EXPLORE_OVERSUBSCRIBE=1] lifts the cap: the
   determinism test suite uses it to genuinely exercise multi-domain
   stealing and cache sharing even on boxes with fewer cores than the
   requested domain count. *)
let effective_domains requested =
  if requested <= 1 then 1
  else if Engine.env_flag "CAL_EXPLORE_OVERSUBSCRIBE" then requested
  else min requested (Domain.recommended_domain_count ())

(* ----------------------------------------------------- parallel explore -- *)

let explore ~domains ?max_runs ?level ~restart ~fuel ~init ~f ?stop_on
    () =
  let requested = max 1 domains in
  let leaf_of acc ~on_stop o _ () =
    f acc o;
    match stop_on with
    | Some hit when hit acc o ->
        on_stop ();
        raise Engine.Stop
    | _ -> ()
  in
  let walk ?max_runs ?gate ?donor ?resume acc ~on_stop =
    Engine.dfs ~restart ~fuel ?max_runs ?level ?gate ?donor ?resume
      ~init_path:()
      ~step_path:(fun () _ _ -> ())
      ~leaf:(leaf_of acc ~on_stop) ()
  in
  if requested = 1 then begin
    let acc = init () in
    (walk ?max_runs acc ~on_stop:ignore, [| acc |])
  end
  else begin
    let domains = effective_domains requested in
    let budget = Option.map Atomic.make max_runs in
    let gate =
      Option.map (fun b () -> Atomic.fetch_and_add b (-1) > 0) budget
    in
    (* Deterministic first-failure bound: the lowest start rank of a task
       that found a failure ([None] = none yet). Strictly-later tasks are
       whole intervals the sequential walk would never reach. *)
    let best = Atomic.make (None : int list option) in
    let rec lower rank =
      match Atomic.get best with
      | Some b when compare b rank <= 0 -> ()
      | cur ->
          if not (Atomic.compare_and_set best cur (Some rank)) then lower rank
    in
    let pool = new_pool ~domains in
    (* Donate when there are more hungry workers than chunks already
       waiting for them: without the pending bound, oversubscribed runs
       over-split — some worker is always between tasks, and every busy
       worker would shed work on every node. *)
    let hungry () = Atomic.get pool.p_hungry > Atomic.get pool.p_pending in
    let results = Array.make domains [] in
    let worker w () =
      let run_task task =
        let rank, resume =
          match task with
          | Root -> ([], None)
          | Chunk c -> (Engine.chunk_rank c, Some c)
        in
        let abandoned () =
          Option.is_some stop_on
          &&
          match Atomic.get best with
          | Some b -> compare b rank < 0
          | None -> false
        in
        let donor =
          { Engine.hungry; donate = (fun c -> donate pool c); abandoned }
        in
        let acc = init () in
        let stats =
          walk ?gate ~donor ?resume acc ~on_stop:(fun () -> lower rank)
        in
        (rank, stats, acc)
      in
      let rec loop out =
        match claim pool with
        | None -> results.(w) <- out
        | Some task ->
            let out =
              match run_task task with
              | r -> r :: out
              | exception e ->
                  fail pool e;
                  out
            in
            Atomic.incr pool.p_hungry;
            loop out
      in
      loop []
    in
    let spawned =
      List.init (domains - 1) (fun k -> Domain.spawn (worker (k + 1)))
    in
    worker 0 ();
    List.iter Domain.join spawned;
    (match Atomic.get pool.p_failure with Some e -> raise e | None -> ());
    let entries =
      Array.to_list results |> List.concat
      |> List.sort (fun (r1, _, _) (r2, _, _) -> compare r1 r2)
    in
    let merged =
      List.fold_left
        (fun m (_, s, _) -> Engine.merge_stats m s)
        Engine.empty_stats entries
    in
    let stats =
      {
        merged with
        Engine.tasks_stolen = pool.p_stolen;
        domains_used = domains;
        domains_requested = requested;
      }
    in
    (stats, Array.of_list (List.map (fun (_, _, a) -> a) entries))
  end

(* Generic deterministic parallel map over an explicit task array (used by
   the plan fan-out of the fault sweep): items are claimed with one atomic
   fetch-and-add — no lock, no O(n) scan — and results land at their
   item's index, so merging in index order reproduces the sequential
   order. A claim is counted stolen when the item would not have landed on
   this worker under a static round-robin split. *)
let map_tasks ~domains ~f items =
  let n = Array.length items in
  if n = 0 then ([||], 0)
  else begin
    let domains = max 1 (min (effective_domains domains) n) in
    let results = Array.make n None in
    if domains = 1 then begin
      Array.iteri (fun i x -> results.(i) <- Some (f i x)) items;
      (Array.map Option.get results, 0)
    end
    else begin
      let next = Atomic.make 0 in
      let stolen = Atomic.make 0 in
      let failure = Atomic.make (None : exn option) in
      let worker w () =
        let rec loop () =
          if Atomic.get failure = None then begin
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              if i mod domains <> w then Atomic.incr stolen;
              (try results.(i) <- Some (f i items.(i))
               with e -> ignore (Atomic.compare_and_set failure None (Some e)));
              loop ()
            end
          end
        in
        loop ()
      in
      let spawned =
        List.init (domains - 1) (fun k -> Domain.spawn (worker (k + 1)))
      in
      worker 0 ();
      List.iter Domain.join spawned;
      (match Atomic.get failure with Some e -> raise e | None -> ());
      (Array.map Option.get results, Atomic.get stolen)
    end
  end
