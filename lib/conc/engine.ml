(* The one schedule-tree walker under every exhaustive search ({!Explore},
   the work-stealing pool of {!Par_explore}, and every bounded level).

   The walker keeps a single live execution and descends by {!Runner.step}
   — O(1) per tree edge. Backtracking to a sibling re-establishes the
   branch point with one prefix replay (the shared heap the program
   mutates cannot be checkpointed, so it is rebuilt by re-execution): the
   total work is O(runs × depth) program steps, against O(nodes × depth)
   for the seed's whole-prefix-replay engine. Per-path checker state (the
   liveness idle counters) is threaded through [step_path]/[leaf] as
   immutable values cloned on branch.

   The open nodes live on an explicit frame stack (one frame per node: the
   branches not yet descended plus the node's scheduling state) so that a
   donation hook can hand the shallowest frame's remaining branches to an
   idle worker as a {!chunk}, which the claimer resumes mid-iteration.
   Without a hook (the sequential front) the stack only mirrors the call
   stack.

   A schedule bound is one [level] of a cost model: the walker delivers
   exactly the runs whose cost equals the level and counts every edge the
   level cuts in [bound_hits]; {!Explore} runs levels [0..bound] around it
   (iterative deepening, so delivery order is (cost, DFS) lexicographic).
   The walker enumerates every branch: the repo's one reduction,
   source-DPOR, is its own engine ({!Dpor}). *)

type stats = {
  runs : int;
  truncated : bool;
  max_steps : int;
  nodes : int;
  replayed_steps : int;
  sleep_pruned : int;
  races_found : int;
  backtrack_points : int;
  bound_hits : int;
  bounded : bool;
  cache_hits : int;
  tasks_stolen : int;
  domains_used : int;
  domains_requested : int;
  sampled_runs : int;
  violations_found : int;
  shrink_candidates : int;
  shrink_steps_removed : int;
}

let empty_stats =
  {
    runs = 0;
    truncated = false;
    max_steps = 0;
    nodes = 0;
    replayed_steps = 0;
    sleep_pruned = 0;
    races_found = 0;
    backtrack_points = 0;
    bound_hits = 0;
    bounded = false;
    cache_hits = 0;
    tasks_stolen = 0;
    domains_used = 1;
    domains_requested = 1;
    sampled_runs = 0;
    violations_found = 0;
    shrink_candidates = 0;
    shrink_steps_removed = 0;
  }

let merge_stats a b =
  {
    runs = a.runs + b.runs;
    truncated = a.truncated || b.truncated;
    max_steps = max a.max_steps b.max_steps;
    nodes = a.nodes + b.nodes;
    replayed_steps = a.replayed_steps + b.replayed_steps;
    sleep_pruned = a.sleep_pruned + b.sleep_pruned;
    races_found = a.races_found + b.races_found;
    backtrack_points = a.backtrack_points + b.backtrack_points;
    bound_hits = a.bound_hits + b.bound_hits;
    bounded = a.bounded || b.bounded;
    cache_hits = a.cache_hits + b.cache_hits;
    tasks_stolen = a.tasks_stolen + b.tasks_stolen;
    domains_used = max a.domains_used b.domains_used;
    domains_requested = max a.domains_requested b.domains_requested;
    sampled_runs = a.sampled_runs + b.sampled_runs;
    violations_found = a.violations_found + b.violations_found;
    shrink_candidates = a.shrink_candidates + b.shrink_candidates;
    shrink_steps_removed = a.shrink_steps_removed + b.shrink_steps_removed;
  }

exception Stop
exception Abandoned

type cost_model = Preemption | Delay

let env_flag v =
  match Sys.getenv_opt v with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

(* ------------------------------------------------------------ walker -- *)

(* One open node. A donated chunk is a copy of a frame that owns the
   donor's remaining branches; the claimer replays [fr_prefix_rev] and
   resumes the iteration exactly where the donor would have. *)
type 'path frame = {
  fr_depth : int;
  fr_prefix_rev : Runner.decision list;
  fr_rank_rev : int list;
      (* branch-index path from the root, newest first (donating walks
         only) *)
  fr_frontier : Runner.frontier;
  fr_path : 'path;
  fr_default : int option;
      (* the default continuation under the cost model: choosing any other
         thread costs 1; [None] makes every choice free *)
  fr_used : int;  (* schedule cost spent reaching this node *)
  mutable fr_rest : Runner.frontier;
  mutable fr_next : int;  (* branch index of [hd fr_rest] *)
}

type 'path chunk = 'path frame

let chunk_rank c = List.rev (c.fr_next :: c.fr_rank_rev)

type 'path donor = {
  hungry : unit -> bool;
  donate : 'path chunk -> unit;
  abandoned : unit -> bool;
}

(* Preemption: the last thread, when still enabled, is the free
   continuation; with it disabled every choice is free. Delay: the last
   thread if enabled, else the first enabled thread. Branch choices of the
   default thread are data nondeterminism, not deviations: cost 0. *)
let default_thread model ~last (frontier : Runner.frontier) =
  let enabled t =
    List.exists (fun (d : Runner.decision) -> d.thread = t) frontier
  in
  match (last, model) with
  | Some t, _ when enabled t -> Some t
  | _, Preemption -> None
  | _, Delay -> (
      match frontier with d :: _ -> Some d.Runner.thread | [] -> None)

let edge_cost default (d : Runner.decision) =
  match default with Some t when t <> d.thread -> 1 | _ -> 0

let schedule_cost model exec schedule =
  let _, cost =
    List.fold_left
      (fun (last, cost) (d : Runner.decision) ->
        let default = default_thread model ~last (Runner.frontier exec) in
        ignore (Runner.step exec d);
        (Some d.thread, cost + edge_cost default d))
      (None, 0) schedule
  in
  cost

(* Donation grain: a frame is donated only when its subtree has at least
   this many levels left — shipping a chunk worth a handful of leaves costs
   a prefix replay that running them locally would not. *)
let donation_min_height = 2

let dfs ~restart ~fuel ?max_runs ?level ?gate ?donor ?resume ~init_path
    ~step_path ~leaf () =
  let exec = ref (restart ()) in
  let runs = ref 0 and truncated = ref false and max_steps = ref 0 in
  let nodes = ref 0 and replayed = ref 0 and bound_hits = ref 0 in
  let deliver frontier path =
    (match gate with
    | Some admit when not (admit ()) ->
        truncated := true;
        raise Stop
    | _ -> ());
    let o = Runner.outcome !exec in
    leaf o frontier path;
    incr runs;
    if o.Runner.steps > !max_steps then max_steps := o.Runner.steps;
    match max_runs with
    | Some m when !runs >= m ->
        truncated := true;
        raise Stop
    | _ -> ()
  in
  (* Position the execution at the node reached by [prefix_rev]: free while
     descending along the spine; one fresh prefix replay after returning
     from an earlier sibling's subtree. *)
  let ensure_at depth prefix_rev =
    if Runner.steps_done !exec <> depth then begin
      let e = restart () in
      List.iter (fun d -> ignore (Runner.step e d)) (List.rev prefix_rev);
      replayed := !replayed + depth;
      exec := e
    end
  in
  let abandoned () =
    match donor with Some dn -> dn.abandoned () | None -> false
  in
  (* Only a donating walk keeps its open frames in an array (donation
     scans it); a sequential walk's frames live on the call stack alone,
     so no write barrier promotes them out of the minor heap. *)
  let donating = Option.is_some donor in
  let frames = ref [||] and ntop = ref 0 in
  let push fr =
    if donating then begin
      let arr = !frames in
      let cap = Array.length arr in
      if !ntop >= cap then begin
        let arr' = Array.make (max 16 (2 * cap)) fr in
        Array.blit arr 0 arr' 0 cap;
        frames := arr'
      end;
      !frames.(!ntop) <- fr;
      incr ntop
    end
  in
  let pop () = if donating then decr ntop in
  (* A walk donates only after it has descended at least one edge. Without
     this, a freshly claimed chunk whose owner sees a hungry peer donates
     its {e entire} branch list back to the pool before doing any work —
     and with several workers timesharing few cores the chunk circulates
     as a hot potato, each hop burning a full prefix replay while one
     worker does all the real work. Requiring one descended edge first
     makes every hop shrink the interval, so total donations are bounded
     by the tree's edge count. *)
  let started = ref false in
  (* Donate the shallowest frame's remaining branches — the canonical tail
     of this walk's remaining work. Frames whose subtree height is below
     the grain are skipped: handing out a few leaves costs more than
     running them. *)
  let maybe_donate () =
    match donor with
    | Some dn when !started && dn.hungry () ->
        let arr = !frames and n = !ntop in
        let rec find i =
          if i < n then
            let fr = arr.(i) in
            if fr.fr_rest <> [] && fuel - fr.fr_depth >= donation_min_height
            then begin
              dn.donate { fr with fr_rest = fr.fr_rest };
              fr.fr_rest <- []
            end
            else find (i + 1)
        in
        find 0
    | _ -> ()
  in
  let rec expand ~depth ~prefix_rev ~rank_rev ~used ~path =
    if abandoned () then raise Abandoned;
    incr nodes;
    let frontier = Runner.frontier !exec in
    if frontier = [] || depth >= fuel then begin
      match level with
      | Some (_, c) when used <> c -> ()
      | _ -> deliver frontier path
    end
    else begin
      let fr_default =
        match (level, prefix_rev) with
        | None, _ -> None
        | Some (model, _), [] -> default_thread model ~last:None frontier
        | Some (model, _), (d : Runner.decision) :: _ ->
            default_thread model ~last:(Some d.thread) frontier
      in
      let fr =
        {
          fr_depth = depth;
          fr_prefix_rev = prefix_rev;
          fr_rank_rev = rank_rev;
          fr_frontier = frontier;
          fr_path = path;
          fr_default;
          fr_used = used;
          fr_rest = frontier;
          fr_next = 0;
        }
      in
      push fr;
      iterate fr;
      pop ()
    end
  and iterate fr =
    maybe_donate ();
    match fr.fr_rest with
    | [] -> ()
    | (d : Runner.decision) :: rest ->
        fr.fr_rest <- rest;
        let idx = fr.fr_next in
        fr.fr_next <- idx + 1;
        let used = fr.fr_used + edge_cost fr.fr_default d in
        (match level with
        | Some (_, c) when used > c -> incr bound_hits
        | _ ->
            ensure_at fr.fr_depth fr.fr_prefix_rev;
            let path = step_path fr.fr_path fr.fr_frontier d in
            ignore (Runner.step !exec d);
            started := true;
            expand ~depth:(fr.fr_depth + 1)
              ~prefix_rev:(d :: fr.fr_prefix_rev)
              ~rank_rev:(if donating then idx :: fr.fr_rank_rev else [])
              ~used ~path);
        iterate fr
  in
  (try
     match resume with
     | None ->
         expand ~depth:0 ~prefix_rev:[] ~rank_rev:[] ~used:0 ~path:init_path
     | Some fr ->
         (* the donor counted this node when it expanded it; the chunk
            resumes mid-iteration *)
         List.iter
           (fun d -> ignore (Runner.step !exec d))
           (List.rev fr.fr_prefix_rev);
         replayed := fr.fr_depth;
         if abandoned () then raise Abandoned;
         push fr;
         iterate fr
   with Stop | Abandoned -> ());
  {
    empty_stats with
    runs = !runs;
    truncated = !truncated;
    max_steps = !max_steps;
    nodes = !nodes;
    replayed_steps = !replayed;
    bound_hits = !bound_hits;
  }
