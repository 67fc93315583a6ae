(** The one schedule-tree walker under every exhaustive search: the
    sequential front of {!Explore}, each task of the work-stealing pool
    ({!Par_explore}), and each level of a bounded search.

    Most callers want {!Explore}; this module is the engine room. The walk
    keeps one live execution and descends the schedule tree one
    {!Runner.step} per edge, re-establishing a branch point after
    backtracking with a single prefix replay. Open nodes live on an
    explicit frame stack; an optional {!donor} hook (the pool's) may hand
    the shallowest frame's remaining branches to an idle worker as a
    {!chunk}, which another walk then {e resumes} mid-iteration — so the
    parallel front explores exactly the subtrees the sequential walk
    would have. A [level] of a {!cost_model} turns the walk into one level
    of iterative deepening (see {!dfs}). The walk prunes nothing: every
    enabled decision of every node is descended. The one reduction,
    source-DPOR, is a separate engine ({!Dpor}). *)

type stats = {
  runs : int;           (** terminal outcomes delivered to the callback *)
  truncated : bool;     (** stopped early by [max_runs]/[gate] (or plans cap) *)
  max_steps : int;      (** longest schedule seen *)
  nodes : int;          (** schedule-tree nodes visited *)
  replayed_steps : int;
      (** program steps re-executed to re-establish branch points after
          backtracking, including task-prefix replays of the parallel
          front *)
  sleep_pruned : int;
      (** decisions skipped by the DPOR engine's sleep sets ({!Dpor}); [0]
          for the walker *)
  races_found : int;
      (** direct races detected by the vector-clock analysis of the DPOR
          engine ({!Dpor}); [0] for the walker *)
  backtrack_points : int;
      (** threads added to node backtrack sets by race reversal (source
          sets); [0] for the walker, which expands every enabled decision *)
  bound_hits : int;
      (** edges cut by a preemption/delay bound at the final deepening
          level — the schedules the bounded search left out start there *)
  bounded : bool;
      (** the run {e set} is an underapproximation because the final level
          of a bounded search cut at least one edge ([bound_hits > 0]); a
          bounded strategy whose bound never bit reports [false] — the
          exploration was complete *)
  cache_hits : int;
      (** verdict-cache hits, patched in by the caller that owns the cache
          ({!Verify.Obligations}); always [0] straight out of the engine *)
  tasks_stolen : int;
      (** parallel front: donated subtree chunks claimed from the shared
          pool (every task except the initial root) *)
  domains_used : int;   (** worker domains (1 for the sequential front) *)
  domains_requested : int;
      (** worker domains the caller asked for, before the
          [Domain.recommended_domain_count] cap of
          {!Par_explore.effective_domains}; [domains_used <
          domains_requested] means the request was capped by the
          hardware *)
  sampled_runs : int;
      (** randomly sampled executions delivered ({!Sampler}); always [0]
          straight out of the exhaustive engine *)
  violations_found : int;
      (** sampled runs failing the checked obligation; patched in by the
          sampled checks of {!Verify.Obligations} *)
  shrink_candidates : int;
      (** candidate replays tried by the {!Shrink} delta-debugger *)
  shrink_steps_removed : int;
      (** schedule decisions removed to reach the minimal witness *)
}

val empty_stats : stats
val merge_stats : stats -> stats -> stats

exception Stop
(** Raised internally to cut the search (budget, counterexample). *)

val env_flag : string -> bool
(** [env_flag v] is [true] iff the environment variable [v] is set to
    [1]/[true]/[yes]/[on]. *)

type cost_model =
  | Preemption
      (** +1 when the previously scheduled thread could continue but
          another runs *)
  | Delay
      (** +1 when the chosen thread deviates from the default continuation:
          the last thread if enabled, else the first enabled thread *)
(** Schedule cost of a bounded search. Branch choices of the default
    thread are data nondeterminism: cost 0. *)

val schedule_cost : cost_model -> Runner.exec -> Runner.schedule -> int
(** [schedule_cost model exec sched] steps [exec] (fresh) through [sched]
    and returns the schedule's cost. *)

type 'path chunk
(** The undescended tail of one open node's branch list, with everything
    needed to resume its iteration elsewhere. *)

val chunk_rank : 'path chunk -> int list
(** Branch-index path from the root to the chunk's first branch: ranks
    compare lexicographically in canonical (sequential DFS) leaf order. *)

type 'path donor = {
  hungry : unit -> bool;  (** consulted before each branch: donate now? *)
  donate : 'path chunk -> unit;
      (** receives the shallowest frame's remaining branches (the
          canonical tail of the walk's remaining work) *)
  abandoned : unit -> bool;
      (** consulted before each node: [true] stops the walk with partial
          stats *)
}

val dfs :
  restart:(unit -> Runner.exec) ->
  fuel:int ->
  ?max_runs:int ->
  ?level:cost_model * int ->
  ?gate:(unit -> bool) ->
  ?donor:'path donor ->
  ?resume:'path chunk ->
  init_path:'path ->
  step_path:('path -> Runner.decision list -> Runner.decision -> 'path) ->
  leaf:(Runner.outcome -> Runner.decision list -> 'path -> unit) ->
  unit ->
  stats
(** Walk the schedule tree of [restart] (or, with [resume], a donated
    chunk of it) to depth [fuel], calling [leaf] on every delivered
    outcome with the final frontier and path state. [leaf] may raise
    {!Stop} to end the walk (the run is then not counted). [max_runs] is
    the local run budget; [gate] (a shared budget) is consulted before
    each delivery — refusal truncates. A [donor] is offered the
    shallowest open frame whose subtree is at least two levels high;
    shallower remainders are not worth a claimer's prefix replay.

    [level = (model, c)] delivers exactly the runs of cost [c] and counts
    in [bound_hits] every edge that would exceed [c]; running levels
    [0..bound] partitions the runs of cost [<= bound]. *)
