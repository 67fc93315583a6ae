(** Source-DPOR search engine.

    {!source} explores one interleaving per Mazurkiewicz trace of the
    over-approximated dependence relation ({!Deps}): it is {e complete} —
    every pruned schedule is equivalent to a delivered one with
    byte-identical history, trace and results, so verdicts are preserved
    exactly.

    The engine accepts a schedule [prefix] and is composed with the domain
    pool by root-splitting ({!Explore.exhaustive_collect} with
    [~strategy:Dpor]): the caller fully expands the root frontier (a
    superset of any backtrack set, so reversals never need to reach into
    the frozen prefix) and runs one engine instance per root decision as a
    rank-ordered task. The bounded searches are not here: they are levels
    of the one walker, {!Engine.dfs}, driven by {!Explore}. *)

val classify :
  thread:int ->
  n_decisions:int ->
  label:string ->
  recorded:(string list * string list) option ->
  Deps.eff
(** The effect of a just-applied decision: pure when the thread's head
    offered more than one decision (a [Choose] resolves structurally, no
    user code runs), else {!Deps.effect_of}. Shared with
    {!Explore.races_of}. *)

val source :
  restart:(unit -> Runner.exec) ->
  fuel:int ->
  ?max_runs:int ->
  ?prefix:Runner.decision list ->
  ?gate:(unit -> bool) ->
  f:(Runner.outcome -> unit) ->
  unit ->
  Engine.stats
(** Source-DPOR from the state reached by [prefix] (default the initial
    state). [gate] has {!Engine.dfs} semantics (shared run budget); [f]
    may raise {!Engine.Stop} to end the search. Stats report [races_found],
    [backtrack_points] and [sleep_pruned]; [bounded] is [false] — the
    reduction is verdict-complete. *)
