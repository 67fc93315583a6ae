(** Observational refinement (§6 of the paper).

    Filipović, O'Hearn, Rinetzky and Yang proved linearizability equivalent
    to observational refinement, even for non-sequential specifications —
    so CAL also ensures it: replacing a CA-object by (an object exhibiting
    exactly) its specification cannot add client-observable outcomes. This
    module makes the claim testable for bounded client programs: collect
    the set of observable outcomes (the tuple of thread return values) of a
    client over every explored schedule, for two implementations, and check
    inclusion.

    Used with {!Structures.Abstract_exchanger} as the specification-driven
    object, [check ~concrete ~abstract] demonstrates that the Fig. 1
    exchanger refines its CA-specification; run against a faulty object it
    shows outcomes the specification forbids. *)

type observation = string
(** Canonical rendering of one outcome: the per-thread results (or [?] for
    threads that did not return). *)

val observations :
  setup:(Conc.Ctx.t -> Conc.Runner.program) ->
  fuel:int ->
  ?max_runs:int ->
  ?strategy:Conc.Explore.strategy ->
  unit ->
  observation list
(** All distinct outcomes over the explored schedules, sorted. *)

type result = {
  impl_observations : int;
  spec_observations : int;
  unexplained : observation list;
      (** outcomes of the implementation absent from the specification-driven
          object — refinement fails iff non-empty *)
}

val check :
  concrete:(Conc.Ctx.t -> Conc.Runner.program) ->
  abstract:(Conc.Ctx.t -> Conc.Runner.program) ->
  fuel:int ->
  ?max_runs:int ->
  ?strategy:Conc.Explore.strategy ->
  unit ->
  result

val refines : result -> bool
val pp_result : Format.formatter -> result -> unit
