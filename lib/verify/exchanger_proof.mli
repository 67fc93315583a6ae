(** The exchanger's rely/guarantee proof (Fig. 4), executable.

    The shared state of the proof is the global offer slot [g] together
    with the exchanger's view of the auxiliary trace, [T_E = 𝒯|E]. Every
    atomic transition of every interleaving must be justified by one of the
    five guarantee actions:

    - [INIT t] — [g] goes from null to a fresh unsatisfied offer of [t];
    - [CLEAN t] — a satisfied (matched or failed) offer leaves [g];
    - [PASS t] — [t] marks its own offer failed ([hole := fail]);
    - [XCHG t] — [t] matches another thread's offer {e and} appends
      [E.swap(g.tid, g.data, t, n.data)] to the trace in the same step;
    - [FAIL t] — [t] appends its singleton failure element (at a failing
      return).

    The invariant [J] states that an unsatisfied offer in [g] belongs to a
    thread currently inside [exchange] ([InE]). *)

type state = {
  g : Structures.Exchanger.offer_view option;
  trace : Cal.Ca_trace.t;  (** [𝒯|E] *)
  active : Cal.Ids.Tid.t list;  (** threads inside a method of E *)
}

val actions : oid:Cal.Ids.Oid.t -> state Rg.action list
(** INIT, CLEAN, PASS, XCHG, FAIL — for reuse and for negative tests. *)

val make : Structures.Exchanger.t -> Conc.Ctx.t -> state Rg.t
(** A checker observing one exchanger within one run. *)

type report = {
  runs : int;
  steps_checked : int;
  violations : Rg.violation list;  (** capped at 20 *)
}

val check_program :
  threads:(Conc.Ctx.t -> Structures.Exchanger.t -> Cal.Value.t Conc.Prog.t array) ->
  fuel:int ->
  ?max_runs:int ->
  ?strategy:Conc.Explore.strategy ->
  unit ->
  report
(** Exhaustively explore the client program [threads] (each thread [i] runs
    with [Tid.of_int i]) against a fresh exchanger per run, checking every
    transition and the invariant [J]. *)

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit
