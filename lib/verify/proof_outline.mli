(** The proof outline of Fig. 1, executable.

    The paper annotates the exchanger's code with intermediate assertions
    (the boxed formulas of Fig. 1) built from two macros:

    - [A]: "this thread has not performed its operation yet" —
      [TE|tid = T] — and the global slot does not hold an unsatisfied offer
      of this thread;
    - [B(k)]: "the swap with the owner of offer [k] has been logged" —
      [TE|tid = T · E.swap(…)] with [k]'s owner distinct from this thread.

    We evaluate the corresponding assertion at each probe point of
    {!Structures.Exchanger.exchange_annotated}, in every interleaving of a
    client program. Probes are separate atomic steps, so by the time an
    assertion is evaluated arbitrary interference has run — an assertion
    that never fails is thereby checked to be {e stable under the rely},
    the other half of what a proof outline owes.

    Deviation from Fig. 1, documented: in the occupied branch this
    implementation allocates the thread's own offer inside the XCHG CAS,
    so the [n ↦ tid,v,null] conjunct of [A] is omitted where [n] does not
    yet exist. *)

type violation = {
  point : string;       (** probe name *)
  thread : int;
  message : string;
}

type report = {
  runs : int;
  probes_checked : int;
  violations : violation list;  (** capped at 20 *)
}

val check_probe :
  oid:Cal.Ids.Oid.t ->
  ctx:Conc.Ctx.t ->
  t0:Cal.Ca_trace.t ->
  Structures.Exchanger.probe_point ->
  (unit, string) result
(** Evaluate the Fig. 1 assertion for one probe point against the current
    auxiliary trace; exposed for tests and custom drivers. *)

val check_program :
  values:Cal.Value.t list ->
  fuel:int ->
  ?max_runs:int ->
  ?strategy:Conc.Explore.strategy ->
  unit ->
  report
(** [check_program ~values ~fuel ()] runs one annotated [exchange vᵢ] per
    thread [i] against a fresh exchanger, exhaustively, evaluating every
    proof-outline assertion at every probe of every interleaving. *)

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit
