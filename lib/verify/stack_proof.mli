(** Rely/guarantee proof for the central stack (the "straightforward proof
    of linearizability" the paper omits in §5, made explicit here in the
    style of Fig. 4).

    Shared state: the stack contents together with the stack's view of the
    auxiliary trace, [T_S = 𝒯|S]. Guarantee actions for thread [t]:

    - [PUSH_OK t] — a value appears on top {e and} the singleton element
      [S.(t, push(v) ⇒ true)] is appended, in one step;
    - [PUSH_FAIL t] — contents unchanged, failed-push element appended;
    - [POP_OK t] — the top value disappears, successful-pop element
      appended;
    - [POP_NO t] — contents unchanged, failed/EMPTY pop element appended
      (the implementation answers [(false, 0)] for both).

    The invariant is the paper's §4 remark made executable: {e the abstract
    value of the object is computed by replaying the logged operations} —
    in every state, folding [T_S] over the empty stack must yield exactly
    the current contents. *)

type state = { contents : Cal.Value.t list; trace : Cal.Ca_trace.t }

val actions : oid:Cal.Ids.Oid.t -> state Rg.action list

val replay : Cal.Ca_trace.t -> Cal.Value.t list option
(** Fold a stack trace over the empty stack; [None] if some element is not
    a legal stack operation in sequence. *)

val make : Structures.Treiber_stack.t -> Conc.Ctx.t -> state Rg.t

type report = {
  runs : int;
  steps_checked : int;
  violations : Rg.violation list;  (** capped at 20 *)
}

val check_program :
  threads:
    (Conc.Ctx.t -> Structures.Treiber_stack.t -> Cal.Value.t Conc.Prog.t array) ->
  fuel:int ->
  ?max_runs:int ->
  ?strategy:Conc.Explore.strategy ->
  unit ->
  report

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit
