(* The experiment suite: every figure/claim of the paper as an executable
   check (see DESIGN.md §3 and EXPERIMENTS.md). Each experiment prints the
   paper's claim and the measured outcome; the process exits non-zero if
   any measured outcome contradicts its claim. *)

open Cal
module S = Workloads.Scenarios

let failures = ref 0

let result ppf ~id ~claim ~measured ~ok =
  if not ok then incr failures;
  Fmt.pf ppf "@.[%s] %s@.  paper:    %s@.  measured: %s  -> %s@." id
    (if ok then "OK" else "MISMATCH")
    claim measured
    (if ok then "reproduced" else "NOT reproduced")

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* E1 — Fig. 3: H1/H2 are CAL, H3 is not; H1 has no sequential witness. *)
let e1 ppf =
  let module P = Workloads.Paper_examples in
  let spec = Spec_exchanger.spec () in
  let cal h = Cal_checker.is_cal ~spec h in
  let lin h = Lin_checker.is_linearizable ~spec h in
  let measured =
    Fmt.str "CAL(H1)=%b CAL(H2)=%b CAL(H3)=%b LIN(H1)=%b LIN(H3')=%b" (cal P.h1)
      (cal P.h2) (cal P.h3) (lin P.h1) (lin P.h3')
  in
  result ppf ~id:"E1/Fig3"
    ~claim:"H1,H2 admissible; H3 not; H1 has no sequential explanation"
    ~measured
    ~ok:(cal P.h1 && cal P.h2 && (not (cal P.h3)) && not (lin P.h1))

(* E2 — §3: every history of program P is CAL; only the all-fail histories
   are classically linearizable. The pair program is explored in full; the
   trio within a preemption bound of 4 (16M unbounded interleavings).
   Distinct histories are checked once. *)
let e2 ppf =
  let examine (s : S.t) =
    let distinct : (string, Cal.History.t * bool) Hashtbl.t = Hashtbl.create 512 in
    let runs = ref 0 in
    let f (o : Conc.Runner.outcome) =
      incr runs;
      let key = History.show o.history in
      if not (Hashtbl.mem distinct key) then
        let swapped = List.exists (fun e -> Ca_trace.element_size e = 2) o.trace in
        Hashtbl.replace distinct key (o.history, swapped)
    in
    let _stats =
      Conc.Explore.exhaustive ~setup:s.setup ~fuel:s.fuel
        ?strategy:(S.strategy s) ~f ()
    in
    let total = Hashtbl.length distinct in
    let cal_ok = ref 0 in
    let lin_ok = ref 0 in
    let swap_free = ref 0 in
    Hashtbl.iter
      (fun _ (h, swapped) ->
        if Cal_checker.is_cal ~spec:s.spec h then incr cal_ok;
        if Lin_checker.is_linearizable ~spec:s.spec h then incr lin_ok;
        if not swapped then incr swap_free)
      distinct;
    (!runs, total, !cal_ok, !lin_ok, !swap_free)
  in
  let (runs_p, tot_p, cal_p, lin_p, free_p), dt_p =
    timed (fun () -> examine (S.exchanger_pair ()))
  in
  let (runs_t, tot_t, cal_t, lin_t, free_t), dt_t =
    timed (fun () -> examine (S.exchanger_trio ()))
  in
  let measured =
    Fmt.str
      "pair: %d runs, %d distinct histories, CAL %d/%d, linearizable %d = swap-free %d (%.1fs);        trio (<=4 preemptions): %d runs, %d distinct, CAL %d/%d, linearizable %d = swap-free %d (%.1fs)"
      runs_p tot_p cal_p tot_p lin_p free_p dt_p runs_t tot_t cal_t tot_t lin_t free_t
      dt_t
  in
  result ppf ~id:"E2/§3"
    ~claim:"all histories CAL-explainable; sequential specs only explain swap-free runs"
    ~measured
    ~ok:(cal_p = tot_p && lin_p = free_p && cal_t = tot_t && lin_t = free_t)

(* E3 — Fig. 4: the rely/guarantee proof holds on every transition. *)
let e3 ppf =
  let threads _ctx ex =
    [|
      Structures.Exchanger.exchange ex ~tid:(Ids.Tid.of_int 0) (Value.int 3);
      Structures.Exchanger.exchange ex ~tid:(Ids.Tid.of_int 1) (Value.int 4);
      Structures.Exchanger.exchange ex ~tid:(Ids.Tid.of_int 2) (Value.int 7);
    |]
  in
  let report, dt =
    timed (fun () ->
        Verify.Exchanger_proof.check_program ~threads ~fuel:90
          ~strategy:(Conc.Explore.Preemption_bounded { bound = 3 })
          ())
  in
  let pair_report, pair_dt =
    timed (fun () ->
        Verify.Exchanger_proof.check_program
          ~threads:(fun _ctx ex ->
            [|
              Structures.Exchanger.exchange ex ~tid:(Ids.Tid.of_int 0) (Value.int 3);
              Structures.Exchanger.exchange ex ~tid:(Ids.Tid.of_int 1) (Value.int 4);
            |])
          ~fuel:60 ())
  in
  let measured =
    Fmt.str
      "pair (full): %d runs, %d transitions, %d violations (%.1fs); trio (<=3        preemptions): %d runs, %d transitions, %d violations (%.1fs)"
      pair_report.runs pair_report.steps_checked
      (List.length pair_report.violations)
      pair_dt report.runs report.steps_checked
      (List.length report.violations)
      dt
  in
  result ppf ~id:"E3/Fig4"
    ~claim:"every atomic step justified by INIT/CLEAN/PASS/XCHG/FAIL; invariant J holds"
    ~measured
    ~ok:(Verify.Exchanger_proof.ok report && Verify.Exchanger_proof.ok pair_report)

let check_scenario ppf ~id ~claim ?max_runs ?bound (s : S.t) =
  let s = if bound = None then s else { s with bound } in
  let report, dt =
    timed (fun () ->
        Verify.Obligations.check_object ~setup:s.setup ~spec:s.spec ~view:s.view
          ~fuel:s.fuel ?max_runs ?strategy:(S.strategy s) ())
  in
  let measured =
    Fmt.str "%s: %d runs (%d complete), %d problems%s (%.1fs)" s.name report.runs
      report.complete_runs
      (List.length report.problems)
      (if report.truncated then " [truncated]" else "")
      dt
  in
  result ppf ~id ~claim ~measured ~ok:(Verify.Obligations.ok report = s.expect_ok);
  report

(* E3b — Fig. 1's proof outline: the intermediate assertions A/B hold, and
   are stable, at every annotated point of every interleaving. *)
let e3b ppf =
  let pair, dt_p =
    timed (fun () ->
        Verify.Proof_outline.check_program ~values:[ Value.int 3; Value.int 4 ] ~fuel:60 ())
  in
  let trio, dt_t =
    timed (fun () ->
        Verify.Proof_outline.check_program
          ~values:[ Value.int 3; Value.int 4; Value.int 7 ]
          ~fuel:90
          ~strategy:(Conc.Explore.Preemption_bounded { bound = 3 })
          ())
  in
  let measured =
    Fmt.str
      "pair (full): %d runs, %d assertions, %d violations (%.1fs); trio (<=3        preemptions): %d runs, %d assertions, %d violations (%.1fs)"
      pair.runs pair.probes_checked
      (List.length pair.violations)
      dt_p trio.runs trio.probes_checked
      (List.length trio.violations)
      dt_t
  in
  result ppf ~id:"E3b/outline"
    ~claim:"the boxed assertions of Fig. 1 (A, B, disjunctions) hold and are stable"
    ~measured
    ~ok:(Verify.Proof_outline.ok pair && Verify.Proof_outline.ok trio)

(* E4 — §5: the elimination array satisfies the exchanger spec via F_AR. *)
let e4 ppf =
  let claim = "AR (array of exchangers) meets the exchanger spec through F_AR" in
  ignore (check_scenario ppf ~id:"E4/AR-k1" ~claim (S.elim_array_pair ~k:1));
  ignore (check_scenario ppf ~id:"E4/AR-k2" ~claim (S.elim_array_pair ~k:2))

(* E5 — §5: the elimination stack is linearizable via F_ES. *)
let e5 ppf =
  let claim = "elimination stack meets the sequential stack spec through F_ES" in
  ignore (check_scenario ppf ~id:"E5/ES-push-pop" ~claim (S.elim_stack_push_pop ~k:1 ()));
  ignore
    (check_scenario ppf ~id:"E5/ES-lifo" ~claim ~bound:2
       (S.elim_stack_sequential_then_pop ~k:1));
  ignore
    (check_scenario ppf ~id:"E5/ES-2x2" ~claim ~bound:2
       (S.elim_stack_two_two ~k:1 ()))

(* E6 — §5 modularity: substituting the abstract exchanger preserves the
   verdict and shrinks the state space. *)
let e6 ppf =
  let concrete, dt_c =
    timed (fun () ->
        let s = S.elim_stack_push_pop ~k:1 () in
        Verify.Obligations.check_object ~setup:s.setup ~spec:s.spec ~view:s.view
          ~fuel:s.fuel ())
  in
  let abstract, dt_a =
    timed (fun () ->
        let s = S.elim_stack_push_pop ~abstract:true ~k:1 () in
        Verify.Obligations.check_object ~setup:s.setup ~spec:s.spec ~view:s.view
          ~fuel:s.fuel ())
  in
  let measured =
    Fmt.str
      "concrete: %d runs, ok=%b (%.1fs); abstract: %d runs, ok=%b (%.1fs); shrink %.1fx"
      concrete.runs
      (Verify.Obligations.ok concrete)
      dt_c abstract.runs
      (Verify.Obligations.ok abstract)
      dt_a
      (float_of_int concrete.runs /. float_of_int (max 1 abstract.runs))
  in
  result ppf ~id:"E6/modularity"
    ~claim:"client verified against the exchanger SPEC, independent of Fig. 1's code"
    ~measured
    ~ok:
      (Verify.Obligations.ok concrete && Verify.Obligations.ok abstract
      && abstract.runs < concrete.runs)

(* E7 — §2's second client: the synchronous queue. *)
let e7 ppf =
  let claim = "synchronous queue meets its CA-spec (rendezvous elements) via F_SQ" in
  ignore (check_scenario ppf ~id:"E7/SQ-pair" ~claim (S.sync_queue_pair ()));
  ignore
    (check_scenario ppf ~id:"E7/SQ-2put" ~claim ~bound:3
       (S.sync_queue_two_producers ()));
  ignore (check_scenario ppf ~id:"E7/DQ-pair" ~claim:"dual queue: fulfilment is one CA-element" (S.dual_queue_enq_deq ()));
  ignore
    (check_scenario ppf ~id:"E7/DQ-2cons"
       ~claim:"dual queue: an unfulfilled consumer blocks (pending operation)"
       (S.dual_queue_two_consumers ()))

(* E9 — §6: CAL ensures observational refinement (Filipovic et al.): the
   concrete exchanger's client-observable outcomes are a subset of the
   specification-driven object's. *)
let e9 ppf =
  let pair_with exchange create ctx =
    let ex = create ctx in
    {
      Conc.Runner.threads =
        [|
          exchange ex ~tid:(Ids.Tid.of_int 0) (Value.int 3);
          exchange ex ~tid:(Ids.Tid.of_int 1) (Value.int 4);
        |];
      observe = None;
      on_label = None;
    }
  in
  let concrete =
    pair_with Structures.Exchanger.exchange (fun ctx -> Structures.Exchanger.create ctx)
  in
  let abstract =
    pair_with Structures.Abstract_exchanger.exchange (fun ctx ->
        Structures.Abstract_exchanger.create ctx)
  in
  let faulty =
    pair_with Structures.Faulty.Exchanger_selfish.exchange (fun ctx ->
        Structures.Faulty.Exchanger_selfish.create ctx)
  in
  let good, dt =
    timed (fun () -> Verify.Refinement.check ~concrete ~abstract ~fuel:60 ())
  in
  let bad = Verify.Refinement.check ~concrete:faulty ~abstract ~fuel:60 () in
  let measured =
    Fmt.str
      "Fig. 1 exchanger: %d outcomes, all explained by the spec object (%.1fs);        faulty exchanger: %d forbidden outcomes detected"
      good.impl_observations dt
      (List.length bad.unexplained)
  in
  result ppf ~id:"E9/refinement"
    ~claim:"CAL implies observational refinement; broken objects show forbidden outcomes"
    ~measured
    ~ok:(Verify.Refinement.refines good && not (Verify.Refinement.refines bad))

(* Negative controls: the faulty objects must be rejected. *)
let negatives ppf =
  let claim = "a broken implementation must be caught" in
  ignore (check_scenario ppf ~id:"N1/counter" ~claim (S.faulty_counter ()));
  ignore (check_scenario ppf ~id:"N2/stack" ~claim (S.faulty_stack ()));
  ignore (check_scenario ppf ~id:"N3/exchanger" ~claim (S.faulty_exchanger ()));
  ignore (check_scenario ppf ~id:"N4/elim-queue" ~claim (S.faulty_elim_queue ()))

let run_all ppf =
  failures := 0;
  Fmt.pf ppf "== CAL experiment suite ==@.";
  e1 ppf;
  e2 ppf;
  e3 ppf;
  e3b ppf;
  e4 ppf;
  e5 ppf;
  e6 ppf;
  e7 ppf;
  e9 ppf;
  negatives ppf;
  Fmt.pf ppf "@.== %s ==@."
    (if !failures = 0 then "ALL EXPERIMENTS REPRODUCED"
     else Fmt.str "%d EXPERIMENTS FAILED" !failures);
  if !failures > 0 then exit 1
