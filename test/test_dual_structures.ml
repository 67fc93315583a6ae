(* Tests for the blocking-guard primitive, the dual queue, and the
   elimination-backed FIFO queue. *)

open Cal
open Conc
open Conc.Prog.Infix
open Structures
open Test_support

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------- guards -- *)

let test_guard_blocks_until_enabled () =
  let setup _ctx =
    let cell = ref None in
    {
      Runner.threads =
        [|
          Prog.await cell >>= (fun v -> Prog.return (Value.int v));
          Prog.atomic (fun () -> cell := Some 42) >>= (fun () -> Prog.return Value.unit);
        |];
      observe = None;
      on_label = None;
    }
  in
  (* initially only the setter is enabled *)
  let _, frontier = Runner.replay ~setup [] in
  Alcotest.(check int) "only setter enabled" 1 (List.length frontier);
  Alcotest.(check int) "thread 1" 1 (List.hd frontier).Runner.thread;
  (* after the set, the waiter can fire *)
  let o, _ =
    Runner.replay ~setup
      [ { Runner.thread = 1; branch = 0 }; { Runner.thread = 0; branch = 0 } ]
  in
  check_bool "waiter got value" true (o.Runner.results.(0) = Some (Value.int 42))

let test_deadlock_detected () =
  let setup _ctx =
    let a = ref None and b = ref None in
    {
      Runner.threads =
        [|
          Prog.await a >>= (fun v -> Prog.atomic (fun () -> b := Some v) >>= fun () -> Prog.return Value.unit);
          Prog.await b >>= (fun v -> Prog.atomic (fun () -> a := Some v) >>= fun () -> Prog.return Value.unit);
        |];
      observe = None;
      on_label = None;
    }
  in
  let o, frontier = Runner.replay ~setup [] in
  check_bool "nothing enabled" true (frontier = []);
  check_bool "not complete: deadlock" true (not o.Runner.complete);
  (* exhaustive exploration terminates despite the deadlock *)
  let stats = Explore.exhaustive ~setup ~fuel:100 ~f:(fun _ -> ()) () in
  Alcotest.(check int) "one (deadlocked) run" 1 stats.Explore.runs

let test_guard_in_exploration () =
  (* producer/consumer via await: all interleavings complete *)
  let setup _ctx =
    let cell = ref None in
    {
      Runner.threads =
        [|
          Prog.await cell >>= (fun v -> Prog.return (Value.int v));
          Prog.atomic (fun () -> cell := Some 1) >>= (fun () -> Prog.return Value.unit);
        |];
      observe = None;
      on_label = None;
    }
  in
  let all_complete = ref true in
  let stats =
    Explore.exhaustive ~setup ~fuel:20
      ~f:(fun o -> if not o.Runner.complete then all_complete := false)
      ()
  in
  check_bool "all complete" true !all_complete;
  check_bool "few runs" true (stats.Explore.runs <= 3)

(* --------------------------------------------------------- dual queue -- *)

let test_dual_queue_scenarios () =
  check_bool "enq-deq" true (scenario_ok (Workloads.Scenarios.dual_queue_enq_deq ()));
  check_bool "two consumers" true
    (scenario_ok (Workloads.Scenarios.dual_queue_two_consumers ()))

let test_dual_queue_fulfilment_element () =
  (* force the waiting path: deq first, then enq *)
  let setup ctx =
    let q = Dual_queue.create ctx in
    {
      Runner.threads =
        [| Dual_queue.deq q ~tid:(tid 0); Dual_queue.enq q ~tid:(tid 1) (vi 9) |];
      observe = None;
      on_label = None;
    }
  in
  (* schedule: deq inv, deq step (registers), enq inv, enq step (fulfils),
     enq res, deq wait fires, deq res *)
  let d th = { Runner.thread = th; branch = 0 } in
  let o, frontier = Runner.replay ~setup [ d 0; d 0; d 1; d 1; d 1; d 0; d 0 ] in
  check_bool "complete" true (o.Runner.complete && frontier = []);
  check_bool "deq got 9" true (o.Runner.results.(0) = Some (vi 9));
  (* exactly one CA-element, containing both operations *)
  Alcotest.(check int) "one element" 1 (List.length o.Runner.trace);
  Alcotest.(check int) "pair element" 2 (Ca_trace.element_size (List.hd o.Runner.trace))

let test_dual_queue_values_first () =
  (* enq then deq sequentially: two singleton elements *)
  let setup ctx =
    let q = Dual_queue.create ctx in
    {
      Runner.threads =
        [|
          (let* _ = Dual_queue.enq q ~tid:(tid 0) (vi 5) in
           Dual_queue.deq q ~tid:(tid 0));
        |];
      observe = None;
      on_label = None;
    }
  in
  let rec drive sched =
    let o, frontier = Runner.replay ~setup sched in
    match frontier with [] -> o | d :: _ -> drive (sched @ [ d ])
  in
  let o = drive [] in
  check_bool "got 5" true (o.Runner.results.(0) = Some (vi 5));
  Alcotest.(check int) "two singleton elements" 2 (List.length o.Runner.trace)

let test_dual_queue_spec_rejects_nonempty_fulfilment () =
  let dq = oid "DQ" in
  let spec = Spec_dual_queue.spec ~oid:dq () in
  let tr =
    [
      Ca_trace.singleton (Spec_dual_queue.enq_op ~oid:dq (tid 1) (vi 1));
      Spec_dual_queue.fulfilment ~oid:dq (tid 2) (vi 9) (tid 3);
    ]
  in
  check_bool "fulfilment on non-empty queue rejected" false (Spec.accepts spec tr);
  check_bool "fulfilment on empty queue accepted" true
    (Spec.accepts spec [ Spec_dual_queue.fulfilment ~oid:dq (tid 2) (vi 9) (tid 3) ])

(* -------------------------------------------------- elimination queue -- *)

let test_elim_queue_scenarios () =
  check_bool "enq-deq" true (scenario_ok (Workloads.Scenarios.elim_queue_enq_deq ()));
  check_bool "fifo (bounded)" true
    (scenario_ok ~bound:3 (Workloads.Scenarios.elim_queue_fifo ()))

let test_elim_queue_elimination_path () =
  (* deq waits, enq eliminates: the trace carries the enq·deq sequence at
     the elimination queue's level and nothing from the central queue *)
  let probe = Elimination_queue.create (Ctx.create ()) in
  let view = Elimination_queue.view probe in
  let setup ctx =
    let q = Elimination_queue.create ctx in
    {
      Runner.threads =
        [| Elimination_queue.deq q ~tid:(tid 0); Elimination_queue.enq q ~tid:(tid 1) (vi 4) |];
      observe = None;
      on_label = None;
    }
  in
  let eliminated = ref false in
  let central_q = Ids.Oid.v "EQ.Q" in
  let _ =
    Explore.exhaustive ~setup ~fuel:30
      ~f:(fun o ->
        (* elimination happened iff the enqueue never touched the central
           queue: no EQ.Q enq element in the raw trace *)
        let central_enq =
          List.exists
            (fun e ->
              Ids.Oid.equal (Ca_trace.element_oid e) central_q
              && List.exists
                   (fun (op : Op.t) -> Ids.Fid.equal op.fid Spec_queue.fid_enq)
                   (Ca_trace.element_ops e))
            o.Runner.trace
        in
        let viewed = view o.Runner.trace in
        if o.Runner.complete && (not central_enq) && List.length viewed = 2 then
          eliminated := true)
      ()
  in
  check_bool "elimination path exercised" true !eliminated

let test_faulty_elim_queue_caught () =
  let s = Workloads.Scenarios.faulty_elim_queue () in
  check_bool "caught" true (scenario_ok ~bound:3 s)

let () =
  Alcotest.run "dual_structures"
    [
      ( "guards",
        [
          t "blocks until enabled" test_guard_blocks_until_enabled;
          t "deadlock detected" test_deadlock_detected;
          t "guard in exploration" test_guard_in_exploration;
        ] );
      ( "dual queue",
        [
          t "scenarios" test_dual_queue_scenarios;
          t "fulfilment element" test_dual_queue_fulfilment_element;
          t "values first" test_dual_queue_values_first;
          t "spec rejects non-empty fulfilment" test_dual_queue_spec_rejects_nonempty_fulfilment;
        ] );
      ( "elimination queue",
        [
          t "scenarios" test_elim_queue_scenarios;
          t "elimination path" test_elim_queue_elimination_path;
          t "stale transfer caught" test_faulty_elim_queue_caught;
        ] );
    ]
