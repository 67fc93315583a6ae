(* Tests for the concurrent objects: sequential sanity, instrumentation, and
   exhaustively explored concurrent behaviours. *)

open Cal
open Conc
open Conc.Prog.Infix
open Structures
open Test_support

let t name f = Alcotest.test_case name `Quick f

(* drive a single-threaded program to completion and return the outcome *)
let run_solo ~setup =
  let rec drive sched =
    let o, frontier = Runner.replay ~setup sched in
    match frontier with [] -> o | d :: _ -> drive (sched @ [ d ])
  in
  drive []

let test_exchanger_solo_fails () =
  let setup ctx =
    let ex = Exchanger.create ctx in
    { Runner.threads = [| Exchanger.exchange ex ~tid:(tid 0) (vi 3) |]; observe = None; on_label = None }
  in
  let o = run_solo ~setup in
  check_bool "complete" true o.Runner.complete;
  check_bool "failed" true (o.Runner.results.(0) = Some (fail_int 3));
  (* the failure element was logged *)
  Alcotest.(check int) "one element" 1 (List.length o.Runner.trace);
  check_bool "spec accepts" true (Spec.accepts (Spec_exchanger.spec ()) o.Runner.trace)

let test_exchanger_pair_can_swap () =
  let s = Workloads.Scenarios.exchanger_pair () in
  let swapped = ref false in
  let failed = ref false in
  let _ =
    Explore.exhaustive ~setup:s.setup ~fuel:s.fuel
      ~f:(fun o ->
        match (o.Runner.results.(0), o.Runner.results.(1)) with
        | Some r0, Some r1 ->
            if Value.equal r0 (ok_int 4) then begin
              swapped := true;
              (* swaps are symmetric *)
              check_bool "partner swapped too" true (Value.equal r1 (ok_int 3))
            end;
            if Value.equal r0 (fail_int 3) then failed := true
        | _ -> ())
      ()
  in
  check_bool "some run swaps" true !swapped;
  check_bool "some run fails" true !failed

let test_exchanger_peek_g () =
  let ctx = Ctx.create () in
  let ex = Exchanger.create ctx in
  check_bool "initially null" true (Exchanger.peek_g ex = None);
  (* drive t0 through its INIT cas only: inv + init *)
  let setup ctx =
    let ex = Exchanger.create ctx in
    { Runner.threads = [| Exchanger.exchange ex ~tid:(tid 0) (vi 3) |]; observe = None; on_label = None }
  in
  let o, _ =
    Runner.replay ~setup
      [ { Runner.thread = 0; branch = 0 }; { Runner.thread = 0; branch = 0 } ]
  in
  check_bool "op still pending" true (not o.Runner.complete)

let test_treiber_sequential () =
  let setup ctx =
    let s = Treiber_stack.create ctx in
    {
      Runner.threads =
        [|
          (let* _ = Treiber_stack.push s ~tid:(tid 0) (vi 1) in
           let* _ = Treiber_stack.push s ~tid:(tid 0) (vi 2) in
           let* a = Treiber_stack.pop s ~tid:(tid 0) in
           let* b = Treiber_stack.pop s ~tid:(tid 0) in
           let* c = Treiber_stack.pop s ~tid:(tid 0) in
           Prog.return (Value.list [ a; b; c ]));
        |];
      observe = None;
      on_label = None;
    }
  in
  let o = run_solo ~setup in
  check_bool "lifo with empty" true
    (o.Runner.results.(0)
    = Some (Value.list [ ok_int 2; ok_int 1; fail_int 0 ]))

let test_treiber_contention_failure_possible () =
  (* two concurrent pushes: some interleaving makes one CAS fail *)
  let setup ctx =
    let s = Treiber_stack.create ctx in
    {
      Runner.threads =
        [|
          Treiber_stack.push s ~tid:(tid 0) (vi 1);
          Treiber_stack.push s ~tid:(tid 1) (vi 2);
        |];
      observe = None;
      on_label = None;
    }
  in
  let failed = ref false in
  let _ =
    Explore.exhaustive ~setup ~fuel:40
      ~f:(fun o ->
        if
          Array.exists (fun r -> r = Some (Value.bool false)) o.Runner.results
        then failed := true)
      ()
  in
  check_bool "a push can fail under contention" true !failed

let test_treiber_retry_always_succeeds () =
  let setup ctx =
    let s = Treiber_stack.create ctx in
    {
      Runner.threads =
        [|
          Treiber_stack.push_retry s ~tid:(tid 0) (vi 1);
          Treiber_stack.push_retry s ~tid:(tid 1) (vi 2);
        |];
      observe = None;
      on_label = None;
    }
  in
  let _ =
    Explore.exhaustive ~setup ~fuel:60
      ~f:(fun o ->
        if o.Runner.complete then
          check_bool "both true" true
            (Array.for_all (fun r -> r = Some (Value.bool true)) o.Runner.results))
      ()
  in
  ()

let test_ms_queue_sequential () =
  let setup ctx =
    let q = Ms_queue.create ctx in
    {
      Runner.threads =
        [|
          (let* _ = Ms_queue.enq q ~tid:(tid 0) (vi 1) in
           let* _ = Ms_queue.enq q ~tid:(tid 0) (vi 2) in
           let* a = Ms_queue.deq q ~tid:(tid 0) in
           let* b = Ms_queue.deq q ~tid:(tid 0) in
           let* c = Ms_queue.deq q ~tid:(tid 0) in
           Prog.return (Value.list [ a; b; c ]));
        |];
      observe = None;
      on_label = None;
    }
  in
  let o = run_solo ~setup in
  check_bool "fifo with empty" true
    (o.Runner.results.(0)
    = Some (Value.list [ ok_int 1; ok_int 2; fail_int 0 ]))

let test_counter_concurrent () =
  let s = Workloads.Scenarios.counter_incrs ~n:3 in
  let _ =
    Explore.exhaustive ~setup:s.setup ~fuel:s.fuel
      ~f:(fun o ->
        if o.Runner.complete then begin
          let returns =
            Array.to_list o.Runner.results |> List.filter_map Fun.id
            |> List.map Value.to_int |> List.sort compare
          in
          Alcotest.(check (list int)) "all previous values distinct" [ 0; 1; 2 ] returns
        end)
      ()
  in
  ()

let test_register_last_write_wins () =
  let setup ctx =
    let r = Register.create ctx in
    {
      Runner.threads =
        [|
          (let* _ = Register.write r ~tid:(tid 0) (vi 1) in
           Prog.return Value.unit);
          (let* _ = Register.write r ~tid:(tid 1) (vi 2) in
           Prog.return Value.unit);
        |];
      observe = None;
      on_label = None;
    }
  in
  let finals = ref [] in
  let _ =
    Explore.exhaustive ~setup ~fuel:20
      ~f:(fun o ->
        if o.Runner.complete then
          let v = List.rev o.Runner.trace |> List.hd |> Ca_trace.element_ops in
          match v with
          | [ op ] -> finals := op.Op.arg :: !finals
          | _ -> ())
      ()
  in
  check_bool "both final values occur" true
    (List.exists (Value.equal (vi 1)) !finals && List.exists (Value.equal (vi 2)) !finals)

let test_sync_queue_rendezvous_possible () =
  let s = Workloads.Scenarios.sync_queue_pair () in
  let rendezvous = ref false in
  let gave_up = ref false in
  let _ =
    Explore.exhaustive ~setup:s.setup ~fuel:s.fuel
      ~f:(fun o ->
        match o.Runner.results.(0) with
        | Some (Value.Bool true) ->
            rendezvous := true;
            check_bool "take got 7" true (o.Runner.results.(1) = Some (ok_int 7))
        | Some (Value.Bool false) -> gave_up := true
        | _ -> ())
      ()
  in
  check_bool "rendezvous occurs" true !rendezvous;
  check_bool "giving up occurs" true !gave_up

let test_elim_stack_elimination_happens () =
  (* elimination needs central-stack contention: with one pusher and one
     popper on an empty stack the push CAS can never fail, so we use the
     2x2 workload, where racing pushers fail and divert to the exchanger *)
  let s = Workloads.Scenarios.elim_stack_two_two ~k:1 () in
  let eliminated = ref false in
  let _ =
    Explore.exhaustive ~setup:s.setup ~fuel:s.fuel
      ~strategy:(Explore.Preemption_bounded { bound = 2 })
      ~f:(fun o ->
        if List.exists (fun e -> Ca_trace.element_size e = 2) o.Runner.trace then
          eliminated := true)
      ()
  in
  check_bool "elimination path exercised" true !eliminated

let test_abstract_exchanger_behaviours () =
  let s = Workloads.Scenarios.exchanger_abstract_pair () in
  let swapped = ref false in
  let failed = ref false in
  let _ =
    Explore.exhaustive ~setup:s.setup ~fuel:s.fuel
      ~f:(fun o ->
        (match o.Runner.results.(0) with
        | Some (Value.Pair (Value.Bool true, _)) -> swapped := true
        | Some (Value.Pair (Value.Bool false, _)) -> failed := true
        | _ -> ());
        (* every abstract run's trace is already legal *)
        check_bool "trace legal" true (Spec.accepts s.spec o.Runner.trace))
      ()
  in
  check_bool "swap behaviour" true !swapped;
  check_bool "fail behaviour" true !failed

(* ------------------------------------------------------------ backoff -- *)

(* Run [starts] successive backoff loops of [n] pauses each on one policy
   (single-threaded, so the schedule is unique) and return the draw
   sequences: for each start, the pause lengths in yields. The recorder is
   reset in [setup] — exploration replays the program once per extension —
   and only the complete run's groups are kept. *)
let backoff_draws ~seed ~init ~max ~n ~starts =
  let groups = ref [] in
  let record label =
    if label = "start-mark" then groups := [] :: !groups
    else if label = "backoff" then
      (match !groups with
      | g :: rest -> groups := (0 :: g) :: rest
      | [] -> ())
    else if label = "yield" then
      match !groups with
      | (k :: g) :: rest -> groups := ((k + 1) :: g) :: rest
      | _ -> ()
  in
  let setup _ctx =
    groups := [];
    let pol = Backoff.policy ~init ~max ~seed () in
    let one_start () =
      Prog.atomic ~label:"start-mark" (fun () -> Backoff.start pol) >>= fun b ->
      let rec go i =
        if i = 0 then Prog.return () else Backoff.pause b >>= fun () -> go (i - 1)
      in
      go n
    in
    let rec loop s =
      if s = 0 then Prog.return Value.unit
      else one_start () >>= fun () -> loop (s - 1)
    in
    { Runner.threads = [| loop starts |]; observe = None; on_label = Some record }
  in
  let complete = ref [] in
  let _ =
    Explore.exhaustive ~setup ~fuel:10_000 ~f:(fun _ -> complete := !groups) ()
  in
  List.rev_map List.rev !complete

let test_backoff_equal_seeds_equal_draws =
  qtest ~count:25 "equal seeds give equal backoff draw sequences" QCheck.small_int
    (fun s ->
      let seed = Int64.of_int s in
      let run () = backoff_draws ~seed ~init:1 ~max:8 ~n:10 ~starts:1 in
      run () = run ())

let test_backoff_draws_respect_cap =
  qtest ~count:25 "backoff draws stay within the doubling window"
    QCheck.small_int (fun s ->
      let seed = Int64.of_int s in
      let max = 4 in
      match backoff_draws ~seed ~init:1 ~max ~n:8 ~starts:1 with
      | [ draws ] ->
          List.for_all2
            (fun i k -> k >= 0 && k <= min (1 lsl i) max)
            (List.init (List.length draws) Fun.id)
            draws
      | _ -> false)

let test_backoff_decorrelation () =
  (* distinct starts from one policy (distinct operations / tids) jitter
     apart; distinct policy seeds likewise *)
  (match backoff_draws ~seed:5L ~init:1 ~max:16 ~n:12 ~starts:2 with
  | [ a; b ] -> check_bool "distinct starts decorrelate" true (a <> b)
  | _ -> check_bool "two groups" true false);
  let one seed = backoff_draws ~seed ~init:1 ~max:16 ~n:12 ~starts:1 in
  check_bool "distinct seeds decorrelate" true (one 5L <> one 6L)

let test_faulty_counter_misbehaves () =
  let s = Workloads.Scenarios.faulty_counter () in
  let bad_trace = ref false in
  let _ =
    Explore.exhaustive ~setup:s.setup ~fuel:s.fuel
      ~f:(fun o -> if not (Spec.accepts s.spec o.Runner.trace) then bad_trace := true)
      ()
  in
  check_bool "lost update occurs" true !bad_trace

let () =
  Alcotest.run "structures"
    [
      ( "exchanger",
        [
          t "solo fails" test_exchanger_solo_fails;
          t "pair can swap" test_exchanger_pair_can_swap;
          t "peek_g" test_exchanger_peek_g;
          t "abstract behaviours" test_abstract_exchanger_behaviours;
        ] );
      ( "stacks",
        [
          t "treiber sequential" test_treiber_sequential;
          t "treiber contention failure" test_treiber_contention_failure_possible;
          t "treiber retry succeeds" test_treiber_retry_always_succeeds;
          t "elimination happens" test_elim_stack_elimination_happens;
        ] );
      ( "queues",
        [
          t "ms queue sequential" test_ms_queue_sequential;
          t "sync queue rendezvous" test_sync_queue_rendezvous_possible;
        ] );
      ( "simple objects",
        [
          t "counter concurrent" test_counter_concurrent;
          t "register last write wins" test_register_last_write_wins;
        ] );
      ( "backoff",
        [
          test_backoff_equal_seeds_equal_draws;
          test_backoff_draws_respect_cap;
          t "decorrelation" test_backoff_decorrelation;
        ] );
      ("faulty", [ t "counter misbehaves" test_faulty_counter_misbehaves ]);
    ]
