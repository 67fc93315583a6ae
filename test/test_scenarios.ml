(* End-to-end: every built-in scenario matches its expectation under the
   modular obligations; cross-validated with the black-box CAL checker on
   the smaller ones. Heavier scenarios run under a preemption bound. *)

open Test_support
module S = Workloads.Scenarios

let t name f = Alcotest.test_case name f

let light (s : S.t) =
  t s.name `Quick (fun () -> check_bool s.name true (scenario_ok s))

let bounded ?(bound = 2) (s : S.t) =
  t s.name `Quick (fun () ->
      check_bool s.name true (scenario_ok ~bound:bound s))

(* A bounded check must say so: every scenario with a bound reports
   [bounded = true] through the obligation check, with the bound hits of
   the plain Preemption_bounded exploration — so [calc verify] prints
   "bounded (N bound hits)" instead of passing for a complete proof. *)
let honest_bounded_reports () =
  List.iter
    (fun (s : S.t) ->
      match (scenario_report s).Verify.Obligations.exploration with
      | None -> Alcotest.failf "%s: no exploration stats" s.name
      | Some e ->
          let plain =
            Conc.Explore.exhaustive_strategy
              ~strategy:(Option.get (S.strategy s))
              ~setup:s.setup ~fuel:s.fuel ~f:ignore ()
          in
          check_bool (s.name ^ ": reported bounded") true
            e.Conc.Explore.bounded;
          Alcotest.(check int)
            (s.name ^ ": bound hits")
            plain.Conc.Explore.bound_hits e.Conc.Explore.bound_hits)
    (List.filter (fun (s : S.t) -> s.bound <> None) (S.all ()))

let black_box (s : S.t) =
  t (s.name ^ " [black-box]") `Quick (fun () ->
      let r =
        Verify.Obligations.check_black_box ~setup:s.setup ~spec:s.spec ~fuel:s.fuel ()
      in
      check_bool s.name s.expect_ok (Verify.Obligations.ok r))

let () =
  Alcotest.run "scenarios"
    [
      ( "exchanger",
        [
          light (S.exchanger_pair ());
          bounded ~bound:3 (S.exchanger_trio ());
          light (S.exchanger_abstract_pair ());
          black_box (S.exchanger_pair ());
          black_box (S.exchanger_abstract_pair ());
        ] );
      ( "elimination",
        [
          light (S.elim_array_pair ~k:1);
          light (S.elim_array_pair ~k:2);
          light (S.elim_stack_push_pop ~k:1 ());
          light (S.elim_stack_push_pop ~abstract:true ~k:1 ());
          bounded ~bound:2 (S.elim_stack_sequential_then_pop ~k:1);
          bounded ~bound:1 (S.elim_stack_two_two ~k:1 ());
          black_box (S.elim_stack_push_pop ~k:1 ());
        ] );
      ( "sync queue",
        [
          light (S.sync_queue_pair ());
          bounded ~bound:3 (S.sync_queue_two_producers ());
          black_box (S.sync_queue_pair ());
        ] );
      ( "simple objects",
        [
          light (S.counter_incrs ~n:2);
          light (S.counter_incrs ~n:3);
          light (S.register_write_read ());
          light (S.treiber_push_pop ());
          light (S.ms_queue_enq_deq ());
        ] );
      ( "faulty (must be rejected)",
        [
          light (S.faulty_counter ());
          light (S.faulty_stack ());
          light (S.faulty_exchanger ());
          black_box (S.faulty_counter ());
          black_box (S.faulty_stack ());
        ] );
      ( "registry",
        [
          t "bounded scenarios report bounded" `Quick honest_bounded_reports;
          t "find known" `Quick (fun () ->
              check_bool "found" true (S.find "exchanger-pair" <> None));
          t "find unknown" `Quick (fun () ->
              check_bool "absent" true (S.find "no-such-scenario" = None));
          t "names unique" `Quick (fun () ->
              let names = List.map (fun (s : S.t) -> s.name) (S.all ()) in
              Alcotest.(check int) "no duplicates"
                (List.length names)
                (List.length (List.sort_uniq String.compare names)));
        ] );
    ]
