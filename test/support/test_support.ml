(* Shared helpers for the test suites: terse constructors, alcotest
   testables, and common scenario runners. *)

open Cal

let tid = Ids.Tid.of_int
let oid = Ids.Oid.v
let fid = Ids.Fid.v
let e_oid = oid "E"
let s_oid = oid "S"

(* action constructors *)
let inv ?(oid = e_oid) ?(fid = Spec_exchanger.fid_exchange) t arg =
  Action.inv ~tid:(tid t) ~oid ~fid arg

let res ?(oid = e_oid) ?(fid = Spec_exchanger.fid_exchange) t ret =
  Action.res ~tid:(tid t) ~oid ~fid ret

let vi = Value.int
let ok_int n = Value.ok (Value.int n)
let fail_int n = Value.fail (Value.int n)

(* operation constructors *)
let op ?(oid = e_oid) ?(fid = Spec_exchanger.fid_exchange) t ~arg ~ret =
  Op.v ~tid:(tid t) ~oid ~fid ~arg ~ret

(* testables *)
let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal
let history : History.t Alcotest.testable = Alcotest.testable History.pp History.equal

let trace : Ca_trace.t Alcotest.testable =
  Alcotest.testable Ca_trace.pp Ca_trace.equal

let element : Ca_trace.element Alcotest.testable =
  Alcotest.testable Ca_trace.pp_element Ca_trace.element_equal

(* checker shorthands *)
let is_cal spec h = Cal_checker.is_cal ~spec h
let is_lin spec h = Lin_checker.is_linearizable ~spec h

(* exhaustive verification of a scenario under its preemption bound
   ([bound] overrides the scenario's own) *)
let scenario_report ?max_runs ?bound (s : Workloads.Scenarios.t) =
  let s = if bound = None then s else { s with bound } in
  Verify.Obligations.check_object ~setup:s.setup ~spec:s.spec ~view:s.view
    ~fuel:s.fuel ?max_runs ?strategy:(Workloads.Scenarios.strategy s) ()

(* ... returning whether it matched its expectation *)
let scenario_ok ?max_runs ?bound (s : Workloads.Scenarios.t) =
  Verify.Obligations.ok (scenario_report ?max_runs ?bound s) = s.expect_ok

let check_bool name expected actual = Alcotest.(check bool) name expected actual

(* qcheck -> alcotest adapter *)
let qtest ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest ~long:false (QCheck.Test.make ~count ~name arb law)
