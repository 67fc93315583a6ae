(* Tests for the executable Fig. 1 proof outline. *)

open Cal
open Structures
open Test_support

let t name f = Alcotest.test_case name `Quick f

let test_pair_holds () =
  let r = Verify.Proof_outline.check_program ~values:[ vi 3; vi 4 ] ~fuel:60 () in
  check_bool "no violations" true (Verify.Proof_outline.ok r);
  check_bool "assertions evaluated" true (r.Verify.Proof_outline.probes_checked > 1000)

let test_trio_holds_bounded () =
  let r =
    Verify.Proof_outline.check_program
      ~values:[ vi 3; vi 4; vi 7 ]
      ~fuel:90 ~strategy:(Conc.Explore.Preemption_bounded { bound = 2 }) ()
  in
  check_bool "no violations" true (Verify.Proof_outline.ok r)

(* direct negative tests of the assertion evaluator: fabricate probe points
   with inconsistent state *)
let probe ?(name = "init-installed") ?n ?cur ?s ?g () : Exchanger.probe_point =
  { pp_name = name; pp_tid = tid 0; pp_arg = vi 3; pp_n = n; pp_cur = cur; pp_s = s; pp_g = g }

let offer ?(uid = 0) ?(owner = 0) ?(data = 3) hole : Exchanger.offer_view =
  { v_uid = uid; v_owner = tid owner; v_data = vi data; v_hole = hole }

let fresh_ctx () = Conc.Ctx.create ()

let check = Verify.Proof_outline.check_probe ~oid:e_oid

let test_init_installed_assertion () =
  let ctx = fresh_ctx () in
  (* consistent: own unsatisfied offer installed, trace unchanged, g = n *)
  let n = offer `Empty in
  (match check ~ctx ~t0:[] (probe ~n ~g:n ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* inconsistent: offer unsatisfied but g holds a different offer *)
  (match check ~ctx ~t0:[] (probe ~n ~g:(offer ~uid:9 ~owner:1 `Empty) ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted unsatisfied offer with g <> n");
  (* matched offer but no swap in the trace: B must fail *)
  let matched = offer (`Matched (1, tid 1, vi 4)) in
  match check ~ctx ~t0:[] (probe ~n:matched ~g:matched ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted matched offer without logged swap"

let test_b_assertion_with_logged_swap () =
  let ctx = fresh_ctx () in
  (* log the swap the way the XCHG action would for waiter t0 / active t1 *)
  Conc.Ctx.log_element ctx (Spec_exchanger.swap ~oid:e_oid (tid 0) (vi 3) (tid 1) (vi 4));
  let matched = offer (`Matched (1, tid 1, vi 4)) in
  match check ~ctx ~t0:[] (probe ~name:"pass-swapped" ~n:matched ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_xchg_assertion () =
  let ctx = fresh_ctx () in
  (* failed CAS: trace must be unchanged, cur.hole non-empty *)
  let cur = offer ~owner:1 `Failed in
  (match check ~ctx ~t0:[] (probe ~name:"xchg" ~cur ~s:false ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* failed CAS with a hole still empty is impossible *)
  (match check ~ctx ~t0:[] (probe ~name:"xchg" ~cur:(offer ~owner:1 `Empty) ~s:false ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted empty hole after xchg");
  (* successful CAS without the logged swap: B fails *)
  match
    check ~ctx ~t0:[]
      (probe ~name:"xchg" ~cur:(offer ~owner:1 ~data:4 (`Matched (2, tid 0, vi 3))) ~s:true ())
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted successful xchg without swap in trace"

let test_clean_assertion () =
  let ctx = fresh_ctx () in
  let cur = offer ~owner:1 `Failed in
  (match check ~ctx ~t0:[] (probe ~name:"clean" ~cur ()) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (* cur still in g after CLEAN is a violation *)
  match check ~ctx ~t0:[] (probe ~name:"clean" ~cur ~g:cur ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted cur still in g after CLEAN"

let test_rogue_interference_detected () =
  (* a rogue element mentioning the probing thread invalidates TE|tid = T *)
  let ctx = fresh_ctx () in
  Conc.Ctx.log_element ctx (Spec_exchanger.failure ~oid:e_oid (tid 0) (vi 99));
  let n = offer `Empty in
  match check ~ctx ~t0:[] (probe ~n ~g:n ()) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted changed trace at init-installed"

let () =
  Alcotest.run "proof_outline"
    [
      ( "programs",
        [ t "pair holds" test_pair_holds; t "trio holds (bounded)" test_trio_holds_bounded ] );
      ( "assertions",
        [
          t "init-installed" test_init_installed_assertion;
          t "B with logged swap" test_b_assertion_with_logged_swap;
          t "xchg" test_xchg_assertion;
          t "clean" test_clean_assertion;
          t "rogue interference" test_rogue_interference_detected;
        ] );
    ]
