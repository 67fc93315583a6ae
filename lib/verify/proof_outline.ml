open Cal
open Structures

type violation = { point : string; thread : int; message : string }
type report = { runs : int; probes_checked : int; violations : violation list }

(* TE|tid: the exchanger's trace projected to one thread (the thread sees
   every element mentioning it, including its partner's half of a swap). *)
let te_tid ctx ~oid ~tid =
  Ca_trace.proj_thread (Ca_trace.proj_object (Conc.Ctx.trace ctx) oid) tid

let trace_is t0 suffix te =
  Ca_trace.equal te (t0 @ suffix)

(* B: the swap between [waiter] and [active] has been logged and nothing
   else happened to this thread since T0. *)
let assertion_b ~oid ~t0 ~te ~waiter:(wt, wv) ~active:(at, av) =
  (not (Ids.Tid.equal wt at))
  && trace_is t0 [ Spec_exchanger.swap ~oid wt wv at av ] te

let check_probe ~oid ~ctx ~t0 (p : Exchanger.probe_point) =
  let tid = p.pp_tid in
  let v = p.pp_arg in
  let te = te_tid ctx ~oid ~tid in
  let unchanged = trace_is t0 [] te in
  let g_is_offer (o : Exchanger.offer_view) =
    match p.pp_g with Some g -> g.v_uid = o.v_uid | None -> false
  in
  match p.pp_name with
  | "init-installed" -> (
      (* Fig. 1 line 16: (TE|tid = T ∧ n.hole = null ∧ g = n) ∨ B(n.hole) *)
      match p.pp_n with
      | Some n -> (
          match n.v_hole with
          | `Empty ->
              if unchanged && g_is_offer n then Ok ()
              else Error "unsatisfied own offer, but trace changed or g <> n"
          | `Matched (_, partner, pdata) ->
              if assertion_b ~oid ~t0 ~te ~waiter:(tid, v) ~active:(partner, pdata)
              then Ok ()
              else Error "matched offer without the corresponding swap in TE|tid"
          | `Failed -> Error "own offer failed before the PASS cas"
          | `Cancelled -> Error "own offer cancelled in the untimed protocol")
      | None -> Error "no own offer at init-installed")
  | "pass-no-partner" -> (
      (* the wait failed: hole = fail, operation still unlogged *)
      match p.pp_n with
      | Some { v_hole = `Failed; _ } ->
          if unchanged then Ok ()
          else Error "trace changed although the exchange failed"
      | _ -> Error "hole not failed at pass-no-partner")
  | "pass-swapped" -> (
      (* Fig. 1 line 21-22: B(n.hole) *)
      match p.pp_n with
      | Some { v_hole = `Matched (_, partner, pdata); _ } ->
          if assertion_b ~oid ~t0 ~te ~waiter:(tid, v) ~active:(partner, pdata) then
            Ok ()
          else Error "B(n.hole) fails: swap not logged for this thread"
      | _ -> Error "hole not matched at pass-swapped")
  | "read-cur" -> (
      (* Fig. 1 line 26: A ∧ (g = cur ∨ cur.hole ≠ null) *)
      match p.pp_cur with
      | Some cur ->
          let a =
            unchanged
            &&
            match p.pp_g with
            | None -> true
            | Some g -> g.v_hole <> `Empty || not (Ids.Tid.equal g.v_owner tid)
          in
          let stable_read = g_is_offer cur || cur.v_hole <> `Empty in
          if a && stable_read then Ok ()
          else Error "A ∧ (g = cur ∨ cur.hole ≠ null) fails"
      | None -> Error "no cur at read-cur")
  | "xchg" -> (
      (* Fig. 1 line 30: (¬s ∧ A ∨ s ∧ B(cur)) ∧ cur.hole ≠ null *)
      match (p.pp_cur, p.pp_s) with
      | Some cur, Some s ->
          if cur.v_hole = `Empty then Error "cur.hole still null after the XCHG cas"
          else if s then
            if
              assertion_b ~oid ~t0 ~te ~waiter:(cur.v_owner, cur.v_data)
                ~active:(tid, v)
            then Ok ()
            else Error "s ∧ ¬B(cur): successful XCHG without the logged swap"
          else if unchanged then Ok ()
          else Error "¬s but the trace changed for this thread"
      | _ -> Error "missing cur or s at xchg")
  | "clean" -> (
      (* after line 31: cur is satisfied and no longer in g *)
      match p.pp_cur with
      | Some cur ->
          if cur.v_hole = `Empty then Error "cur unsatisfied after CLEAN"
          else if g_is_offer cur then Error "cur still in g after CLEAN"
          else Ok ()
      | None -> Error "no cur at clean")
  | other -> Error (Fmt.str "unknown probe point %S" other)

let check_program ~values ~fuel ?max_runs ?strategy () =
  let runs = ref 0 in
  let probes = ref 0 in
  let violations = ref [] in
  let record point thread message =
    if List.length !violations < 20 then
      violations := !violations @ [ { point; thread; message } ]
  in
  let setup ctx =
    let ex = Exchanger.create ctx in
    let oid = Exchanger.oid ex in
    let t0s = Hashtbl.create 8 in
    let threads =
      List.mapi
        (fun i v ->
          let tid = Ids.Tid.of_int i in
          let open Conc.Prog.Infix in
          (* capture T0 = TE|tid just before the invocation (the Hoare
             precondition's logical variable T) *)
          let* () =
            Conc.Prog.atomic ~label:"capture-T0" (fun () ->
                Hashtbl.replace t0s i (te_tid ctx ~oid ~tid))
          in
          Exchanger.exchange_annotated ex ~tid
            ~probe:(fun p ->
              incr probes;
              let t0 = Option.value (Hashtbl.find_opt t0s i) ~default:[] in
              match check_probe ~oid ~ctx ~t0 p with
              | Ok () -> ()
              | Error message -> record p.Exchanger.pp_name i message)
            v)
        values
      |> Array.of_list
    in
    { Conc.Runner.threads; observe = None; on_label = None }
  in
  let _stats =
    Conc.Explore.exhaustive ~setup ~fuel ?max_runs ?strategy
      ~f:(fun _ -> incr runs)
      ()
  in
  { runs = !runs; probes_checked = !probes; violations = !violations }

let ok r = r.violations = []

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf "proof outline: OK (%d runs, %d assertions checked)" r.runs
      r.probes_checked
  else
    Fmt.pf ppf "@[<v>proof outline: %d VIOLATIONS (%d runs)@,%a@]"
      (List.length r.violations) r.runs
      (Fmt.list ~sep:Fmt.cut (fun ppf v ->
           Fmt.pf ppf "- at %s (thread %d): %s" v.point v.thread v.message))
      r.violations
