open Cal
open Structures

type state = {
  g : Exchanger.offer_view option;
  trace : Ca_trace.t;
  active : Ids.Tid.t list;
}

(* Stutter equality deliberately ignores [active]: entering/leaving a method
   only changes the history, not the shared state the guarantee constrains. *)
let state_equal a b =
  (match (a.g, b.g) with
  | None, None -> true
  | Some x, Some y -> x = y
  | None, Some _ | Some _, None -> false)
  && Ca_trace.equal a.trace b.trace

(* [extension pre post] is [Some suffix] when [post.trace] extends
   [pre.trace]. *)
let extension pre post =
  let rec strip xs ys =
    match (xs, ys) with
    | [], rest -> Some rest
    | x :: xs', y :: ys' when Ca_trace.element_equal x y -> strip xs' ys'
    | _ -> None
  in
  strip pre.trace post.trace

let same_offer (a : Exchanger.offer_view) (b : Exchanger.offer_view) =
  a.v_uid = b.v_uid
  && Ids.Tid.equal a.v_owner b.v_owner
  && Value.equal a.v_data b.v_data

let actions ~oid : state Rg.action list =
  let trace_unchanged pre post = extension pre post = Some [] in
  [
    {
      Rg.name = "INIT";
      applies =
        (fun ~tid ~pre ~post ->
          trace_unchanged pre post
          && pre.g = None
          &&
          match post.g with
          | Some o -> Ids.Tid.equal o.v_owner tid && o.v_hole = `Empty
          | None -> false);
    };
    {
      Rg.name = "CLEAN";
      applies =
        (fun ~tid:_ ~pre ~post ->
          trace_unchanged pre post
          && post.g = None
          &&
          match pre.g with Some o -> o.v_hole <> `Empty | None -> false);
    };
    {
      Rg.name = "PASS";
      applies =
        (fun ~tid ~pre ~post ->
          trace_unchanged pre post
          &&
          match (pre.g, post.g) with
          | Some o, Some o' ->
              same_offer o o'
              && Ids.Tid.equal o.v_owner tid
              && o.v_hole = `Empty
              && o'.v_hole = `Failed
          | _ -> false);
    };
    {
      Rg.name = "XCHG";
      applies =
        (fun ~tid ~pre ~post ->
          match (pre.g, post.g) with
          | Some o, Some o' -> (
              same_offer o o'
              && (not (Ids.Tid.equal o.v_owner tid))
              && o.v_hole = `Empty
              &&
              match o'.v_hole with
              | `Matched (_, partner, partner_data) ->
                  Ids.Tid.equal partner tid
                  && extension pre post
                     = Some
                         [
                           Spec_exchanger.swap ~oid o.v_owner o.v_data tid partner_data;
                         ]
              | `Empty | `Failed | `Cancelled -> false)
          | _ -> false);
    };
    {
      Rg.name = "FAIL";
      applies =
        (fun ~tid ~pre ~post ->
          (match (pre.g, post.g) with
          | None, None -> true
          | Some a, Some b -> a = b
          | _ -> false)
          &&
          match extension pre post with
          | Some [ e ] -> (
              match Ca_trace.element_ops e with
              | [ op ] ->
                  Ids.Tid.equal op.tid tid
                  && Ids.Fid.equal op.fid Spec_exchanger.fid_exchange
                  && Value.equal op.ret (Value.fail op.arg)
              | _ -> false)
          | _ -> false);
    };
  ]

let invariant_j state =
  match state.g with
  | Some o when o.v_hole = `Empty ->
      List.exists (Ids.Tid.equal o.v_owner) state.active
  | _ -> true

let pp_state ppf s =
  let pp_offer ppf (o : Exchanger.offer_view) =
    Fmt.pf ppf "offer#%d{%a,%a,%s}" o.v_uid Ids.Tid.pp o.v_owner Value.pp o.v_data
      (match o.v_hole with
      | `Empty -> "null"
      | `Failed -> "fail"
      | `Cancelled -> "cancel"
      | `Matched (u, _, _) -> Fmt.str "#%d" u)
  in
  Fmt.pf ppf "g=%a, |T_E|=%d" (Fmt.option ~none:(Fmt.any "null") pp_offer) s.g
    (List.length s.trace)

let make ex ctx =
  let oid = Exchanger.oid ex in
  let snapshot () =
    {
      g = Exchanger.peek_g ex;
      trace = Ca_trace.proj_object (Conc.Ctx.trace ctx) oid;
      active = Conc.Ctx.active_threads ctx ~oid;
    }
  in
  Rg.create ~snapshot ~equal:state_equal ~actions:(actions ~oid)
    ~invariant:("J", invariant_j) ~pp_state ()

type report = { runs : int; steps_checked : int; violations : Rg.violation list }

let check_program ~threads ~fuel ?max_runs ?strategy () =
  let runs = ref 0 in
  let steps = ref 0 in
  let violations = ref [] in
  let setup ctx =
    let ex = Exchanger.create ctx in
    let checker = make ex ctx in
    let thread_progs = threads ctx ex in
    let seen = ref 0 in
    {
      Conc.Runner.threads = thread_progs;
      observe =
        Some
          (fun d ->
            incr steps;
            Rg.observer checker d;
            let vs = Rg.violations checker in
            let n = List.length vs in
            if n > !seen then begin
              let fresh = List.filteri (fun i _ -> i >= !seen) vs in
              seen := n;
              if List.length !violations < 20 then violations := !violations @ fresh
            end);
      on_label = None;
    }
  in
  let _stats = Conc.Explore.exhaustive ~setup ~fuel ?max_runs ?strategy ~f:(fun _ -> incr runs) () in
  { runs = !runs; steps_checked = !steps; violations = !violations }

let ok r = r.violations = []

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf "exchanger R/G proof: OK (%d runs, %d transitions checked)" r.runs
      r.steps_checked
  else
    Fmt.pf ppf "@[<v>exchanger R/G proof: %d VIOLATIONS (%d runs)@,%a@]"
      (List.length r.violations) r.runs
      (Fmt.list ~sep:Fmt.cut Rg.pp_violation)
      r.violations
