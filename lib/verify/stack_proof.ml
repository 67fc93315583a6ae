open Cal
open Structures

type state = { contents : Value.t list; trace : Ca_trace.t }

let vlist_eq a b =
  List.length a = List.length b && List.for_all2 Value.equal a b

let state_equal a b = vlist_eq a.contents b.contents && Ca_trace.equal a.trace b.trace

let extension pre post =
  let rec strip xs ys =
    match (xs, ys) with
    | [], rest -> Some rest
    | x :: xs', y :: ys' when Ca_trace.element_equal x y -> strip xs' ys'
    | _ -> None
  in
  strip pre.trace post.trace

(* Classify a one-element trace extension as a stack operation of [t]. *)
let extended_with ~oid pre post classify =
  match extension pre post with
  | Some [ e ] -> (
      match Ca_trace.element_ops e with
      | [ op ] when Ids.Oid.equal op.Op.oid oid -> classify op
      | _ -> false)
  | _ -> false

let actions ~oid : state Rg.action list =
  [
    {
      Rg.name = "PUSH_OK";
      applies =
        (fun ~tid ~pre ~post ->
          extended_with ~oid pre post (fun op ->
              Ids.Tid.equal op.Op.tid tid
              && Ids.Fid.equal op.fid Spec_stack.fid_push
              && Value.equal op.ret (Value.bool true)
              && vlist_eq post.contents (op.arg :: pre.contents)));
    };
    {
      Rg.name = "PUSH_FAIL";
      applies =
        (fun ~tid ~pre ~post ->
          vlist_eq post.contents pre.contents
          && extended_with ~oid pre post (fun op ->
                 Ids.Tid.equal op.Op.tid tid
                 && Ids.Fid.equal op.fid Spec_stack.fid_push
                 && Value.equal op.ret (Value.bool false)));
    };
    {
      Rg.name = "POP_OK";
      applies =
        (fun ~tid ~pre ~post ->
          extended_with ~oid pre post (fun op ->
              Ids.Tid.equal op.Op.tid tid
              && Ids.Fid.equal op.fid Spec_stack.fid_pop
              &&
              match pre.contents with
              | top :: rest ->
                  Value.equal op.ret (Value.ok top) && vlist_eq post.contents rest
              | [] -> false));
    };
    {
      Rg.name = "POP_NO";
      applies =
        (fun ~tid ~pre ~post ->
          vlist_eq post.contents pre.contents
          && extended_with ~oid pre post (fun op ->
                 Ids.Tid.equal op.Op.tid tid
                 && Ids.Fid.equal op.fid Spec_stack.fid_pop
                 && Value.equal op.ret (Value.fail (Value.int 0))));
    };
  ]

let replay trace =
  let step stack e =
    match stack with
    | None -> None
    | Some stack -> (
        match Ca_trace.element_ops e with
        | [ (op : Op.t) ] ->
            if Ids.Fid.equal op.fid Spec_stack.fid_push then
              match op.ret with
              | Value.Bool true -> Some (op.arg :: stack)
              | Value.Bool false -> Some stack
              | _ -> None
            else if Ids.Fid.equal op.fid Spec_stack.fid_pop then
              match (op.ret, stack) with
              | Value.Pair (Value.Bool true, v), top :: rest
                when Value.equal v top ->
                  Some rest
              | Value.Pair (Value.Bool false, _), _ -> Some stack
              | _ -> None
            else None
        | _ -> None)
  in
  List.fold_left step (Some []) trace

(* §4: the abstract value is computed by replaying the logged actions. *)
let invariant_replay state =
  match replay state.trace with
  | Some replayed -> vlist_eq replayed state.contents
  | None -> false

let pp_state ppf s =
  Fmt.pf ppf "stack=[%a], |T_S|=%d"
    (Fmt.list ~sep:(Fmt.any "; ") Value.pp)
    s.contents (List.length s.trace)

let make stack ctx =
  let oid = Treiber_stack.oid stack in
  let snapshot () =
    {
      contents = Treiber_stack.contents stack;
      trace = Ca_trace.proj_object (Conc.Ctx.trace ctx) oid;
    }
  in
  Rg.create ~snapshot ~equal:state_equal ~actions:(actions ~oid)
    ~invariant:("replay(T_S) = contents", invariant_replay)
    ~pp_state ()

type report = { runs : int; steps_checked : int; violations : Rg.violation list }

let check_program ~threads ~fuel ?max_runs ?strategy () =
  let runs = ref 0 in
  let steps = ref 0 in
  let violations = ref [] in
  let setup ctx =
    let stack = Treiber_stack.create ctx in
    let checker = make stack ctx in
    let seen = ref 0 in
    {
      Conc.Runner.threads = threads ctx stack;
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
  let _stats =
    Conc.Explore.exhaustive ~setup ~fuel ?max_runs ?strategy
      ~f:(fun _ -> incr runs)
      ()
  in
  { runs = !runs; steps_checked = !steps; violations = !violations }

let ok r = r.violations = []

let pp_report ppf r =
  if ok r then
    Fmt.pf ppf "stack R/G proof: OK (%d runs, %d transitions checked)" r.runs
      r.steps_checked
  else
    Fmt.pf ppf "@[<v>stack R/G proof: %d VIOLATIONS (%d runs)@,%a@]"
      (List.length r.violations) r.runs
      (Fmt.list ~sep:Fmt.cut Rg.pp_violation)
      r.violations
