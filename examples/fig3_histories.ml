(* Fig. 3 of the paper, verbatim: the client program P, its observable
   histories H1/H2, the rejected sequential explanation H3 and its undesired
   prefix H3'.

     dune exec examples/fig3_histories.exe

   On top of the fixed histories, this example also *discovers* H1-shaped
   histories by exhaustively exploring program P against the real Fig. 1
   exchanger, confirming that every single one is CAL. *)

open Cal
module P = Workloads.Paper_examples
module S = Workloads.Scenarios

let spec = Spec_exchanger.spec ()

let show name h =
  Fmt.pr "--- %s ---@.%s@." name (Timeline.render h);
  Fmt.pr "CAL: %b    classic linearizability: %b@.@."
    (Cal_checker.is_cal ~spec h)
    (Lin_checker.is_linearizable ~spec h)

let () =
  Fmt.pr "Program P = t1: exchg(3) || t2: exchg(4) || t3: exchg(7)@.@.";
  show "H1: all three operations overlap" P.h1;
  show "H2: the swap pair overlaps, the failure is isolated" P.h2;
  show "H3: sequential — CANNOT happen, and CAL rightly rejects it" P.h3;
  show "H3': the bad prefix a sequential spec would be forced to accept" P.h3';
  Fmt.pr "The witnessing CA-trace for H1 and H2:@.%s@.@."
    (Timeline.render_trace P.swap_trace);

  (* Now let the real implementation produce histories of P. The complete
     space of the trio is in the tens of millions, so we explore within the
     scenario's preemption bound and check each distinct history once. *)
  let s = S.exchanger_trio () in
  let distinct = Hashtbl.create 128 in
  let sample = ref None in
  let stats =
    Conc.Explore.exhaustive ~setup:s.setup ~fuel:s.fuel ?strategy:(S.strategy s)
      ~f:(fun o ->
        Hashtbl.replace distinct (History.show o.history) o.history;
        (* keep one history where a swap actually happened, for display *)
        if !sample = None && List.exists (fun e -> Ca_trace.element_size e = 2) o.trace
        then sample := Some o)
      ()
  in
  let all_cal =
    Hashtbl.fold (fun _ h acc -> acc && Cal_checker.is_cal ~spec h) distinct true
  in
  Fmt.pr "exploration of P against Fig. 1's exchanger (<=%d preemptions):@."
    (Option.value s.bound ~default:99);
  Fmt.pr "  %d interleavings, %d distinct histories, every history CAL: %b@.@."
    stats.runs (Hashtbl.length distinct) all_cal;
  match !sample with
  | Some o ->
      Fmt.pr "one discovered history with a successful swap:@.%s@."
        (Timeline.render o.history);
      Fmt.pr "its logged auxiliary trace:@.%s@." (Timeline.render_trace o.trace)
  | None -> ()
