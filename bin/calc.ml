(* calc — the concurrency-aware-linearizability command line.

   Subcommands:
     list         enumerate the built-in scenarios
     verify       model-check a scenario (obligations / black box / R-G)
     fig3         reproduce the paper's Fig. 3 histories and verdicts
     check        check a history file against a built-in specification
     explore      interleaving-space growth vs preemption bound
     outline      check Fig. 1's proof-outline assertions
     throughput   simulated-time stack throughput sweep (HSY'04 shape)
     experiments  run the full experiment suite *)

open Cmdliner
open Cal
module S = Workloads.Scenarios

let pr = Fmt.pr

(* ------------------------------------------------------------------ list *)

let list_cmd =
  let run () =
    List.iter
      (fun (s : S.t) ->
        pr "%-32s %d threads, fuel %d, expect %s@.    %s@." s.name s.threads s.fuel
          (if s.expect_ok then "ok" else "FAIL")
          s.description)
      (S.all ())
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in verification scenarios")
    Term.(const run $ const ())

(* ---------------------------------------------------------------- verify *)

let scenario_arg =
  let parse name =
    match S.find name with
    | Some s -> Ok s
    | None -> Error (`Msg (Fmt.str "unknown scenario %S (try `calc list')" name))
  in
  let print ppf (s : S.t) = Fmt.string ppf s.name in
  Arg.conv (parse, print)

let fuel_arg =
  Arg.(value & opt (some int) None & info [ "fuel" ] ~docv:"N" ~doc:"Scheduler fuel")

let max_runs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-runs" ] ~docv:"N" ~doc:"Cap on explored interleavings")

let verify_scenario ~mode ?max_runs ~fuel (s : S.t) =
  let fuel = Option.value fuel ~default:s.fuel in
  let strategy = S.strategy s in
  let t0 = Unix.gettimeofday () in
  let report =
    match mode with
    | `Obligations ->
        Verify.Obligations.check_object ~setup:s.setup ~spec:s.spec ~view:s.view ~fuel
          ?max_runs ?strategy ()
    | `Black_box ->
        Verify.Obligations.check_black_box ~setup:s.setup ~spec:s.spec ~fuel ?max_runs
          ?strategy ()
  in
  let dt = Unix.gettimeofday () -. t0 in
  pr "%-32s %a%s  (%.2fs)@." s.name Verify.Obligations.pp_report report
    (match s.bound with
    | Some b -> Fmt.str " [<=%d preemptions]" b
    | None -> "")
    dt;
  Verify.Obligations.ok report = s.expect_ok

let verify_cmd =
  let black_box =
    Arg.(
      value & flag
      & info [ "black-box" ]
          ~doc:"Decide CAL on histories alone, ignoring the auxiliary trace")
  in
  let rg =
    Arg.(
      value & flag
      & info [ "rg" ]
          ~doc:
            "Additionally run the Fig. 4 rely/guarantee transition checker (exchanger \
             scenarios only)")
  in
  let scenarios =
    Arg.(
      value
      & pos_all scenario_arg []
      & info [] ~docv:"SCENARIO" ~doc:"Scenario names; default: all")
  in
  let run black_box rg fuel max_runs scenarios =
    let scenarios = if scenarios = [] then S.all () else scenarios in
    let mode = if black_box then `Black_box else `Obligations in
    let ok = List.for_all (verify_scenario ~mode ?max_runs ~fuel) scenarios in
    if rg then begin
      let report =
        Verify.Exchanger_proof.check_program
          ~threads:(fun _ctx ex ->
            [|
              Structures.Exchanger.exchange ex ~tid:(Ids.Tid.of_int 0) (Value.int 3);
              Structures.Exchanger.exchange ex ~tid:(Ids.Tid.of_int 1) (Value.int 4);
              Structures.Exchanger.exchange ex ~tid:(Ids.Tid.of_int 2) (Value.int 7);
            |])
          ~fuel:(Option.value fuel ~default:90)
          ?max_runs ()
      in
      pr "%a@." Verify.Exchanger_proof.pp_report report
    end;
    if ok then `Ok () else `Error (false, "some scenario did not match its expectation")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Model-check scenarios: every interleaving, both CAL obligations")
    Term.(ret (const run $ black_box $ rg $ fuel_arg $ max_runs_arg $ scenarios))

(* ------------------------------------------------------------------ fig3 *)

let fig3_cmd =
  let run () =
    let module P = Workloads.Paper_examples in
    let spec = Spec_exchanger.spec () in
    let show name h expect_cal =
      pr "--- %s ---@.%s@." name (Timeline.render h);
      let cal = Cal_checker.is_cal ~spec h in
      let lin = Lin_checker.is_linearizable ~spec h in
      pr "CAL: %b (expected %b)   classic linearizability: %b@.@." cal expect_cal lin
    in
    pr "Program P = t1: exchg(3) || t2: exchg(4) || t3: exchg(7)@.@.";
    show "H1 (concurrent run of P)" P.h1 true;
    show "H2 (CA-history shaped run)" P.h2 true;
    show "H3 (sequential explanation attempt)" P.h3 false;
    show "H3' (the undesired prefix of H3)" P.h3' false;
    pr "The CA-trace explaining H1 and H2:@.%s@."
      (Timeline.render_trace P.swap_trace);
    pr
      "@.Conclusion (paper §3): histories with successful swaps have no sequential@.\
       explanation — every CAL witness pairs the two exchanges in one CA-element.@."
  in
  Cmd.v
    (Cmd.info "fig3" ~doc:"Reproduce Fig. 3: H1/H2 accepted, H3 and its prefix rejected")
    Term.(const run $ const ())

(* ------------------------------------------------------------ throughput *)

let throughput_cmd =
  let threads =
    Arg.(value & opt (list int) [ 1; 2; 4; 8; 16 ] & info [ "threads" ] ~docv:"N,N,…")
  in
  let fuel = Arg.(value & opt int 200_000 & info [ "fuel" ] ~docv:"STEPS") in
  let k = Arg.(value & opt int 4 & info [ "k" ] ~docv:"SLOTS") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED") in
  let run threads fuel k seed =
    let seed = Int64.of_int seed in
    pr "# simulated stack throughput (completed ops per 1000 scheduler steps)@.";
    pr "# %8s %16s %16s@." "threads" "treiber-retry" (Fmt.str "elimination(k=%d)" k);
    List.iter
      (fun n ->
        let tr =
          Workloads.Metrics.stack_throughput ~impl:Workloads.Metrics.Treiber_retry
            ~threads:n ~fuel ~seed
        in
        let el =
          Workloads.Metrics.stack_throughput
            ~impl:(Workloads.Metrics.Elimination k) ~threads:n ~fuel ~seed
        in
        pr "  %8d %16.2f %16.2f@." n tr.throughput el.throughput)
      threads
  in
  Cmd.v
    (Cmd.info "throughput"
       ~doc:"Treiber vs elimination stack under rising contention (HSY'04 shape)")
    Term.(const run $ threads $ fuel $ k $ seed)

(* ----------------------------------------------------------------- check *)

let spec_by_name name =
  match name with
  | "exchanger" -> Ok (Spec_exchanger.spec ())
  | "stack" -> Ok (Spec_stack.spec ())
  | "stack-spurious" -> Ok (Spec_stack.spec ~allow_spurious_failure:true ())
  | "queue" -> Ok (Spec_queue.spec ())
  | "register" -> Ok (Spec_register.spec ())
  | "counter" -> Ok (Spec_counter.spec ())
  | "sync-queue" -> Ok (Spec_sync_queue.spec ())
  | _ ->
      Error
        (`Msg
          (Fmt.str
             "unknown spec %S (one of exchanger, stack, stack-spurious, queue,               register, counter, sync-queue)"
             name))

let check_cmd =
  let spec_arg =
    let spec_conv =
      Arg.conv
        ( (fun s -> spec_by_name s),
          (fun ppf (s : Spec.t) -> Fmt.string ppf s.Spec.name) )
    in
    Arg.(required & opt (some spec_conv) None & info [ "spec" ] ~docv:"SPEC")
  in
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"HISTORY-FILE")
  in
  let lin_flag =
    Arg.(value & flag & info [ "linearizability" ] ~doc:"Check classic linearizability instead of CAL")
  in
  let run spec file lin =
    match History_format.load_history file with
    | Error msg -> `Error (false, msg)
    | Ok h ->
        pr "%s@." (Timeline.render h);
        if lin then begin
          let verdict = Lin_checker.check ~spec h in
          pr "%a@." Lin_checker.pp_verdict verdict;
          match verdict with
          | Lin_checker.Linearizable _ -> `Ok ()
          | Lin_checker.Not_linearizable _ -> `Error (false, "not linearizable")
        end
        else begin
          let verdict = Cal_checker.check ~spec h in
          pr "%a@." Cal_checker.pp_verdict verdict;
          match verdict with
          | Cal_checker.Accepted { trace; _ } ->
              pr "@.witness trace:@.%s@." (History_format.print_trace trace);
              `Ok ()
          | Cal_checker.Rejected _ -> `Error (false, "not CAL")
        end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check a history file (see lib/cal/history_format.mli for the format)           against a built-in specification")
    Term.(ret (const run $ spec_arg $ file_arg $ lin_flag))

(* --------------------------------------------------------------- explore *)

let explore_cmd =
  let scenarios =
    Arg.(
      value
      & pos_all scenario_arg []
      & info [] ~docv:"SCENARIO" ~doc:"Scenario names; default: exchanger-pair")
  in
  let max_bound = Arg.(value & opt int 4 & info [ "max-bound" ] ~docv:"B") in
  let run scenarios max_bound =
    let scenarios = if scenarios = [] then [ S.exchanger_pair () ] else scenarios in
    List.iter
      (fun (s : S.t) ->
        pr "%s (fuel %d):@." s.name s.fuel;
        for b = 0 to max_bound do
          let t0 = Unix.gettimeofday () in
          let stats =
            Conc.Explore.exhaustive ~setup:s.setup ~fuel:s.fuel
              ~strategy:(Conc.Explore.Preemption_bounded { bound = b })
              ~max_runs:2_000_000
              ~f:(fun _ -> ())
              ()
          in
          pr "  <=%d preemptions: %8d runs%s  (%.2fs)@." b stats.runs
            (if stats.truncated then " [truncated]" else "")
            (Unix.gettimeofday () -. t0)
        done)
      scenarios
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Show how the interleaving space grows with the preemption bound")
    Term.(const run $ scenarios $ max_bound)

(* --------------------------------------------------------------- outline *)

let outline_cmd =
  let values =
    Arg.(value & opt (list int) [ 3; 4 ] & info [ "values" ] ~docv:"V,V,…")
  in
  let bound = Arg.(value & opt (some int) None & info [ "preemption-bound" ] ~docv:"B") in
  let run values bound =
    let report =
      Verify.Proof_outline.check_program
        ~values:(List.map Value.int values)
        ~fuel:(30 * List.length values)
        ?strategy:
          (Option.map
             (fun bound -> Conc.Explore.Preemption_bounded { bound })
             bound)
        ()
    in
    pr "%a@." Verify.Proof_outline.pp_report report;
    if Verify.Proof_outline.ok report then `Ok ()
    else `Error (false, "proof outline violated")
  in
  Cmd.v
    (Cmd.info "outline"
       ~doc:"Check Fig. 1's proof-outline assertions over all interleavings")
    Term.(ret (const run $ values $ bound))

(* ----------------------------------------------------------------- serve *)

(* The streaming front-end is a thin shell around the pure [Service.Core]
   state machine: read frames line by line, print each event line,
   optionally interleave logical ticks, snapshot on exit. Everything
   interesting — containment, degradation, eviction — lives in the core
   and is exercised under dune runtest; this loop only does IO. *)

let spec_builder_by_name name =
  match name with
  | "exchanger" -> Ok (fun oid -> Spec_exchanger.spec ~oid ())
  | "stack" -> Ok (fun oid -> Spec_stack.spec ~oid ())
  | "stack-spurious" ->
      Ok (fun oid -> Spec_stack.spec ~oid ~allow_spurious_failure:true ())
  | "queue" -> Ok (fun oid -> Spec_queue.spec ~oid ())
  | "register" -> Ok (fun oid -> Spec_register.spec ~oid ())
  | "counter" -> Ok (fun oid -> Spec_counter.spec ~oid ())
  | "sync-queue" -> Ok (fun oid -> Spec_sync_queue.spec ~oid ())
  | _ ->
      Error
        (`Msg
          (Fmt.str
             "unknown spec %S (one of exchanger, stack, stack-spurious, queue, \
              register, counter, sync-queue)"
             name))

let journal_has_data dir =
  Sys.file_exists dir && Sys.is_directory dir
  && Array.exists
       (fun n ->
         (String.length n >= 4 && String.sub n 0 4 = "wal-")
         || (String.length n >= 5 && String.sub n 0 5 = "snap-"))
       (try Sys.readdir dir with Sys_error _ -> [||])

let serve_cmd =
  let spec_arg =
    let builder_conv =
      Arg.conv
        ( (fun s -> spec_builder_by_name s),
          fun ppf (_ : Ids.Oid.t -> Spec.t) -> Fmt.string ppf "<spec>" )
    in
    Arg.(
      value
      & opt builder_conv (fun oid -> Spec_counter.spec ~oid ())
      & info [ "spec" ] ~docv:"SPEC"
          ~doc:"Specification instantiated per object id (default counter)")
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"STREAM-FILE" ~doc:"Frame stream; default: stdin")
  in
  let tick_every =
    Arg.(
      value & opt int 0
      & info [ "tick-every" ] ~docv:"N"
          ~doc:"Advance the logical clock after every $(docv) frames (0: never)")
  in
  let budget =
    Arg.(
      value
      & opt int Service.Config.default.Service.Config.memory_budget
      & info [ "budget" ] ~docv:"ACTIONS" ~doc:"Retained-action memory budget")
  in
  let max_sessions =
    Arg.(
      value
      & opt int Service.Config.default.Service.Config.max_sessions
      & info [ "max-sessions" ] ~docv:"N" ~doc:"Admission cap on live sessions")
  in
  let window_max =
    Arg.(
      value
      & opt int Service.Config.default.Service.Config.window_max
      & info [ "window-max" ] ~docv:"ACTIONS" ~doc:"Per-session window bound")
  in
  let idle_timeout =
    Arg.(
      value
      & opt int Service.Config.default.Service.Config.idle_timeout
      & info [ "idle-timeout" ] ~docv:"TICKS" ~doc:"Idle-session reap timeout")
  in
  let summary =
    Arg.(value & flag & info [ "summary" ] ~doc:"Print a metrics summary at end of stream")
  in
  let snapshot_to =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot" ] ~docv:"FILE" ~doc:"Write a session snapshot at end of stream")
  in
  let restore_from =
    Arg.(
      value
      & opt (some file) None
      & info [ "restore" ] ~docv:"FILE" ~doc:"Restore a session snapshot before serving")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Write-ahead journal directory: every frame is journalled \
             before it is applied, and snapshots are cut on the tick \
             cadence, so a killed daemon resumes exactly with --resume")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Recover from the --journal directory (newest snapshot plus \
             journal replay) before serving; with a STREAM-FILE the \
             already-processed prefix is skipped")
  in
  let snapshot_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "snapshot-every" ] ~docv:"TICKS"
          ~doc:"Journal snapshot cadence in logical ticks (0: only at exit)")
  in
  let segment_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "segment-bytes" ] ~docv:"BYTES"
          ~doc:"Journal segment rotation threshold")
  in
  let flush_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "flush-every" ] ~docv:"FRAMES"
          ~doc:
            "Frames per journal flush (1: write-ahead for every frame; \
             larger values batch writes and may lose that many tail \
             frames to a crash, which recovery reports)")
  in
  let fsync_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "fsync-every" ] ~docv:"FLUSHES"
          ~doc:"Flushes per fsync for power-loss durability (0: never)")
  in
  let listen =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"SOCKET"
          ~doc:
            "Serve frames from a Unix-domain socket instead of a file: \
             each connection streams lines in and gets its frames' \
             events back; SIGTERM drains gracefully")
  in
  let connect =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"SOCKET"
          ~doc:
            "Run as a client: stream STREAM-FILE (or stdin) to a daemon \
             started with --listen and print its replies")
  in
  let max_conns =
    Arg.(
      value & opt int 64
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent-connection cap; extra connections are told busy")
  in
  let crash_after =
    Arg.(
      value & opt int 0
      & info [ "crash-after-frames" ] ~docv:"N"
          ~doc:
            "Testing hook: SIGKILL the process right after journalling \
             frame $(docv) (requires --journal); the crash harness \
             sweeps this to prove kill-anywhere recovery")
  in
  let run spec_of file tick_every budget max_sessions window_max idle_timeout
      summary snapshot_to restore_from journal_dir resume snapshot_every
      segment_bytes flush_every fsync_every listen connect max_conns
      crash_after =
    let err fmt = Fmt.kstr (fun m -> `Error (false, m)) fmt in
    let durability_flag_set =
      snapshot_every <> None || segment_bytes <> None || flush_every <> None
      || fsync_every <> None
    in
    let config =
      {
        Service.Config.default with
        Service.Config.memory_budget = budget;
        max_sessions;
        window_max;
        idle_timeout;
      }
    in
    if tick_every < 0 then err "--tick-every must be >= 0 (0 disables ticks)"
    else if crash_after < 0 then err "--crash-after-frames must be >= 1"
    else
      match Service.Config.validate config with
      | Error msg -> err "%s" msg
      | Ok config -> (
          match connect with
          | Some path ->
              if listen <> None then err "--connect conflicts with --listen"
              else if
                journal_dir <> None || resume || durability_flag_set
                || crash_after > 0
              then
                err
                  "--connect is a plain client: journal/resume/crash flags \
                   live on the --listen side"
              else if restore_from <> None || snapshot_to <> None || summary
              then
                err
                  "--connect is a plain client: --restore/--snapshot/\
                   --summary live on the --listen side"
              else
                let ic, finally =
                  match file with
                  | None -> (In_channel.stdin, fun () -> ())
                  | Some f ->
                      let ic = open_in f in
                      (ic, fun () -> close_in_noerr ic)
                in
                Fun.protect ~finally (fun () ->
                    match Service.Transport.client ~path ic with
                    | Ok () -> `Ok ()
                    | Error msg -> `Error (false, msg))
          | None ->
              if listen <> None && file <> None then
                err
                  "--listen conflicts with a STREAM-FILE argument (frames \
                   arrive over the socket)"
              else if resume && journal_dir = None then
                err "--resume requires --journal"
              else if resume && restore_from <> None then
                err
                  "--restore conflicts with --resume (the journal embeds \
                   its own snapshots)"
              else if crash_after > 0 && journal_dir = None then
                err "--crash-after-frames requires --journal"
              else if durability_flag_set && journal_dir = None then
                err
                  "--snapshot-every/--segment-bytes/--flush-every/\
                   --fsync-every require --journal"
              else
                let d0 = Service.Config.default_durability in
                let durability =
                  {
                    Service.Config.segment_bytes =
                      Option.value segment_bytes
                        ~default:d0.Service.Config.segment_bytes;
                    flush_every =
                      Option.value flush_every
                        ~default:d0.Service.Config.flush_every;
                    fsync_every =
                      Option.value fsync_every
                        ~default:d0.Service.Config.fsync_every;
                    snapshot_every =
                      Option.value snapshot_every
                        ~default:d0.Service.Config.snapshot_every;
                    keep_snapshots = d0.Service.Config.keep_snapshots;
                  }
                in
                match Service.Config.validate_durability durability with
                | Error msg -> err "%s" msg
                | Ok durability -> (
                    let spec_for oid = Some (spec_of oid) in
                    let cache =
                      Option.map
                        (fun capacity -> Verdict_cache.create ~capacity ())
                        (Tuning.verdict_cache_capacity ())
                    in
                    let fresh () =
                      Service.Core.create ?cache ~config ~spec_for ()
                    in
                    let setup =
                      if resume then
                        let dir = Option.get journal_dir in
                        match Service.Journal.recover ~dir with
                        | Error msg -> Error msg
                        | Ok r ->
                            let base =
                              match r.Service.Journal.core_snapshot with
                              | None -> fresh ()
                              | Some s ->
                                  Service.Core.restore ?cache ~config
                                    ~spec_for s
                            in
                            Result.map
                              (fun core ->
                                let core =
                                  List.fold_left
                                    (fun core record ->
                                      fst
                                        (Service.Core.feed core
                                           (Service.Journal.input_of_record
                                              record)))
                                    core r.Service.Journal.records
                                in
                                Fmt.epr "%a@." Service.Journal.pp_recovery r;
                                (core, r.Service.Journal.last_seq + 1))
                              base
                      else
                        let base =
                          match restore_from with
                          | None -> fresh ()
                          | Some f -> (
                              match
                                try
                                  Ok
                                    (In_channel.with_open_text f
                                       In_channel.input_all)
                                with Sys_error e -> Error e
                              with
                              | Error e -> Error e
                              | Ok text ->
                                  Service.Core.restore ?cache ~config
                                    ~spec_for text)
                        in
                        Result.map (fun core -> (core, 1)) base
                    in
                    match setup with
                    | Error msg -> err "%s" msg
                    | Ok (core, next_seq) -> (
                        let journal =
                          match journal_dir with
                          | None -> Ok None
                          | Some dir ->
                              if (not resume) && journal_has_data dir then
                                Error
                                  (Fmt.str
                                     "%s already holds a journal (use \
                                      --resume or a fresh directory)"
                                     dir)
                              else
                                Result.map Option.some
                                  (Service.Journal.create ~dir ~durability
                                     ~next_seq ())
                        in
                        match journal with
                        | Error msg -> err "%s" msg
                        | Ok journal ->
                            let lines_seen =
                              if resume then
                                (Service.Core.metrics core)
                                  .Service.Core.frames
                              else 0
                            in
                            let snapshot_cadence =
                              match journal with
                              | None -> 0
                              | Some _ ->
                                  durability.Service.Config.snapshot_every
                            in
                            let pump =
                              Service.Transport.create_pump ~core ?journal
                                ~tick_every ~snapshot_every:snapshot_cadence
                                ~kill_after:crash_after ~lines_seen ()
                            in
                            let emit e =
                              print_endline (Service.Proto.print_event e)
                            in
                            if resume then
                              List.iter emit
                                (Service.Transport.catch_up_ticks pump);
                            let epilogue () =
                              let core = Service.Transport.pump_core pump in
                              if summary then
                                pr "summary %a level=%s load=%d sessions=%d@."
                                  Service.Core.pp_metrics
                                  (Service.Core.metrics core)
                                  (Service.Proto.level_to_string
                                     (Service.Core.level core))
                                  (Service.Core.load core)
                                  (Service.Core.session_count core);
                              Option.iter
                                (fun f ->
                                  Out_channel.with_open_text f (fun oc ->
                                      Out_channel.output_string oc
                                        (Service.Core.snapshot core)))
                                snapshot_to;
                              match Service.Transport.finalize pump with
                              | Ok _ -> `Ok ()
                              | Error msg -> `Error (false, msg)
                            in
                            (match listen with
                            | Some path -> (
                                match
                                  Service.Transport.serve_socket ~pump ~path
                                    ~max_conns ()
                                with
                                | Error msg -> `Error (false, msg)
                                | Ok () -> epilogue ())
                            | None ->
                                let ic, finally =
                                  match file with
                                  | None -> (In_channel.stdin, fun () -> ())
                                  | Some f ->
                                      let ic = open_in f in
                                      (ic, fun () -> close_in_noerr ic)
                                in
                                Fun.protect ~finally (fun () ->
                                    let rec skip n =
                                      if n > 0 then
                                        match In_channel.input_line ic with
                                        | None -> ()
                                        | Some _ -> skip (n - 1)
                                    in
                                    skip lines_seen;
                                    let rec loop () =
                                      match In_channel.input_line ic with
                                      | None -> ()
                                      | Some line ->
                                          List.iter emit
                                            (Service.Transport.pump_line pump
                                               line);
                                          loop ()
                                    in
                                    loop ();
                                    epilogue ())))))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the streaming CAL monitor over a frame stream (one \
          history-format action per line, from a file, stdin or a Unix \
          socket); prints one event per line and can journal every frame \
          for crash-safe resume")
    Term.(
      ret
        (const run $ spec_arg $ file_arg $ tick_every $ budget $ max_sessions
       $ window_max $ idle_timeout $ summary $ snapshot_to $ restore_from
       $ journal_dir $ resume $ snapshot_every $ segment_bytes $ flush_every
       $ fsync_every $ listen $ connect $ max_conns $ crash_after))

(* ----------------------------------------------------------- experiments *)

let experiments_cmd =
  let run () = Experiments.run_all Format.std_formatter in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Run the full experiment suite (E1-E9 + negative controls) and print the report")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ main *)

let () =
  let doc = "concurrency-aware linearizability: checkers, objects, experiments" in
  let info = Cmd.info "calc" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info
       [
         list_cmd; verify_cmd; fig3_cmd; check_cmd; explore_cmd; outline_cmd;
         throughput_cmd; serve_cmd; experiments_cmd;
       ]))
