(* The repository benchmark: three single-process workloads driven through
   the public entry points a user calls, measured end to end (untraced)
   or split across the library layers (traced). See README.md.

   perfbench --workload W --seed N --seconds S --trace 0|1
             [--commit SHA] [--work-dir DIR]

   The last line of standard output is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the line before it
   carries the run metadata. Exit status 0 when every correctness gate
   held, 1 when one failed, 2 on bad arguments or environment. *)

open Cal
module S = Workloads.Scenarios
module O = Verify.Obligations
module E = Conc.Explore
module Core = Service.Core
module Journal = Service.Journal

let now_ns = Span.now_ns
let secs ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------ results -- *)

let gate_failures = ref []

let gate ok fmt =
  Printf.ksprintf
    (fun msg -> if not ok then gate_failures := msg :: !gate_failures)
    fmt

type out = { mutable attempted : int; mutable failed : int }

let out = { attempted = 0; failed = 0 }
let metrics : (string * float * string) list ref = ref []
let metric name unit v = metrics := (name, v, unit) :: !metrics

let sorted_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* nearest-rank percentile of a sorted array *)
let pct sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) rank))

let median l = pct (sorted_of l) 0.5

(* The run's clock: set-up sampling and passes share the [--seconds]
   budget. *)
let run_start = now_ns ()

(* Iterate [f] (which returns the wall seconds it measured) until the
   next iteration would overrun [seconds] since the run started; at least
   [min_iters] times. *)
let run_for ~seconds ?(min_iters = 3) f =
  let start = run_start in
  let durs = ref [] in
  let rec go k =
    let d = f k in
    Printf.eprintf "perfbench: pass %d: %.4f s\n%!" k d;
    durs := d :: !durs;
    let elapsed = secs (now_ns () - start) in
    if k + 1 < min_iters || elapsed +. median !durs <= seconds then go (k + 1)
  in
  go 0

(* Median wall seconds of one call of [f], over repeated calls until
   [budget] seconds are spent (at least [min_reps]). For short steps whose
   single timing is below the clock's noise. The heap is collected first,
   so the collector's debt from the preceding pass is not charged to the
   step. *)
let median_small ?(budget = 0.05) ?(min_reps = 5) f =
  Gc.full_major ();
  let samples = ref [] in
  let spent = ref 0 in
  let reps = ref 0 in
  while !reps < min_reps || secs !spent < budget do
    let t0 = now_ns () in
    f ();
    let d = now_ns () - t0 in
    samples := secs d :: !samples;
    spent := !spent + d;
    incr reps
  done;
  median !samples

(* Set-up time is sampled in a short window after every pass, and
   reported as the median per-call time over all windows of the run. One
   set-up takes microseconds, while a shared host's speed (and its file
   system's latency) shifts in phases lasting seconds; windows spread over
   the whole run cover many of them. *)
let setup_window = 0.1

(* One window of [per_batch]-call batches of [f] on a collected heap;
   per-call seconds of each batch. *)
let setup_time ~per_batch f =
  Gc.full_major ();
  let samples = ref [] in
  let t_end = now_ns () + int_of_float (setup_window *. 1e9) in
  while now_ns () < t_end do
    let t0 = now_ns () in
    for _ = 1 to per_batch do
      f ()
    done;
    samples := (secs (now_ns () - t0) /. float_of_int per_batch) :: !samples
  done;
  Gc.full_major ();
  !samples

(* Peak major heap, read once the first pass has run: the passes after it
   repeat the same work, and how many run depends on the clock. Set-up
   sampling, whose time-bounded loops would move the peak, starts only
   then. *)
let heap_peak = ref nan

let after_pass k setup_samples setup =
  if k = 0 then
    heap_peak :=
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.;
  setup_samples := setup () @ !setup_samples

(* Allocation of one call of [f]: (minor Mwords, major collections). *)
let gc_of f =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  ( v,
    (b.Gc.minor_words -. a.Gc.minor_words) /. 1e6,
    b.Gc.major_collections - a.Gc.major_collections )

let end_to_end ~setup_s ~check_s ~frames_per_s ~p50_us ~p99_us ~recover_s =
  metric "setup_s" "s" setup_s;
  metric "check_s" "s" check_s;
  metric "frames_per_s" "1/s" frames_per_s;
  metric "verdict_p50_us" "us" p50_us;
  metric "verdict_p99_us" "us" p99_us;
  metric "recover_s" "s" recover_s;
  metric "heap_peak_mb" "MB" !heap_peak;
  metric "verified_frac" "ratio"
    (if out.attempted = 0 then 0.
     else float_of_int (out.attempted - out.failed) /. float_of_int out.attempted)

(* -------------------------------------------------------- span kinds -- *)

let kinds =
  [|
    "conc.explore";
    "verify.obligations.outcome";
    "cal.history.canonical_key";
    "cal.verdict_cache.lookup";
    "cal.cal_checker";
    "verify.obligations.check_outcome";
    "service.transport.frame";
    "service.journal.append";
    "service.core.feed";
    "service.core.snapshot";
    "service.journal.snapshot";
    "cal.history_format.parse";
    "service.journal.recover";
    "service.core.restore";
    "service.replay";
  |]

let k = Span.kind kinds
let k_explore = k "conc.explore"
let k_outcome = k "verify.obligations.outcome"
let k_key = k "cal.history.canonical_key"
let k_lookup = k "cal.verdict_cache.lookup"
let k_checker = k "cal.cal_checker"
let k_check_outcome = k "verify.obligations.check_outcome"
let k_frame = k "service.transport.frame"
let k_append = k "service.journal.append"
let k_feed = k "service.core.feed"
let k_core_snapshot = k "service.core.snapshot"
let k_journal_snapshot = k "service.journal.snapshot"
let k_parse = k "cal.history_format.parse"
let k_recover = k "service.journal.recover"
let k_restore = k "service.core.restore"
let k_replay = k "service.replay"

(* Every per-layer metric, in print order; a workload that does not
   exercise a layer reports it as 0. *)
let per_layer =
  [
    ("conc.explore.runs", "count");
    ("conc.explore.nodes", "count");
    ("conc.explore.replayed_steps", "count");
    ("conc.explore.self_s", "s");
    ("conc.explore.us_per_run", "us");
    ("conc.explore.bound_hits", "count");
    ("conc.dpor.races_found", "count");
    ("conc.dpor.backtrack_points", "count");
    ("conc.dpor.sleep_pruned", "count");
    ("cal.history.canonical_key.calls", "count");
    ("cal.history.canonical_key.self_s", "s");
    ("cal.history.canonical_key.bytes", "bytes");
    ("cal.verdict_cache.hits", "count");
    ("cal.verdict_cache.misses", "count");
    ("cal.verdict_cache.hit_ratio", "ratio");
    ("cal.verdict_cache.lookup_self_s", "s");
    ("cal.verdict_cache.size", "count");
    ("cal.cal_checker.calls", "count");
    ("cal.cal_checker.self_s", "s");
    ("cal.cal_checker.states_explored", "count");
    ("cal.cal_checker.memo_hits", "count");
    ("cal.cal_checker.drop_sets_tried", "count");
    ("cal.cal_checker.rejected", "count");
    ("verify.obligations.check_outcome.calls", "count");
    ("verify.obligations.check_outcome.self_s", "s");
    ("verify.obligations.check_outcome.failed", "count");
    ("cal.history_format.parse.self_s", "s");
    ("service.journal.append.calls", "count");
    ("service.journal.append.self_s", "s");
    ("service.journal.bytes", "bytes");
    ("service.journal.segments", "count");
    ("service.journal.snapshot.calls", "count");
    ("service.journal.snapshot.self_s", "s");
    ("service.core.snapshot.bytes", "bytes");
    ("service.core.snapshot.self_s", "s");
    ("service.core.feed.calls", "count");
    ("service.core.feed.self_s", "s");
    ("service.core.feed.seq_p99_us", "us");
    ("service.core.feed.conc_p99_us", "us");
    ("service.core.commits", "count");
    ("service.core.violations", "count");
    ("service.core.desyncs", "count");
    ("service.core.level_changes", "count");
    ("service.core.rejected_frames", "count");
    ("service.journal.recover.self_s", "s");
    ("service.core.restore.self_s", "s");
    ("service.replay.frames", "count");
    ("service.replay.self_s", "s");
    ("gc.minor_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "ratio");
  ]

(* Traced runs: the per-pass values of every measured per-layer metric;
   counts must repeat exactly across passes, times are reported as the
   median over passes. *)
let layer_samples : (string, float list) Hashtbl.t = Hashtbl.create 64

let sample name v =
  if not (List.mem_assoc name per_layer) then
    invalid_arg ("unknown per-layer metric " ^ name);
  Hashtbl.replace layer_samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt layer_samples name))

let sample_int name v = sample name (float_of_int v)

let emit_per_layer () =
  List.iter
    (fun (name, unit) ->
      let v =
        match Hashtbl.find_opt layer_samples name with
        | None -> 0.
        | Some vs ->
            (* allocation counts follow the collector, not the work *)
            if (unit = "count" || unit = "bytes")
               && not (String.starts_with ~prefix:"gc." name)
            then begin
              let v = List.hd vs in
              gate
                (List.for_all (fun x -> x = v) vs)
                "traced count %s differs between passes" name;
              v
            end
            else median vs
      in
      metric name unit v)
    per_layer

let sample_self sp names =
  let self = Span.self_s sp in
  List.iter (fun (metric, kind) -> sample metric self.(kind)) names

let overhead ~untraced ~traced =
  sample "trace.overhead_frac" ((median traced /. median untraced) -. 1.)

(* ---------------------------------------------------------- bb-cached -- *)

(* The B14 headline cell: black-box checking with the canonical-history
   verdict cache on the rejection-heavy faulty elimination stack. *)
let bb_fuel = 16
let bb_strategy = E.Preemption_bounded { bound = 3 }
let bb_runs = 399_500
let bb_hits = 396_328
let bb_scenario () = S.faulty_elim_stack ~pushers:1 ~poppers:4 ()

let bb_check (s : S.t) =
  O.check_black_box ~domains:1 ~strategy:bb_strategy ~cache:true
    ~setup:s.setup ~spec:s.spec ~fuel:bb_fuel ()

let exploration (r : O.report) =
  match r.exploration with Some e -> e | None -> E.empty_stats

let decide_black_box ~spec (o : Conc.Runner.outcome) =
  match Cal_checker.check ~spec o.history with
  | Cal_checker.Accepted _ -> Ok ()
  | Cal_checker.Rejected { reason; _ } -> Error reason

(* Reproduce every reported problem from its witness alone: replay the
   schedule under its fault plan and decide again; the decider must fail
   with the same message. *)
let reproduce ~setup ~decide (r : O.report) =
  List.for_all
    (fun (p : O.problem) ->
      let o, _ = Conc.Runner.replay ~plan:p.plan ~setup p.schedule in
      match decide o with Error m -> m = p.message | Ok () -> false)
    r.problems

(* What a traced re-composition must reproduce of an untraced report. *)
type summary = {
  runs : int;
  complete : int;
  problems : (Conc.Runner.schedule * Conc.Fault.plan * string) list;
  hits : int;
  nodes : int;
  replayed : int;
  bound_hits : int;
  races : int;
  backtracks : int;
  sleep : int;
}

let summary_of (r : O.report) =
  let e = exploration r in
  {
    runs = r.runs;
    complete = r.complete_runs;
    problems = List.map (fun (p : O.problem) -> (p.schedule, p.plan, p.message)) r.problems;
    hits = e.cache_hits;
    nodes = e.nodes;
    replayed = e.replayed_steps;
    bound_hits = e.bound_hits;
    races = e.races_found;
    backtracks = e.backtrack_points;
    sleep = e.sleep_pruned;
  }

(* Per-outcome bookkeeping of a re-composed check, as
   {!Verify.Obligations} keeps it: runs, complete runs, first 10
   problems in delivery order. *)
type acc = {
  mutable a_runs : int;
  mutable a_complete : int;
  mutable a_problems : (Conc.Runner.schedule * Conc.Fault.plan * string) list;
}

let new_acc () = { a_runs = 0; a_complete = 0; a_problems = [] }

let record acc (o : Conc.Runner.outcome) verdict =
  acc.a_runs <- acc.a_runs + 1;
  if o.complete then acc.a_complete <- acc.a_complete + 1;
  match verdict with
  | Ok () -> ()
  | Error m ->
      if List.length acc.a_problems < 10 then
        acc.a_problems <- (o.schedule, o.faults, m) :: acc.a_problems

let summary_of_acc acc ~hits (e : E.stats) =
  {
    runs = acc.a_runs;
    complete = acc.a_complete;
    problems = List.rev acc.a_problems;
    hits;
    nodes = e.nodes;
    replayed = e.replayed_steps;
    bound_hits = e.bound_hits;
    races = e.races_found;
    backtracks = e.backtrack_points;
    sleep = e.sleep_pruned;
  }

type checker_tally = {
  mutable calls : int;
  mutable states : int;
  mutable memo : int;
  mutable drops : int;
  mutable rejected : int;
}

let new_tally () = { calls = 0; states = 0; memo = 0; drops = 0; rejected = 0 }

let tallied_checker tally ~spec (o : Conc.Runner.outcome) =
  tally.calls <- tally.calls + 1;
  let v = Cal_checker.check ~spec o.history in
  let st =
    match v with
    | Cal_checker.Accepted { stats; _ } -> stats
    | Cal_checker.Rejected { stats; _ } ->
        tally.rejected <- tally.rejected + 1;
        stats
  in
  tally.states <- tally.states + st.states_explored;
  tally.memo <- tally.memo + st.memo_hits;
  tally.drops <- tally.drops + st.drop_sets_tried;
  match v with
  | Cal_checker.Accepted _ -> Ok ()
  | Cal_checker.Rejected { reason; _ } -> Error reason

let sample_checker t =
  sample_int "cal.cal_checker.calls" t.calls;
  sample_int "cal.cal_checker.states_explored" t.states;
  sample_int "cal.cal_checker.memo_hits" t.memo;
  sample_int "cal.cal_checker.drop_sets_tried" t.drops;
  sample_int "cal.cal_checker.rejected" t.rejected

let sample_explore (e : E.stats) =
  sample_int "conc.explore.runs" e.runs;
  sample_int "conc.explore.nodes" e.nodes;
  sample_int "conc.explore.replayed_steps" e.replayed_steps;
  sample_int "conc.explore.bound_hits" e.bound_hits;
  sample_int "conc.dpor.races_found" e.races_found;
  sample_int "conc.dpor.backtrack_points" e.backtrack_points;
  sample_int "conc.dpor.sleep_pruned" e.sleep_pruned

(* One untraced check call; gates and counts it. *)
let bb_untraced (s : S.t) =
  let t0 = now_ns () in
  let r = bb_check s in
  let dt = secs (now_ns () - t0) in
  let hits = (exploration r).cache_hits in
  gate (r.runs = bb_runs) "bb-cached: %d runs, expected %d" r.runs bb_runs;
  gate (hits = bb_hits) "bb-cached: %d cache hits, expected %d" hits bb_hits;
  gate (not (O.ok r)) "bb-cached: no problem found";
  out.attempted <- out.attempted + 1;
  if O.ok r <> s.expect_ok then out.failed <- out.failed + 1;
  (r, dt)

(* The same check re-composed from the layers' public functions:
   exploration (Conc.Explore), canonical key (Cal.History), cache lookup
   (Cal.Verdict_cache) and the CAL decision (Cal.Cal_checker), each call
   inside its own span. *)
let bb_traced sp (s : S.t) =
  Span.reset sp;
  let vc = Verdict_cache.create () in
  let acc = new_acc () in
  let tally = new_tally () in
  let key_bytes = ref 0 in
  let t0 = now_ns () in
  let stats =
    Span.with_ sp k_explore (fun () ->
        E.exhaustive_strategy ~strategy:bb_strategy ~domains:1 ~setup:s.setup
          ~fuel:bb_fuel
          ~f:(fun o ->
            Span.with_ sp k_outcome (fun () ->
                let key =
                  Span.with_ sp k_key (fun () -> History.canonical_key o.history)
                in
                key_bytes := !key_bytes + String.length key;
                let verdict =
                  Span.with_ sp k_lookup (fun () ->
                      Verdict_cache.find_or_compute vc ~key (fun () ->
                          Span.with_ sp k_checker (fun () ->
                              tallied_checker tally ~spec:s.spec o)))
                in
                record acc o verdict))
          ())
  in
  let dt = secs (now_ns () - t0) in
  let hits = Verdict_cache.hits vc and misses = Verdict_cache.misses vc in
  sample_explore stats;
  sample "conc.explore.us_per_run"
    ((Span.self_s sp).(k_explore) *. 1e6 /. float_of_int (max 1 stats.runs));
  sample_int "cal.history.canonical_key.calls" (Span.calls sp).(k_key);
  sample_int "cal.history.canonical_key.bytes" !key_bytes;
  sample_int "cal.verdict_cache.hits" hits;
  sample_int "cal.verdict_cache.misses" misses;
  sample "cal.verdict_cache.hit_ratio"
    (float_of_int hits /. float_of_int (max 1 (hits + misses)));
  sample_int "cal.verdict_cache.size" (Verdict_cache.size vc);
  sample_checker tally;
  sample_self sp
    [
      ("conc.explore.self_s", k_explore);
      ("cal.history.canonical_key.self_s", k_key);
      ("cal.verdict_cache.lookup_self_s", k_lookup);
      ("cal.cal_checker.self_s", k_checker);
    ];
  out.attempted <- out.attempted + 1;
  let ok = acc.a_problems = [] in
  if ok <> s.expect_ok then out.failed <- out.failed + 1;
  (summary_of_acc acc ~hits stats, dt)

let bb_setup () =
  setup_time ~per_batch:200 (fun () ->
      ignore (Sys.opaque_identity (bb_scenario ())))

let run_bb ~seconds ~trace ~sp =
  let s = bb_scenario () in
  if not trace then begin
    let setups = ref [] in
    let times = ref [] and recover = ref [] in
    run_for ~seconds (fun k ->
        let r, dt = bb_untraced s in
        after_pass k setups bb_setup;
        times := dt :: !times;
        let decide = decide_black_box ~spec:s.spec in
        gate (reproduce ~setup:s.setup ~decide r)
          "bb-cached: a reported witness does not reproduce";
        recover :=
          median_small (fun () -> ignore (reproduce ~setup:s.setup ~decide r))
          :: !recover;
        dt);
    let check_s = median !times in
    end_to_end ~setup_s:(median !setups) ~check_s ~frames_per_s:(1. /. check_s)
      ~p50_us:(check_s *. 1e6) ~p99_us:(check_s *. 1e6)
      ~recover_s:(median !recover)
  end
  else begin
    let untraced = ref [] and traced = ref [] in
    run_for ~seconds (fun _ ->
        let (r, dt), minor, major = gc_of (fun () -> bb_untraced s) in
        sample "gc.minor_mwords" minor;
        sample_int "gc.major_collections" major;
        let t, tdt = bb_traced sp s in
        gate (t = summary_of r)
          "bb-cached: traced re-composition differs from check_black_box";
        untraced := dt :: !untraced;
        traced := tdt :: !traced;
        dt +. tdt);
    overhead ~untraced:!untraced ~traced:!traced
  end

(* --------------------------------------------------------- dpor-suite -- *)

(* Every scenario under source-DPOR, checked by both deciders. Unbounded
   DPOR does not finish these three within a minute. *)
let dpor_excluded = [ "ms-queue-enq-deq"; "elim-queue-fifo"; "faulty-elim-queue" ]

let dpor_scenarios () =
  List.filter (fun (s : S.t) -> not (List.mem s.name dpor_excluded)) (S.all ())

let dpor_expected = 22

let check_trace (s : S.t) =
  O.check_object ~domains:1 ~strategy:E.Dpor ~setup:s.setup ~spec:s.spec
    ~view:s.view ~fuel:s.fuel ()

let check_bb (s : S.t) =
  O.check_black_box ~domains:1 ~strategy:E.Dpor ~cache:false ~setup:s.setup
    ~spec:s.spec ~fuel:s.fuel ()

let timed f =
  let t0 = now_ns () in
  let v = f () in
  (v, secs (now_ns () - t0))

(* One untraced pass over the suite: both checks per scenario, gated.
   Returns per-scenario reports and per-call latencies. *)
let dpor_untraced scenarios =
  List.map
    (fun (s : S.t) ->
      let r1, t1 = timed (fun () -> check_trace s) in
      let r2, t2 = timed (fun () -> check_bb s) in
      gate (O.ok r1 = s.expect_ok) "dpor-suite: %s trace verdict %b, expected %b"
        s.name (O.ok r1) s.expect_ok;
      gate (O.ok r2 = s.expect_ok)
        "dpor-suite: %s black-box verdict %b, expected %b" s.name (O.ok r2)
        s.expect_ok;
      gate (r1.runs = r2.runs) "dpor-suite: %s runs differ: %d vs %d" s.name
        r1.runs r2.runs;
      out.attempted <- out.attempted + 2;
      if O.ok r1 <> s.expect_ok then out.failed <- out.failed + 1;
      if O.ok r2 <> s.expect_ok || O.ok r1 <> O.ok r2 then
        out.failed <- out.failed + 1;
      (s, r1, r2, t1, t2))
    scenarios

let dpor_reproduce results =
  List.for_all
    (fun ((s : S.t), r1, r2, _, _) ->
      reproduce ~setup:s.setup ~decide:(O.check_outcome ~spec:s.spec ~view:s.view) r1
      && reproduce ~setup:s.setup ~decide:(decide_black_box ~spec:s.spec) r2)
    results

(* The suite re-composed: DPOR exploration (Conc.Explore) delivering each
   outcome to check_outcome (Verify.Obligations) on the first pass and to
   Cal_checker on the second. *)
let dpor_traced sp scenarios =
  Span.reset sp;
  let tally = new_tally () in
  let co_calls = ref 0 and co_failed = ref 0 in
  let sum = ref E.empty_stats in
  let t0 = now_ns () in
  let summaries =
    List.map
      (fun (s : S.t) ->
        let pass check =
          let acc = new_acc () in
          let stats =
            Span.with_ sp k_explore (fun () ->
                E.exhaustive_strategy ~strategy:E.Dpor ~domains:1 ~setup:s.setup
                  ~fuel:s.fuel
                  ~f:(fun o ->
                    Span.with_ sp k_outcome (fun () -> record acc o (check o)))
                  ())
          in
          sum := E.merge_stats !sum stats;
          out.attempted <- out.attempted + 1;
          if (acc.a_problems = []) <> s.expect_ok then out.failed <- out.failed + 1;
          summary_of_acc acc ~hits:0 stats
        in
        let trace_check o =
          incr co_calls;
          let v =
            Span.with_ sp k_check_outcome (fun () ->
                O.check_outcome ~spec:s.spec ~view:s.view o)
          in
          if Result.is_error v then incr co_failed;
          v
        in
        let bb_check o =
          Span.with_ sp k_checker (fun () -> tallied_checker tally ~spec:s.spec o)
        in
        let a = pass trace_check in
        let b = pass bb_check in
        (a, b))
      scenarios
  in
  let dt = secs (now_ns () - t0) in
  let e = !sum in
  sample_explore e;
  sample "conc.explore.us_per_run"
    ((Span.self_s sp).(k_explore) *. 1e6 /. float_of_int (max 1 e.runs));
  sample_checker tally;
  sample_int "verify.obligations.check_outcome.calls" !co_calls;
  sample_int "verify.obligations.check_outcome.failed" !co_failed;
  sample_self sp
    [
      ("conc.explore.self_s", k_explore);
      ("cal.cal_checker.self_s", k_checker);
      ("verify.obligations.check_outcome.self_s", k_check_outcome);
    ];
  (summaries, dt)

let dpor_setup () =
  setup_time ~per_batch:20 (fun () ->
      ignore (Sys.opaque_identity (dpor_scenarios ())))

let run_dpor ~seconds ~trace ~sp =
  let scenarios = dpor_scenarios () in
  gate
    (List.length scenarios = dpor_expected)
    "dpor-suite: %d scenarios, expected %d" (List.length scenarios) dpor_expected;
  let calls_per_pass = 2 * List.length scenarios in
  if not trace then begin
    let setups = ref [] in
    let check = ref [] and fps = ref [] and p50 = ref [] and p99 = ref []
    and recover = ref [] in
    run_for ~seconds (fun k ->
        let results = dpor_untraced scenarios in
        after_pass k setups dpor_setup;
        let lats =
          sorted_of (List.concat_map (fun (_, _, _, t1, t2) -> [ t1; t2 ]) results)
        in
        let total = Array.fold_left ( +. ) 0. lats in
        check := total :: !check;
        fps := float_of_int calls_per_pass /. total :: !fps;
        p50 := pct lats 0.5 *. 1e6 :: !p50;
        p99 := pct lats 0.99 *. 1e6 :: !p99;
        gate (dpor_reproduce results)
          "dpor-suite: a reported witness does not reproduce";
        recover :=
          median_small (fun () -> ignore (dpor_reproduce results)) :: !recover;
        total);
    end_to_end ~setup_s:(median !setups) ~check_s:(median !check)
      ~frames_per_s:(median !fps) ~p50_us:(median !p50) ~p99_us:(median !p99)
      ~recover_s:(median !recover)
  end
  else begin
    let untraced = ref [] and traced = ref [] in
    run_for ~seconds (fun _ ->
        let results, minor, major = gc_of (fun () -> dpor_untraced scenarios) in
        sample "gc.minor_mwords" minor;
        sample_int "gc.major_collections" major;
        let dt =
          List.fold_left (fun n (_, _, _, t1, t2) -> n +. t1 +. t2) 0. results
        in
        let summaries, tdt = dpor_traced sp scenarios in
        List.iter2
          (fun ((s : S.t), r1, r2, _, _) (a, b) ->
            gate
              (a = summary_of r1 && b = summary_of r2)
              "dpor-suite: %s traced re-composition differs from the checks"
              s.name)
          results summaries;
        untraced := dt :: !untraced;
        traced := tdt :: !traced;
        dt +. tdt);
    overhead ~untraced:!untraced ~traced:!traced
  end

(* -------------------------------------------------------- serve-mixed -- *)

(* The monitoring daemon's write path (journal-before-apply pump with the
   default group-commit journal, tick and snapshot cadence on) over a
   seeded frame stream, then its read path (recovery). *)
let serve_config = Service.Config.default
let serve_durability = Service.Config.default_durability
let tick_every = 1024

let spec_for oid =
  let name = Ids.Oid.to_string oid in
  if String.length name > 0 && name.[0] = 'E' then Some (Spec_exchanger.spec ~oid ())
  else Some (Spec_counter.spec ~oid ())

let ok_or what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let new_core () = ok_or "Core.create" (Core.create ~config:serve_config ~spec_for ())

let new_journal dir =
  ok_or "Journal.create" (Journal.create ~dir ~durability:serve_durability ())

(* Frame accounting shared by both runs: rejected frames, latched
   violations, and frames left unverified (their session desynced, or the
   core degraded below Full). *)
type serve_tally = {
  mutable rejected : int;
  mutable violations : int;
  mutable unverified : int;
  desynced : bool array;
}

let new_serve_tally (fr : Frames.t) =
  { rejected = 0; violations = 0; unverified = 0;
    desynced = Array.make (Array.length fr.oids) false }

let note (fr : Frames.t) index t core i evs =
  List.iter
    (function
      | Service.Proto.Rejected_frame _ -> t.rejected <- t.rejected + 1
      | Service.Proto.Violation _ -> t.violations <- t.violations + 1
      | Service.Proto.Session_desynced { oid; _ } -> (
          match Hashtbl.find_opt index (Ids.Oid.to_string oid) with
          | Some s -> t.desynced.(s) <- true
          | None -> ())
      | Service.Proto.Crash_seen _ -> Array.fill t.desynced 0 (Array.length t.desynced) false
      | _ -> ())
    evs;
  let s = fr.session.(i) in
  if (s >= 0 && t.desynced.(s)) || Core.level core <> Service.Proto.Full then
    t.unverified <- t.unverified + 1

let oid_index (fr : Frames.t) =
  let h = Hashtbl.create (Array.length fr.oids) in
  Array.iteri (fun s o -> Hashtbl.replace h o s) fr.oids;
  h

let closes (fr : Frames.t) i =
  match fr.kind.(i) with
  | Frames.Seq_close | Frames.Conc_close -> true
  | Frames.Plain | Frames.Crash -> false

(* One untraced pass through Transport.pump_line; returns the live core,
   the stream's wall seconds and the sorted latencies (us) of the frames
   that close a quiescent point. *)
let serve_untraced (fr : Frames.t) index dir =
  rm_rf dir;
  let core = new_core () in
  let w = new_journal dir in
  let pump =
    Service.Transport.create_pump ~core ~journal:w ~tick_every
      ~snapshot_every:serve_durability.snapshot_every ()
  in
  let n = Frames.length fr in
  let lat = Array.make n 0 and nl = ref 0 in
  let t = new_serve_tally fr in
  let t0 = now_ns () in
  for i = 0 to n - 1 do
    let evs =
      if closes fr i then begin
        let a = now_ns () in
        let evs = Service.Transport.pump_line pump fr.lines.(i) in
        lat.(!nl) <- now_ns () - a;
        incr nl;
        evs
      end
      else Service.Transport.pump_line pump fr.lines.(i)
    in
    note fr index t (Service.Transport.pump_core pump) i evs
  done;
  let elapsed = secs (now_ns () - t0) in
  Journal.close w;
  let lats = Array.map (fun ns -> float_of_int ns /. 1e3) (Array.sub lat 0 !nl) in
  Array.sort compare lats;
  (Service.Transport.pump_core pump, t, elapsed, lats)

(* Recovery as a restarted daemon runs it: newest snapshot, restore,
   replay of the journal suffix. *)
let recover ?sp dir =
  let span k f = match sp with None -> f () | Some sp -> Span.with_ sp k f in
  let r = span k_recover (fun () -> ok_or "Journal.recover" (Journal.recover ~dir)) in
  let core =
    span k_restore (fun () ->
        match r.core_snapshot with
        | None -> new_core ()
        | Some s -> ok_or "Core.restore" (Core.restore ~config:serve_config ~spec_for s))
  in
  let core =
    span k_replay (fun () ->
        List.fold_left
          (fun c record -> fst (Core.feed c (Journal.input_of_record record)))
          core r.records)
  in
  (core, r)

let journal_files dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".seg")
  |> List.map (fun f -> (Unix.stat (Filename.concat dir f)).Unix.st_size)

let serve_gates (fr : Frames.t) (live : Core.t) t =
  let m = Core.metrics live in
  let n = Frames.length fr in
  gate (m.frames = n) "serve-mixed: core saw %d frames, expected %d" m.frames n;
  gate (t.violations = fr.planted && m.violations = fr.planted)
    "serve-mixed: %d violation events (%d in metrics), %d planted" t.violations
    m.violations fr.planted;
  gate (m.crashes = fr.crashes) "serve-mixed: %d crashes, expected %d" m.crashes
    fr.crashes;
  gate (t.rejected = 0 && m.rejected_frames = 0) "serve-mixed: %d frames rejected"
    m.rejected_frames;
  gate (t.unverified = 0) "serve-mixed: %d frames left unverified" t.unverified

(* The pump re-composed from the layers: Journal.append, Core.feed, and
   on the cadence the tick, Core.snapshot and Journal.snapshot — the
   exact sequence Transport.pump_line performs. *)
let serve_traced sp (fr : Frames.t) index dir =
  Span.reset sp;
  rm_rf dir;
  let core = ref (new_core ()) in
  let w = new_journal dir in
  let n = Frames.length fr in
  let seq_spans = ref [] and conc_spans = ref [] in
  let snap_bytes = ref 0 and lines = ref 0 in
  let t = new_serve_tally fr in
  let t0 = now_ns () in
  for i = 0 to n - 1 do
    let line = fr.lines.(i) in
    let frame = Span.enter sp k_frame in
    ignore (Span.with_ sp k_append (fun () -> Journal.append w (Journal.Line line)));
    let f = Span.enter sp k_feed in
    let c, evs = Core.feed !core (Service.Proto.Line line) in
    Span.leave sp f;
    core := c;
    (match fr.kind.(i) with
    | Frames.Seq_close -> seq_spans := f :: !seq_spans
    | Frames.Conc_close -> conc_spans := f :: !conc_spans
    | Frames.Plain | Frames.Crash -> ());
    incr lines;
    let evs =
      if !lines mod tick_every <> 0 then evs
      else begin
        ignore (Span.with_ sp k_append (fun () -> Journal.append w Journal.Tick));
        let c, tevs = Span.with_ sp k_feed (fun () -> Core.feed !core Service.Proto.Tick) in
        core := c;
        if (Core.metrics c).ticks mod serve_durability.snapshot_every = 0 then begin
          let snap = Span.with_ sp k_core_snapshot (fun () -> Core.snapshot c) in
          snap_bytes := !snap_bytes + String.length snap;
          match
            Span.with_ sp k_journal_snapshot (fun () ->
                Journal.snapshot w ~core_snapshot:snap)
          with
          | Ok _ -> ()
          | Error e -> gate false "serve-mixed: snapshot failed: %s" e
        end;
        evs @ tevs
      end
    in
    Span.leave sp frame;
    note fr index t !core i evs
  done;
  let elapsed = secs (now_ns () - t0) in
  Journal.close w;
  let p99 spans =
    pct (sorted_of (List.map (fun i -> float_of_int (Span.duration_ns sp i) /. 1e3) spans)) 0.99
  in
  sample "service.core.feed.seq_p99_us" (p99 !seq_spans);
  sample "service.core.feed.conc_p99_us" (p99 !conc_spans);
  sample_int "service.core.snapshot.bytes" !snap_bytes;
  let calls = Span.calls sp in
  sample_int "service.journal.append.calls" calls.(k_append);
  sample_int "service.journal.snapshot.calls" calls.(k_journal_snapshot);
  sample_int "service.core.feed.calls" calls.(k_feed);
  (!core, t, elapsed)

(* A separate pass timing the frame parser alone: Core.feed parses
   internally, so its share is not visible from outside. *)
let parse_pass sp (fr : Frames.t) =
  let bad = ref 0 in
  Array.iter
    (fun line ->
      Span.with_ sp k_parse (fun () ->
          match History_format.parse_action (String.trim line) with
          | Ok _ -> ()
          | Error _ -> incr bad))
    fr.lines;
  gate (!bad = 0) "serve-mixed: %d frames do not parse" !bad

(* Set-up as the daemon does it: a core and a journal writer in a fresh
   directory, in batches of 10 over one [setup_window]; closing and
   removal are not timed. *)
let serve_setup work =
  Gc.full_major ();
  let per_batch = 10 in
  let samples = ref [] and b = ref 0 in
  let t_end = now_ns () + int_of_float (setup_window *. 1e9) in
  while now_ns () < t_end do
    let dirs =
      List.init per_batch (fun i ->
          let d = Filename.concat work (Printf.sprintf "setup-%d-%d" !b i) in
          rm_rf d;
          d)
    in
    let t0 = now_ns () in
    let made = List.map (fun d -> (new_core (), new_journal d)) dirs in
    let dt = now_ns () - t0 in
    List.iter (fun (_, w) -> Journal.close w) made;
    List.iter rm_rf dirs;
    samples := (secs dt /. float_of_int per_batch) :: !samples;
    incr b
  done;
  Gc.full_major ();
  !samples

let run_serve ~seconds ~trace ~sp ~seed ~work =
  let fr = Frames.generate ~seed in
  let index = oid_index fr in
  let dir = Filename.concat work "journal" in
  let n = Frames.length fr in
  let recovered_matches live =
    let rc, r = recover dir in
    gate (r.dropped_bytes = 0) "serve-mixed: recovery dropped %d bytes" r.dropped_bytes;
    gate (Core.snapshot rc = Core.snapshot live)
      "serve-mixed: recovered core differs from the live core"
  in
  if not trace then begin
    let setups = ref [] in
    let check = ref [] and fps = ref [] and p50 = ref [] and p99 = ref []
    and rec_s = ref [] in
    run_for ~seconds (fun k ->
        let t_iter = now_ns () in
        let live, t, elapsed, lats = serve_untraced fr index dir in
        serve_gates fr live t;
        out.attempted <- out.attempted + n;
        out.failed <- out.failed + t.rejected + t.unverified;
        check := elapsed :: !check;
        fps := float_of_int n /. elapsed :: !fps;
        p50 := pct lats 0.5 :: !p50;
        p99 := pct lats 0.99 :: !p99;
        recovered_matches live;
        Gc.full_major ();
        rec_s :=
          median (List.init 5 (fun _ -> snd (timed (fun () -> recover dir))))
          :: !rec_s;
        (* set-up after the pass's journal is gone, not behind its flush *)
        rm_rf dir;
        after_pass k setups (fun () -> serve_setup work);
        secs (now_ns () - t_iter));
    end_to_end ~setup_s:(median !setups) ~check_s:(median !check)
      ~frames_per_s:(median !fps) ~p50_us:(median !p50) ~p99_us:(median !p99)
      ~recover_s:(median !rec_s)
  end
  else begin
    let untraced = ref [] and traced = ref [] in
    run_for ~seconds (fun _ ->
        let (live, t, elapsed, _), minor, major =
          gc_of (fun () -> serve_untraced fr index dir)
        in
        serve_gates fr live t;
        out.attempted <- out.attempted + n;
        out.failed <- out.failed + t.rejected + t.unverified;
        sample "gc.minor_mwords" minor;
        sample_int "gc.major_collections" major;
        let untraced_files = journal_files dir in
        let traced_core, tt, tdt = serve_traced sp fr index dir in
        serve_gates fr traced_core tt;
        out.attempted <- out.attempted + n;
        out.failed <- out.failed + tt.rejected + tt.unverified;
        let files = journal_files dir in
        gate (files = untraced_files)
          "serve-mixed: traced journal differs from pump_line's";
        gate
          (Core.metrics traced_core = Core.metrics live
          && Core.snapshot traced_core = Core.snapshot live)
          "serve-mixed: traced re-composition differs from pump_line";
        sample_int "service.journal.bytes" (List.fold_left ( + ) 0 files);
        sample_int "service.journal.segments" (List.length files);
        let m = Core.metrics live in
        sample_int "service.core.commits" m.commits;
        sample_int "service.core.violations" m.violations;
        sample_int "service.core.desyncs" m.desyncs;
        sample_int "service.core.level_changes" m.level_changes;
        sample_int "service.core.rejected_frames" m.rejected_frames;
        let rc, r = recover ~sp dir in
        gate (Core.snapshot rc = Core.snapshot live)
          "serve-mixed: recovered core differs from the live core";
        sample_int "service.replay.frames" r.replayed;
        parse_pass sp fr;
        sample_self sp
          [
            ("service.journal.append.self_s", k_append);
            ("service.journal.snapshot.self_s", k_journal_snapshot);
            ("service.core.snapshot.self_s", k_core_snapshot);
            ("service.core.feed.self_s", k_feed);
            ("cal.history_format.parse.self_s", k_parse);
            ("service.journal.recover.self_s", k_recover);
            ("service.core.restore.self_s", k_restore);
            ("service.replay.self_s", k_replay);
          ];
        untraced := elapsed :: !untraced;
        traced := tdt :: !traced;
        elapsed +. tdt);
    rm_rf dir;
    overhead ~untraced:!untraced ~traced:!traced
  end

(* --------------------------------------------------------------- main -- *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    gate false "a metric is not a finite number";
    "-1"
  end

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let workloads = [ "bb-cached"; "dpor-suite"; "serve-mixed" ]

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1)
  and commit = ref "unknown" and work = ref ".bench_work" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N stream seed (serve-mixed)");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end run or traced per-layer run");
      ("--commit", Arg.Set_string commit, "SHA source revision, for the metadata");
      ("--work-dir", Arg.Set_string work, "DIR scratch directory (journals, span dump)");
    ]
  in
  let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1" in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> die "%s" (String.trim m));
  if not (List.mem !workload workloads) then die "unknown workload %S" !workload;
  if !seed < 0 then die "--seed must be a non-negative integer";
  if !seconds <= 0. then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (* Environment overrides change what the checks explore (pruning, cache
     capacity, domains, strategy); a measurement under one is not the
     benchmark's. *)
  (match
     List.filter
       (fun kv -> String.length kv >= 4 && String.sub kv 0 4 = "CAL_")
       (Array.to_list (Unix.environment ()))
   with
  | [] -> ()
  | vars -> die "refusing to run with CAL_* overrides set: %s" (String.concat " " vars));
  mkdir_p !work;
  let trace = !trace = 1 and seconds = !seconds in
  let sp = Span.create kinds in
  (try
     match !workload with
     | "bb-cached" -> run_bb ~seconds ~trace ~sp
     | "dpor-suite" -> run_dpor ~seconds ~trace ~sp
     | _ -> run_serve ~seconds ~trace ~sp ~seed:!seed ~work:!work
   with Failure m -> gate false "%s" m);
  if trace then begin
    emit_per_layer ();
    Span.write sp (Filename.concat !work (!workload ^ ".spans"))
  end;
  let d = serve_durability in
  Printf.printf
    "{\"meta\": {\"workload\": %s, \"seed\": %d, \"seed_used\": %b, \"seconds\": %s, \
     \"trace\": %b, \"hw_cores\": %d, \"ocaml\": %s, \"commit\": %s, \"domains\": 1, \
     \"journal\": {\"flush_every\": %d, \"fsync_every\": %d, \"segment_bytes\": %d, \
     \"snapshot_every_ticks\": %d, \"tick_every_frames\": %d}}}\n"
    (json_string !workload) !seed (!workload = "serve-mixed") (json_float seconds)
    trace (Domain.recommended_domain_count ()) (json_string Sys.ocaml_version)
    (json_string !commit) d.flush_every d.fsync_every d.segment_bytes d.snapshot_every
    tick_every;
  gate (out.attempted > 0) "no operation was attempted";
  let fields =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_float v) (json_string unit))
      !metrics
  in
  List.iter (fun m -> prerr_endline ("perfbench: gate failed: " ^ m)) (List.rev !gate_failures);
  let correct = !gate_failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct (max 1 out.attempted) out.failed (String.concat ", " fields);
  exit (if correct then 0 else 1)
