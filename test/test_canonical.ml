(* Tests for the canonical history form behind the shared verdict cache:
   permutations of maximal same-kind runs collapse to one representative
   (and one cache key), anything that can change a CAL verdict — ordering
   across kinds, crash boundaries, values, thread identities — never
   collapses, and the canonical structure survives the textual history
   format. *)

open Cal
open Test_support

let t name f = Alcotest.test_case name `Quick f
let h = History.of_list
let key hist = History.canonical_key hist

let check_canon_eq name a b =
  check_bool (name ^ ": canonical_equal") true (History.canonical_equal a b);
  Alcotest.(check string) (name ^ ": canonical_key") (key a) (key b)

let check_canon_neq name a b =
  check_bool (name ^ ": canonical_equal") false (History.canonical_equal a b);
  check_bool (name ^ ": canonical_key") false (String.equal (key a) (key b))

(* Two exchanges whose invocations race and whose responses race: the four
   histories that differ only in the order within each adjacent same-kind
   run are one canonical class. *)
let test_permuted_runs_collide () =
  let quad ia ib ra rb =
    h [ inv ia (vi (3 + ia)); inv ib (vi (3 + ib));
        res ra (ok_int (7 - ra)); res rb (ok_int (7 - rb)) ]
  in
  let base = quad 0 1 0 1 in
  List.iter
    (fun (name, other) ->
      check_bool (name ^ ": raw histories differ") false
        (History.equal base other);
      check_canon_eq name base other)
    [
      ("swapped invocations", quad 1 0 0 1);
      ("swapped responses", quad 0 1 1 0);
      ("both swapped", quad 1 0 1 0);
    ];
  check_bool "canonical form is well-formed" true
    (History.is_well_formed (History.canonicalize base))

(* The canonical form never reorders across kinds: a sequential history
   and the concurrent overlap of the same two operations are different
   CAL instances and must stay distinct. *)
let test_sequential_vs_concurrent_distinct () =
  let seq =
    h [ inv 0 (vi 3); res 0 (ok_int 4); inv 1 (vi 4); res 1 (ok_int 3) ]
  in
  let conc =
    h [ inv 0 (vi 3); inv 1 (vi 4); res 0 (ok_int 4); res 1 (ok_int 3) ]
  in
  check_canon_neq "sequential vs concurrent" seq conc

(* Crash markers are hard sort boundaries: the same invocations on the two
   sides of a crash are different eras, so exchanging them across the
   crash is a different canonical class — while permuting within one era
   still collapses. *)
let test_crash_is_a_boundary () =
  let crash = Action.crash ~epoch:1 in
  let a = h [ inv 0 (vi 3); crash; inv 1 (vi 4) ] in
  let b = h [ inv 1 (vi 4); crash; inv 0 (vi 3) ] in
  check_canon_neq "actions moved across the crash" a b;
  let c = h [ inv 0 (vi 3); inv 1 (vi 4); crash; inv 2 (vi 5) ] in
  let d = h [ inv 1 (vi 4); inv 0 (vi 3); crash; inv 2 (vi 5) ] in
  check_canon_eq "permuted within the pre-crash era" c d;
  check_canon_neq "crash epochs differ"
    (h [ Action.crash ~epoch:1 ])
    (h [ Action.crash ~epoch:2 ])

(* Everything the key serializes is discriminating: values, thread ids,
   function ids, pending vs completed. *)
let test_key_discriminates () =
  check_canon_neq "argument values"
    (h [ inv 0 (vi 3) ])
    (h [ inv 0 (vi 4) ]);
  check_canon_neq "thread identities"
    (h [ inv 0 (vi 3) ])
    (h [ inv 1 (vi 3) ]);
  check_canon_neq "return values"
    (h [ inv 0 (vi 3); res 0 (ok_int 4) ])
    (h [ inv 0 (vi 3); res 0 (fail_int 4) ]);
  check_canon_neq "pending vs completed"
    (h [ inv 0 (vi 3) ])
    (h [ inv 0 (vi 3); res 0 (ok_int 4) ])

let test_idempotent () =
  let sample =
    h [ inv 0 (vi 3); inv 1 (vi 4); res 1 (ok_int 3); Action.crash ~epoch:1;
        inv 2 (vi 5); res 2 (fail_int 0) ]
  in
  let c1 = History.canonicalize sample in
  let c2 = History.canonicalize c1 in
  check_bool "canonicalize is idempotent" true (History.equal c1 c2);
  Alcotest.(check string) "key is canonicalization-invariant" (key sample)
    (key c1);
  Alcotest.(check int) "length preserved" (History.length sample)
    (History.length c1)

(* Round-tripping through the textual history format preserves the
   canonical class: parse (print h) lands in the same cache bucket as h,
   for handmade histories and for every history of an explored scenario. *)
let test_format_round_trip_preserves_canonical () =
  let round_trip name hist =
    match History_format.parse_history (History_format.print_history hist) with
    | Error e -> Alcotest.failf "%s: round-trip failed to parse: %s" name e
    | Ok hist' ->
        Alcotest.(check string)
          (name ^ ": canonical key survives the format")
          (key hist) (key hist')
  in
  round_trip "handmade"
    (h [ inv 0 (vi 3); inv 1 (vi 4); res 1 (ok_int 3) ]);
  let s = Workloads.Scenarios.exchanger_pair () in
  let count = ref 0 in
  let (_ : Conc.Explore.stats) =
    Conc.Explore.exhaustive ~setup:s.setup ~fuel:10
      ~f:(fun (o : Conc.Runner.outcome) ->
        incr count;
        round_trip (Fmt.str "run %d" !count) o.history)
      ()
  in
  check_bool "explored at least one run" true (!count > 0)

(* On real explored histories, key equality and canonical equality are the
   same relation — the cache never conflates distinct classes and never
   splits one. *)
let test_key_iff_canonical_on_explored () =
  let s = Workloads.Scenarios.elim_stack_push_pop ~k:1 () in
  let hs = ref [] in
  let (_ : Conc.Explore.stats) =
    Conc.Explore.exhaustive ~setup:s.setup ~fuel:8
      ~f:(fun (o : Conc.Runner.outcome) -> hs := o.history :: !hs)
      ()
  in
  let hs = Array.of_list !hs in
  let n = Array.length hs in
  check_bool "explored at least two runs" true (n > 1);
  for i = 0 to min n 40 - 1 do
    for j = i to min n 40 - 1 do
      check_bool
        (Fmt.str "key equality iff canonical equality (%d, %d)" i j)
        (History.canonical_equal hs.(i) hs.(j))
        (String.equal (key hs.(i)) (key hs.(j)))
    done
  done

(* The cache counters of a small rejecting black-box cell, pinned to what
   the decimal-text key produced: an encoding that split a canonical class
   would add misses, one that merged two would add hits (and could hand a
   run another class's verdict). Explicit domains and strategy keep the
   environment's defaults out of the numbers. *)
let test_cache_counters_pinned () =
  let s = Workloads.Scenarios.faulty_elim_stack () in
  let strategy = Option.get (Workloads.Scenarios.strategy s) in
  let r =
    Verify.Obligations.check_black_box ~domains:1 ~strategy ~cache:true
      ~setup:s.setup ~spec:s.spec ~fuel:s.fuel ()
  in
  let hits =
    match r.exploration with Some e -> e.Conc.Explore.cache_hits | None -> -1
  in
  Alcotest.(check int) "runs" 944 r.runs;
  Alcotest.(check int) "cache hits" 904 hits;
  Alcotest.(check int) "problems" 10 (List.length r.problems);
  (match r.problems with
  | [] -> Alcotest.fail "no problem found"
  | p :: _ ->
      Alcotest.(check string) "first problem"
        "no completion of the history is explained by any stack(S) trace"
        p.message;
      Alcotest.(check string) "first problem's schedule"
        "t0 t0 t0 t0 t0 t1 t1 t1 t1 t2 t2 t2 t2"
        (Fmt.str "%a" (Fmt.list ~sep:(Fmt.any " ") Conc.Runner.pp_decision)
           p.schedule));
  (* the same lookups with the cache in hand, for misses and size *)
  let vc = Verdict_cache.create () in
  let (_ : Conc.Explore.stats) =
    Conc.Explore.exhaustive ~domains:1 ~strategy ~setup:s.setup ~fuel:s.fuel
      ~f:(fun (o : Conc.Runner.outcome) ->
        ignore
          (Verdict_cache.find_or_compute vc ~key:(key o.history) (fun () ->
               match Cal_checker.check ~spec:s.spec o.history with
               | Cal_checker.Accepted _ -> Ok ()
               | Cal_checker.Rejected { reason; _ } -> Error reason)))
      ()
  in
  Alcotest.(check int) "hits" 904 (Verdict_cache.hits vc);
  Alcotest.(check int) "misses" 40 (Verdict_cache.misses vc);
  Alcotest.(check int) "size" 40 (Verdict_cache.size vc)

(* Key injectivity over hostile histories: [canonical_key] is a binary
   encoding, so the generators aim at what a sloppy encoding would
   conflate — signs and extremes of ints, varint width boundaries
   (127/128, 16383/16384), names and strings holding separators, NUL and
   digits, [List []] next to [Unit], nested pairs and lists, and crash
   markers. Histories need not be well-formed: the key is total. *)
module Hostile = struct
  open QCheck.Gen

  let ints =
    [ 0; 1; -1; 62; 63; 64; -64; -65; 127; 128; -128; 16383; 16384; -16384;
      max_int; min_int; max_int - 1; min_int + 1 ]

  let strs =
    [ ""; ":"; "\n"; "|"; "\000"; "0"; "12"; "1:"; ":1"; "a|b"; "i1"; "s0:";
      "\000\001"; String.make 128 'x' ]

  let names = [ "E"; "S"; "E1"; "1"; ":"; "|"; "\n"; "\000"; "a:b"; "op"; "opx" ]
  let tids = [ 0; 1; 2; 127; 128; 16383; 16384 ]
  let epochs = [ 0; 1; 2; 127; 128; -1; max_int; min_int ]

  let value =
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 return Value.Unit;
                 map Value.bool bool;
                 map Value.int (oneof [ oneofl ints; int ]);
                 map Value.str (oneof [ oneofl strs; string_size (int_bound 4) ]);
                 return (Value.List []);
               ]
           in
           if n = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map2 Value.pair (self (n - 1)) (self (n - 1)));
                 (1, map Value.list (list_size (int_bound 3) (self (n - 1))));
               ])

  let action =
    frequency
      [
        ( 4,
          map4
            (fun inv t (o, f) v ->
              let tid = Ids.Tid.of_int t
              and oid = Ids.Oid.v o
              and fid = Ids.Fid.v f in
              if inv then Action.inv ~tid ~oid ~fid v
              else Action.res ~tid ~oid ~fid v)
            bool (oneofl tids)
            (pair (oneofl names) (oneofl names))
            value );
        (1, map (fun epoch -> Action.crash ~epoch) (oneofl epochs));
      ]

  let history = map History.of_list (list_size (int_bound 8) action)

  (* Values a loose encoding could confuse with [v]. *)
  let confusable (v : Value.t) =
    match v with
    | Unit -> oneofl [ Value.List []; Value.Str ""; Value.Int 0 ]
    | List [] -> oneofl [ Value.Unit; Value.Str "" ]
    | Int n ->
        oneofl
          [ Value.Int (-n); Value.Int (n + 1); Value.Int (-n - 1);
            Value.Str (string_of_int n) ]
    | Str s -> oneofl [ Value.Str (s ^ "|"); Value.Str ("\000" ^ s); Value.List [ v ] ]
    | Bool b -> return (Value.Bool (not b))
    | Pair (x, y) -> oneofl [ Value.List [ x; y ]; Value.Pair (y, x); x ]
    | List (x :: rest) -> oneofl [ Value.List rest; Value.Pair (x, Value.List rest) ]

  (* The same action with exactly one field changed. *)
  let mutate (a : Action.t) =
    match a with
    | Crash { epoch } -> return (Action.crash ~epoch:(epoch + 1))
    | Inv { tid; oid; fid; arg = v } | Res { tid; oid; fid; ret = v } ->
        let rebuild ~tid ~oid ~fid v =
          if Action.is_inv a then Action.inv ~tid ~oid ~fid v
          else Action.res ~tid ~oid ~fid v
        in
        let tid_i = Ids.Tid.to_int tid in
        oneof
          [
            map
              (fun t -> rebuild ~tid:(Ids.Tid.of_int t) ~oid ~fid v)
              (oneofl (List.filter (( <> ) tid_i) tids));
            map
              (fun o -> rebuild ~tid ~oid:(Ids.Oid.v o) ~fid v)
              (oneofl
                 (List.filter (( <> ) (Ids.Oid.to_string oid)) names));
            map
              (fun f -> rebuild ~tid ~oid ~fid:(Ids.Fid.v f) v)
              (oneofl
                 (List.filter (( <> ) (Ids.Fid.to_string fid)) names));
            map (rebuild ~tid ~oid ~fid) (confusable v);
            return
              (if Action.is_inv a then Action.res ~tid ~oid ~fid v
               else Action.inv ~tid ~oid ~fid v);
          ]

  (* A second history related to the first: one field of one action
     changed, an adjacent pair swapped (same kind: equal class; mixed or
     crash: usually not), an action dropped, or an unrelated history. *)
  let related h =
    let acts = Array.of_list (History.to_list h) in
    let n = Array.length acts in
    if n = 0 then history
    else
      int_bound (n - 1) >>= fun i ->
      frequency
        [
          ( 3,
            map
              (fun a' ->
                let b = Array.copy acts in
                b.(i) <- a';
                History.of_list (Array.to_list b))
              (mutate acts.(i)) );
          ( 3,
            return
              (let b = Array.copy acts in
               let j = min (i + 1) (n - 1) in
               b.(i) <- acts.(j);
               b.(j) <- acts.(i);
               History.of_list (Array.to_list b)) );
          ( 1,
            return
              (History.of_list
                 (List.filteri (fun k _ -> k <> i) (Array.to_list acts))) );
          (1, history);
        ]

  let pair_arb =
    QCheck.make
      ~print:(fun (a, b) ->
        Fmt.str "@[<v>a:@,%a@,b:@,%a@]" History.pp a History.pp b)
      (history >>= fun a -> map (fun b -> (a, b)) (related a))
end

let prop_key_injective (a, b) =
  String.equal (key a) (key b) = History.canonical_equal a b

(* ------------------------------------ bounded verdict cache (service) -- *)

(* A bounded cache must stay verdict-transparent: whatever the capacity,
   every lookup answers exactly what an uncached compute would, eviction
   only costing recomputation. Compute functions here are deterministic
   (as the cache contract requires), so transparency is observable as
   byte-equal verdicts against an unbounded reference. *)
let test_eviction_is_verdict_transparent () =
  let verdict_of k =
    if String.length k mod 3 = 0 then Error ("rejected " ^ k) else Ok ()
  in
  List.iter
    (fun capacity ->
      let bounded = Verdict_cache.create ?capacity () in
      let computes = ref 0 in
      let lookup k =
        Verdict_cache.find_or_compute bounded ~key:k (fun () ->
            incr computes;
            verdict_of k)
      in
      (* Two passes over more keys than any bound, so bounded instances
         must evict and re-compute. *)
      let keys = List.init 200 (fun i -> Fmt.str "key-%d" i) in
      List.iter
        (fun k ->
          let name = Fmt.str "cap=%s %s"
              (match capacity with None -> "none" | Some c -> string_of_int c)
              k
          in
          Alcotest.(check (result unit string)) name (verdict_of k) (lookup k))
        (keys @ keys);
      match capacity with
      | None ->
          Alcotest.(check int) "unbounded: one compute per key" 200 !computes;
          Alcotest.(check int) "unbounded: no evictions" 0
            (Verdict_cache.evictions bounded)
      | Some c ->
          check_bool "bounded: stays within capacity" true
            (Verdict_cache.size bounded <= c);
          check_bool "bounded: evicted" true
            (Verdict_cache.evictions bounded > 0))
    [ None; Some 1; Some 7; Some 64 ]

let test_capacity_below_shards () =
  (* Capacity 2 with the default 16 shards must still hold 2 entries
     (the shard count collapses), not cap each shard at zero. *)
  let c = Verdict_cache.create ~capacity:2 () in
  let hit = ref 0 in
  let lookup k =
    ignore (Verdict_cache.find_or_compute c ~key:k (fun () -> incr hit; Ok ()))
  in
  lookup "a";
  lookup "b";
  Alcotest.(check int) "both entries stored" 2 (Verdict_cache.size c);
  lookup "a";
  lookup "b";
  Alcotest.(check int) "no recompute within capacity" 2 !hit

(* The engines keep their default unbounded behaviour unless the
   environment knob is set; the knob itself parses defensively. *)
let test_tuning_capacity_knob () =
  let with_env v f =
    let old = Sys.getenv_opt "CAL_VERDICT_CACHE_CAP" in
    Unix.putenv "CAL_VERDICT_CACHE_CAP" v;
    Fun.protect f ~finally:(fun () ->
        Unix.putenv "CAL_VERDICT_CACHE_CAP"
          (match old with Some s -> s | None -> ""))
  in
  with_env "" (fun () ->
      check_bool "empty = unbounded" true (Tuning.verdict_cache_capacity () = None));
  with_env "512" (fun () ->
      check_bool "positive integer" true
        (Tuning.verdict_cache_capacity () = Some 512));
  with_env "-3" (fun () ->
      check_bool "negative rejected" true
        (Tuning.verdict_cache_capacity () = None));
  with_env "lots" (fun () ->
      check_bool "garbage rejected" true
        (Tuning.verdict_cache_capacity () = None))

let () =
  Alcotest.run "canonical"
    [
      ( "canonical",
        [
          t "permuted same-kind runs collide" test_permuted_runs_collide;
          t "sequential vs concurrent stay distinct"
            test_sequential_vs_concurrent_distinct;
          t "crash markers are sort boundaries" test_crash_is_a_boundary;
          t "key discriminates values, threads, completion"
            test_key_discriminates;
          t "canonicalize is idempotent" test_idempotent;
          t "format round-trip preserves the canonical class"
            test_format_round_trip_preserves_canonical;
          t "key equality is canonical equality on explored histories"
            test_key_iff_canonical_on_explored;
          t "cache counters pinned on faulty-elim-stack-1p2c"
            test_cache_counters_pinned;
          qtest ~count:3000 "key injective on hostile histories"
            Hostile.pair_arb prop_key_injective;
        ] );
      ( "verdict cache bounds",
        [
          t "eviction is verdict-transparent"
            test_eviction_is_verdict_transparent;
          t "capacity below shard count" test_capacity_below_shards;
          t "CAL_VERDICT_CACHE_CAP knob" test_tuning_capacity_knob;
        ] );
    ]
