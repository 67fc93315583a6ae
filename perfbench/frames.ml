(* The seeded frame stream of the serve-mixed workload.

   Round-based traffic over two kinds of sessions:
   - counter sessions [S<i>] (one client thread, fetch-and-add): every
     round a session invokes [incr] and later receives the counter's old
     value, so every response closes a quiescent point on the service's
     sequential fast path;
   - exchanger sessions [E<j>] (two client threads): every round the two
     threads invoke [exchange] with fresh values and both swap, so the
     second response closes a concurrent window that the service decides
     with the exhaustive CAL checker.
   A round first issues every invocation, then every response, each
   phase in its own seeded order, so all windows are open at the round's
   midpoint. Crash markers sit between rounds (every session quiescent);
   after one, each session's acceptor restarts from the initial state.
   A planted violation is a wrong response (a counter value that was
   never held, or a swap with a value nobody offered); the session it
   hits sends nothing afterwards, so the latched violation is the last
   thing it says.

   The stream is a pure function of the seed; the program only ever
   sees the generated lines. *)

type kind = Plain | Seq_close | Conc_close | Crash

type t = {
  lines : string array;
  session : int array;  (* session index of each frame; -1 for crashes *)
  kind : kind array;
  oids : string array;  (* session index -> object id *)
  planted : int;  (* planted violations *)
  crashes : int;
}

let counters = 2000
let exchangers = 256
let rounds = 100
let planted_counter = 8
let planted_exchanger = 4
let crash_markers = 4

(* [k] distinct integers drawn from [lo, hi). *)
let distinct rng ~k ~lo ~hi =
  let rec go acc =
    if List.length acc = k then acc
    else
      let x = lo + Random.State.int rng (hi - lo) in
      if List.mem x acc then go acc else go (x :: acc)
  in
  go []

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let generate ~seed =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let sessions = counters + exchangers in
  let oids =
    Array.init sessions (fun s ->
        if s < counters then Printf.sprintf "S%d" s
        else Printf.sprintf "E%d" (s - counters))
  in
  (* session -> round of its planted violation (max_int: none) *)
  let plant = Array.make sessions max_int in
  List.iter
    (fun s -> plant.(s) <- Random.State.int rng rounds)
    (distinct rng ~k:planted_counter ~lo:0 ~hi:counters
    @ distinct rng ~k:planted_exchanger ~lo:counters ~hi:sessions);
  let crash_after = distinct rng ~k:crash_markers ~lo:1 ~hi:rounds in
  let value = Array.make sessions 0 in
  let offers = Array.make_matrix sessions 2 0 in
  let buf = ref [] in
  let emit s k line = buf := (line, s, k) :: !buf in
  let epoch = ref 0 in
  for r = 0 to rounds - 1 do
    if List.mem r crash_after then begin
      incr epoch;
      Array.fill value 0 sessions 0;
      emit (-1) Crash (Printf.sprintf "crash %d" !epoch)
    end;
    let live =
      Array.of_list
        (List.filter (fun s -> plant.(s) >= r) (List.init sessions Fun.id))
    in
    shuffle rng live;
    Array.iter
      (fun s ->
        let o = oids.(s) in
        if s < counters then emit s Plain (Printf.sprintf "t1 inv %s.incr ()" o)
        else begin
          let a = 1 + Random.State.int rng 1000 in
          let b = 1001 + Random.State.int rng 1000 in
          offers.(s).(0) <- a;
          offers.(s).(1) <- b;
          emit s Plain (Printf.sprintf "t1 inv %s.exchange %d" o a);
          emit s Plain (Printf.sprintf "t2 inv %s.exchange %d" o b)
        end)
      live;
    shuffle rng live;
    Array.iter
      (fun s ->
        let o = oids.(s) in
        let bad = plant.(s) = r in
        if s < counters then begin
          let v = value.(s) in
          value.(s) <- v + 1;
          emit s Seq_close
            (Printf.sprintf "t1 res %s.incr %d" o (if bad then v + 1000 else v))
        end
        else begin
          let a = offers.(s).(0) and b = offers.(s).(1) in
          emit s Plain
            (Printf.sprintf "t1 res %s.exchange (true, %d)" o
               (if bad then 5000 else b));
          emit s Conc_close
            (Printf.sprintf "t2 res %s.exchange (true, %d)" o a)
        end)
      live
  done;
  let frames = Array.of_list (List.rev !buf) in
  {
    lines = Array.map (fun (l, _, _) -> l) frames;
    session = Array.map (fun (_, s, _) -> s) frames;
    kind = Array.map (fun (_, _, k) -> k) frames;
    oids;
    planted = planted_counter + planted_exchanger;
    crashes = crash_markers;
  }

let length t = Array.length t.lines
