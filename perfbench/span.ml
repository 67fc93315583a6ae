(* In-memory span recorder of the traced run.

   A span is (kind, parent, start, end): [kind] indexes the recorder's
   name table, [parent] is the index of the enclosing span (-1 for a
   root). Spans are appended to growable struct-of-arrays buffers, so
   recording allocates nothing per span beyond amortised growth, and
   they are only aggregated and written out after the pass. Every call
   is made from the benchmark's own code around a public function of
   one layer; nothing inside the program is instrumented. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type t = {
  names : string array;
  mutable n : int;
  mutable tag : int array;  (* kind lor ((parent + 1) lsl 8) *)
  mutable t0 : int array;  (* ns *)
  mutable t1 : int array;
  mutable current : int;  (* innermost open span, -1 when none *)
}

let create names =
  if Array.length names > 255 then invalid_arg "Span.create: too many kinds";
  let cap = 1 lsl 16 in
  {
    names;
    n = 0;
    tag = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    current = -1;
  }

let kind names name =
  let rec go i =
    if i = Array.length names then invalid_arg ("Span.kind: " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let reset t =
  t.n <- 0;
  t.current <- -1

let count t = t.n

let grow t =
  let cap = 2 * Array.length t.tag in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.tag <- extend t.tag;
  t.t0 <- extend t.t0;
  t.t1 <- extend t.t1

let enter t k =
  if t.n = Array.length t.tag then grow t;
  let i = t.n in
  t.tag.(i) <- k lor ((t.current + 1) lsl 8);
  t.n <- i + 1;
  t.current <- i;
  t.t0.(i) <- now_ns ();
  i

let kind_of t i = t.tag.(i) land 0xff
let parent t i = (t.tag.(i) lsr 8) - 1

let leave t i =
  t.t1.(i) <- now_ns ();
  t.current <- parent t i

let with_ t k f =
  let i = enter t k in
  match f () with
  | v ->
      leave t i;
      v
  | exception e ->
      leave t i;
      raise e

let duration_ns t i = t.t1.(i) - t.t0.(i)

(* Self time per kind, in seconds: a span's duration minus the time its
   direct children cover. Spans nest on one thread, so the children of a
   span never overlap and their union is their sum. *)
let self_s t =
  let self = Array.make (Array.length t.names) 0 in
  for i = 0 to t.n - 1 do
    let d = duration_ns t i in
    let k = kind_of t i in
    self.(k) <- self.(k) + d;
    let p = parent t i in
    if p >= 0 then
      let pk = kind_of t p in
      self.(pk) <- self.(pk) - d
  done;
  Array.map (fun ns -> float_of_int ns /. 1e9) self

let calls t =
  let c = Array.make (Array.length t.names) 0 in
  for i = 0 to t.n - 1 do
    let k = kind_of t i in
    c.(k) <- c.(k) + 1
  done;
  c

(* Write every span to [path]: a text header with the kind names, then
   one little-endian record of four int64 per span (kind, parent,
   start_ns, end_ns), in start order. The request a span belongs to is
   its root ancestor. *)
let write t path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "perfbench-spans v1\n";
      Array.iteri (fun k name -> Printf.fprintf oc "kind %d %s\n" k name) t.names;
      Printf.fprintf oc "spans %d\n" t.n;
      let b = Buffer.create (1 lsl 16) in
      for i = 0 to t.n - 1 do
        Buffer.add_int64_le b (Int64.of_int (kind_of t i));
        Buffer.add_int64_le b (Int64.of_int (parent t i));
        Buffer.add_int64_le b (Int64.of_int t.t0.(i));
        Buffer.add_int64_le b (Int64.of_int t.t1.(i));
        if Buffer.length b >= 1 lsl 16 then begin
          Buffer.output_buffer oc b;
          Buffer.clear b
        end
      done;
      Buffer.output_buffer oc b)
