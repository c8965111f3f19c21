(* In-memory span recorder for the benchmark's traced runs.

   A span is (name, start, end, parent, request id), times in
   monotonic nanoseconds. Spans live in preallocated int arrays so that
   recording allocates nothing; when the arrays are full further spans
   are counted as dropped rather than growing memory. They are written
   out once, when the run ends. *)

type t = {
  names : string array;
  name : int array;
  start : int array;
  stop : int array;
  parent : int array;  (* -1 for a root *)
  req : int array;
  mutable len : int;
  mutable current : int;  (* innermost open span, -1 when none *)
  mutable dropped : int;
}

let create ?(capacity = 1 lsl 18) names =
  { names;
    name = Array.make capacity 0;
    start = Array.make capacity 0;
    stop = Array.make capacity 0;
    parent = Array.make capacity (-1);
    req = Array.make capacity 0;
    len = 0;
    current = -1;
    dropped = 0;
  }

let length t = t.len
let dropped t = t.dropped

(* Whether another [n] spans still fit. *)
let has_room t n = t.len + n <= Array.length t.name

(* Open a span under the innermost open one; returns its handle, or -1
   when the recorder is full (the matching [leave] is then a no-op, and
   spans opened inside it become roots of their own). *)
let enter t ~name ~req ~now =
  if t.len = Array.length t.name then begin
    t.dropped <- t.dropped + 1;
    -1
  end
  else begin
    let i = t.len in
    t.len <- i + 1;
    t.name.(i) <- name;
    t.start.(i) <- now;
    t.stop.(i) <- now;
    t.parent.(i) <- t.current;
    t.req.(i) <- req;
    t.current <- i;
    i
  end

let leave t i ~now =
  if i >= 0 then begin
    t.stop.(i) <- now;
    t.current <- t.parent.(i)
  end

(* Self time of a span [start, stop]: its duration minus the part of
   it that its direct children cover. Children may overlap each other
   (concurrent work) and may stick out of the parent (clock skew); the
   covered part is the union of the children clipped to the parent. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max s start and e = min e stop in
        if e > s then Some (s, e) else None)
      children
    |> List.sort compare
  in
  let covered, last =
    List.fold_left
      (fun (acc, cur) (s, e) ->
        match cur with
        | None -> (acc, Some (s, e))
        | Some (cs, ce) ->
          if s <= ce then (acc, Some (cs, max ce e))
          else (acc + (ce - cs), Some (s, e)))
      (0, None) clipped
  in
  let covered =
    match last with None -> covered | Some (s, e) -> covered + (e - s)
  in
  stop - start - covered

type summary = {
  span : string;
  count : int;
  total_ns : int;  (* summed durations *)
  self_ns : int;  (* summed self times *)
}

(* Per-name totals over every recorded span, in name order. *)
let summarise t =
  let children = Array.make t.len [] in
  for i = t.len - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- (t.start.(i), t.stop.(i)) :: children.(p)
  done;
  let k = Array.length t.names in
  let count = Array.make k 0
  and total = Array.make k 0
  and self = Array.make k 0 in
  for i = 0 to t.len - 1 do
    let n = t.name.(i) in
    count.(n) <- count.(n) + 1;
    total.(n) <- total.(n) + (t.stop.(i) - t.start.(i));
    self.(n) <-
      self.(n) + self_time ~start:t.start.(i) ~stop:t.stop.(i) children.(i)
  done;
  List.init k (fun n ->
      { span = t.names.(n); count = count.(n); total_ns = total.(n);
        self_ns = self.(n) })
  |> List.filter (fun s -> s.count > 0)
  |> List.sort (fun a b -> compare a.span b.span)

(* One JSON object per span, times in nanoseconds relative to the
   first span's start. *)
let write_jsonl t path =
  let oc = open_out path in
  let t0 = if t.len > 0 then t.start.(0) else 0 in
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n"
      i t.names.(t.name.(i)) (t.start.(i) - t0) (t.stop.(i) - t0)
      t.parent.(i) t.req.(i)
  done;
  close_out oc
