(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent span, op id).  Spans are kept in
   growable arrays while the run goes and written out once at the end;
   nothing is recorded unless [enable] was called, so the untraced runs
   that produce the end-to-end metrics pay one flag test per call site.

   Register operations run as SDK fibers that suspend at every RMW
   await, so a plain call stack cannot say which operation a codec call
   belongs to.  The operation wrapper calls [resume] each time its fiber
   is resumed; spans opened before the next suspension take that
   operation's span as parent. *)

let on = ref false
let enable () = on := true
let now = Unix.gettimeofday

type t = {
  mutable len : int;
  mutable names : string array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable ops : int array;
}

let buf =
  {
    len = 0;
    names = Array.make 1024 "";
    starts = Array.make 1024 0.0;
    stops = Array.make 1024 0.0;
    parents = Array.make 1024 (-1);
    ops = Array.make 1024 0;
  }

(* The span new spans hang under, and the operation it belongs to. *)
let current = ref (-1)
let current_op = ref 0

let grow () =
  let cap = 2 * Array.length buf.names in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 buf.len;
    b
  in
  buf.names <- ext buf.names "";
  buf.starts <- ext buf.starts 0.0;
  buf.stops <- ext buf.stops 0.0;
  buf.parents <- ext buf.parents (-1);
  buf.ops <- ext buf.ops 0

(* Open a span; returns its id.  The caller closes it with [close]. *)
let open_ ?(op = !current_op) ?(parent = !current) name =
  if buf.len = Array.length buf.names then grow ();
  let id = buf.len in
  buf.len <- id + 1;
  buf.names.(id) <- name;
  buf.starts.(id) <- now ();
  buf.stops.(id) <- nan;
  buf.parents.(id) <- parent;
  buf.ops.(id) <- op;
  id

let close id = buf.stops.(id) <- now ()

(* Time [f ()] as a child of the current span. *)
let span name f =
  if not !on then f ()
  else begin
    let id = open_ name in
    let saved = !current in
    current := id;
    match f () with
    | r ->
      current := saved;
      close id;
      r
    | exception e ->
      current := saved;
      close id;
      raise e
  end

(* An operation's root span: it has no parent and is the parent of
   whatever runs while its fiber holds the CPU. *)
let op_span name op =
  if not !on then -1
  else begin
    let id = open_ ~op ~parent:(-1) name in
    current := id;
    current_op := op;
    id
  end

let resume id op =
  if !on then begin
    current := id;
    current_op := op
  end

let finish id = if !on && id >= 0 then close id

(* Record an already-measured interval (replays timed from outside). *)
let record name t0 t1 =
  if !on then begin
    let id = open_ ~op:0 ~parent:(-1) name in
    buf.starts.(id) <- t0;
    buf.stops.(id) <- t1
  end

let count () = buf.len

(* Per name: number of closed spans, summed duration and summed self
   time (duration minus the union of its children's intervals, which
   never overlap each other because children run on the parent's
   fiber). *)
let summary () =
  let child_time = Array.make buf.len 0.0 in
  for i = 0 to buf.len - 1 do
    let p = buf.parents.(i) in
    if p >= 0 && not (Float.is_nan buf.stops.(i)) then
      child_time.(p) <- child_time.(p) +. (buf.stops.(i) -. buf.starts.(i))
  done;
  let tbl = Hashtbl.create 16 in
  for i = 0 to buf.len - 1 do
    if not (Float.is_nan buf.stops.(i)) then begin
      let d = buf.stops.(i) -. buf.starts.(i) in
      let n, tot, self =
        Option.value (Hashtbl.find_opt tbl buf.names.(i)) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace tbl buf.names.(i)
        (n + 1, tot +. d, self +. Float.max 0.0 (d -. child_time.(i)))
    end
  done;
  tbl

let print_summary tbl =
  Printf.printf "%-20s %9s %12s %12s\n" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, (n, tot, self)) ->
      Printf.printf "%-20s %9d %12.1f %12.1f\n" name n (tot *. 1e3) (self *. 1e3))
    (List.sort compare (List.of_seq (Hashtbl.to_seq tbl)))

(* Durations of one span name, in seconds, among the spans opened
   between the marks [from] and [upto] (values of {!count}). *)
let durations ?(from = 0) ?(upto = max_int) name =
  let acc = ref [] in
  for i = min buf.len upto - 1 downto from do
    if buf.names.(i) = name && not (Float.is_nan buf.stops.(i)) then
      acc := (buf.stops.(i) -. buf.starts.(i)) :: !acc
  done;
  Array.of_list !acc

(* One line per span: name start end parent op (start/end in µs from
   the first span). *)
let write_out path =
  let oc = open_out path in
  let t0 = if buf.len > 0 then buf.starts.(0) else 0.0 in
  for i = 0 to buf.len - 1 do
    Printf.fprintf oc "%s %.1f %.1f %d %d\n" buf.names.(i)
      ((buf.starts.(i) -. t0) *. 1e6)
      ((buf.stops.(i) -. t0) *. 1e6)
      buf.parents.(i) buf.ops.(i)
  done;
  close_out oc
