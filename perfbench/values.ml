(* Self-describing values and the benchmark's own write log.

   Write number [w] (1-based, run-wide) always writes [make w]: a magic
   tag, [w] itself, and a body drawn from a PRNG seeded by [w].  A value
   read back is accepted only if it is byte-identical to [make w] for
   the [w] in its header, so a torn value (blocks of two writes mixed)
   or a foreign one never parses.  The all-zero initial value parses
   as write 0.

   The log records, per write, the key it went to and when its
   register body started and returned in this process, on a logical
   clock that ticks at every such event (the load process is one
   thread, so tick order is real-time order, whatever the wall clock
   does).  The open loop
   picks keys inside the SDK, so for its writes the key is learnt from
   the request frames (see [Service]). *)

let value_bytes = 1024
let d_bits = 8 * value_bytes
let magic = "PBv1"

let make w =
  let v = Bytes.make value_bytes '\000' in
  Bytes.blit_string magic 0 v 0 4;
  Bytes.set_int64_le v 4 (Int64.of_int w);
  let prng = Sb_util.Prng.create (0x9e3779b9 + w) in
  let i = ref 12 in
  while !i + 8 <= value_bytes do
    Bytes.set_int64_le v !i (Sb_util.Prng.bits64 prng);
    i := !i + 8
  done;
  v

(* Cheap header read, for the write wrapper on the hot path. *)
let number v =
  if Bytes.length v >= 12 && Bytes.sub_string v 0 4 = magic then
    Int64.to_int (Bytes.get_int64_le v 4)
  else 0

let is_initial v = Bytes.for_all (fun c -> c = '\000') v

(* [Some w] for a well-formed value of write [w] (0 = initial value). *)
let parse v =
  if Bytes.length v <> value_bytes then None
  else if is_initial v then Some 0
  else
    let w = number v in
    if w >= 1 && Bytes.equal v (make w) then Some w else None

type log = {
  mutable next : int;  (** The next write number to hand out. *)
  mutable clock : int;
  key : (int, string) Hashtbl.t;
  invoked : (int, int) Hashtbl.t;
  acked : (int, int) Hashtbl.t;
}

let create_log () =
  {
    next = 1;
    clock = 0;
    key = Hashtbl.create 4096;
    invoked = Hashtbl.create 4096;
    acked = Hashtbl.create 4096;
  }

let tick log =
  log.clock <- log.clock + 1;
  log.clock

let fresh log =
  let w = log.next in
  log.next <- w + 1;
  w

(* Writes per key, for the read-back checks. *)
let by_key log =
  let tbl = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun w k ->
      Hashtbl.replace tbl k
        (w :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
    log.key;
  tbl

(* Regularity of one quiescent read of [key] that returned write [w]
   ([None] = ok, else why not).  Every write to the key that returned
   before [cut] must be visible: [w] must be a write to this key, and no
   write to it may have started after [w] returned and itself returned
   before [cut] — that write would have superseded [w]. *)
let check_read log ~writes_of ~cut key w =
  let ws = Option.value (Hashtbl.find_opt writes_of key) ~default:[] in
  let acked_before w' =
    match Hashtbl.find_opt log.acked w' with Some t -> t <= cut | None -> false
  in
  if w = 0 then
    if List.exists acked_before ws then
      Some (Printf.sprintf "%s read the initial value after acknowledged writes" key)
    else None
  else
    match Hashtbl.find_opt log.key w with
    | None -> Some (Printf.sprintf "%s returned write %d, whose key is unknown" key w)
    | Some k when k <> key ->
      Some (Printf.sprintf "%s returned write %d of key %s" key w k)
    | Some _ -> (
      match Hashtbl.find_opt log.acked w with
      | None -> None (* in flight at the cut: concurrent, allowed *)
      | Some ack ->
        let newer =
          List.find_opt
            (fun w' ->
              w' <> w && acked_before w'
              && Hashtbl.find log.invoked w' > ack)
            ws
        in
        Option.map
          (fun w' ->
            Printf.sprintf "%s returned write %d, superseded by write %d" key w
              w')
          newer)
