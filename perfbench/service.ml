(* The service workloads: one load process (this one: one thread,
   one connection per server) against a cluster process hosting all n
   servers on one event loop. *)

module R = Sb_sim.Runtime
module Sdk = Sb_service.Sdk
module Wire = Sb_service.Wire

type params = {
  keys : int;
  zipf : float;  (** 0 = uniform popularity. *)
  durable : bool;
  rate : float;  (** Fixed-rate phase, arrivals/s. *)
  inflight : int;  (** Saturation slots; also the open loop's slot bound. *)
  nominal_ops_s : float;
      (** Sizes the saturation phase: it runs [nominal_ops_s] x its
          share of [--seconds] operations, whatever the rate reached. *)
  segments : int;
      (** Each on a fresh cluster: set-ups, a fixed-rate phase, a
          saturation phase, storage stats and a read-back.  Spreading
          the timed phases over the run lets each figure sample the
          host's drifting speed over the whole run, not one stretch. *)
  setups : int;
      (** Cluster set-ups per segment, the last one kept; [setup_s] is
          the median over all of the run's set-ups. *)
  restarts : int;
      (** Kill/restart cycles over the state directory; [recover_s] is
          their median (durable workloads only). *)
  restart_reads : int;  (** Keys read back after each but the last restart. *)
}

let workloads =
  [
    ( "mem-zipf",
      {
        keys = 1000;
        zipf = 0.99;
        durable = false;
        rate = 1000.0;
        inflight = 256;
        nominal_ops_s = 9000.0;
        segments = 8;
        setups = 2;
        restarts = 0;
        restart_reads = 0;
      } );
    ( "mem-uniform",
      {
        keys = 4000;
        zipf = 0.0;
        durable = false;
        rate = 1000.0;
        inflight = 256;
        nominal_ops_s = 10500.0;
        segments = 8;
        setups = 2;
        restarts = 0;
        restart_reads = 0;
      } );
    ( "durable-uniform",
      {
        keys = 1000;
        zipf = 0.0;
        durable = true;
        rate = 100.0;
        inflight = 64;
        nominal_ops_s = 450.0;
        segments = 1;
        setups = 3;
        restarts = 9;
        restart_reads = 100;
      } );
  ]

let batch_max = 16
let flush_ms = 1
let write_ratio = 0.5
let fixed_share = 0.5  (* of --seconds; the rest is the saturation phase *)
let sat_windows = 16
let p99_window = 1000

(* ---- inputs ---- *)

(* Key ranks [0, keys) with uniform or Zipfian popularity, drawn the
   way the SDK's open loop draws them (its sampler is internal to
   [Sdk]: sdk.mli does not export it). *)
let key_sampler ~keys ~zipf prng =
  if zipf <= 0.0 then fun () -> Sb_util.Prng.int prng keys
  else begin
    let cdf = Array.make keys 0.0 in
    let acc = ref 0.0 in
    for r = 0 to keys - 1 do
      acc := !acc +. (1.0 /. (float_of_int (r + 1) ** zipf));
      cdf.(r) <- !acc
    done;
    fun () ->
      let u = Sb_util.Prng.float prng !acc in
      let lo = ref 0 and hi = ref (keys - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) > u then hi := mid else lo := mid + 1
      done;
      !lo
  end

(* ---- the instrumented register ---- *)

type probe = {
  log : Values.log;
  obj0_ticket : (int, int) Hashtbl.t;
      (** Ticket of an open-loop write's first RMW on server 0 → write. *)
  mutable triggers : int;  (** RMWs issued (requests put to the SDK). *)
  mutable op_seq : int;
  mutable stamps : float array;
      (** Wall-clock completion times, in completion order, while the
          saturation phase runs; empty otherwise. *)
  mutable nstamps : int;
}

let stamp probe =
  if probe.nstamps < Array.length probe.stamps then begin
    probe.stamps.(probe.nstamps) <- Unix.gettimeofday ();
    probe.nstamps <- probe.nstamps + 1
  end

(* Run a register body, passing its effects on to the SDK and noting
   the ticket of every RMW it triggers.  Each resumption re-points the
   tracer at this operation. *)
let intercept probe ~span ~op ~on_trigger body =
  Effect.Deep.match_with body ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | R.Trigger (obj, _, _, _, _) ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                match (Effect.perform e : int) with
                | t ->
                  probe.triggers <- probe.triggers + 1;
                  on_trigger obj t;
                  Span.resume span op;
                  Effect.Deep.continue k t
                | exception ex -> Effect.Deep.discontinue k ex)
          | R.Await _ ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                match Effect.perform e with
                | r ->
                  Span.resume span op;
                  Effect.Deep.continue k r
                | exception ex -> Effect.Deep.discontinue k ex)
          | _ -> None);
    }

let instrument probe (alg : R.algorithm) =
  let next_op () =
    probe.op_seq <- probe.op_seq + 1;
    probe.op_seq
  in
  {
    alg with
    R.write =
      (fun ctx v ->
        let w = Values.number v in
        let op = next_op () in
        let span = Span.op_span "sdk.write" op in
        Hashtbl.replace probe.log.Values.invoked w (Values.tick probe.log);
        intercept probe ~span ~op
          ~on_trigger:(fun obj t ->
            if obj = 0 then Hashtbl.replace probe.obj0_ticket t w)
          (fun () -> alg.R.write ctx v);
        Hashtbl.replace probe.log.Values.acked w (Values.tick probe.log);
        stamp probe;
        Span.finish span);
    read =
      (fun ctx ->
        let op = next_op () in
        let span = Span.op_span "sdk.read" op in
        let r =
          intercept probe ~span ~op ~on_trigger:(fun _ _ -> ()) (fun () ->
              alg.R.read ctx)
        in
        stamp probe;
        Span.finish span;
        r);
  }

let wrap_codec (c : Sb_codec.Codec.t) =
  {
    c with
    Sb_codec.Codec.encode =
      (fun v i -> Span.span "codec.encode" (fun () -> c.Sb_codec.Codec.encode v i));
    decode =
      (fun blocks -> Span.span "codec.decode" (fun () -> c.Sb_codec.Codec.decode blocks));
  }

(* ---- the client's frame hook ---- *)

type capture = {
  mutable on : bool;  (** Keep copies of outbound frames. *)
  mutable only0 : bool;  (** ... only those to server 0. *)
  mutable cap : int;
  mutable frames : (int * bytes) list;  (** Newest first. *)
  mutable bytes : int;  (** Every outbound frame's size, summed. *)
}

let client_hooks cap =
  {
    Sb_service.Netfault.none with
    nf_frame =
      (fun ~server b ->
        cap.bytes <- cap.bytes + Bytes.length b;
        if cap.on && cap.cap > 0 && ((not cap.only0) || server = 0) then begin
          cap.cap <- cap.cap - 1;
          cap.frames <- (server, Bytes.copy b) :: cap.frames
        end;
        Sb_service.Netfault.Pass);
  }

let decode_frame b =
  Wire.decode_msg (Bytes.sub b 4 (Bytes.length b - 4))

let requests_of b =
  match decode_frame b with
  | Ok (Wire.Request rq) -> [ rq ]
  | Ok (Wire.Req_batch rqs) -> rqs
  | _ -> []

(* ---- statistics ---- *)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1)))

(* ---- the run ---- *)


let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let run ~name ~(p : params) ~seed ~seconds ~trace =
  if trace then Span.enable ();
  let t_run = Unix.gettimeofday () in
  let note fmt =
    Printf.ksprintf
      (fun s -> Printf.eprintf "[%7.2fs] %s\n%!" (Unix.gettimeofday () -. t_run) s)
      fmt
  in
  let tmp = Printf.sprintf ".perfbench_tmp/%d" (Unix.getpid ()) in
  rm_rf tmp;
  mkdir_p tmp;
  let sockdir = Filename.concat tmp "s" in
  mkdir_p sockdir;
  let statedir = Filename.concat tmp "state" in
  let ctl = Filename.concat tmp "ctl" in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let attempted = ref 0 and failed = ref 0 in
  let account (r : Sdk.report) =
    attempted := !attempted + r.Sdk.ops_invoked;
    failed :=
      !failed + (r.Sdk.ops_invoked - r.Sdk.ops_completed);
    if r.Sdk.timed_out then fail "an SDK run hit its deadline"
  in
  let prng = Sb_util.Prng.create seed in
  let sample_key = key_sampler ~keys:p.keys ~zipf:p.zipf (Sb_util.Prng.split prng) in
  let op_prng = Sb_util.Prng.split prng in
  let probe =
    {
      log = Values.create_log ();
      obj0_ticket = Hashtbl.create 4096;
      triggers = 0;
      op_seq = 0;
      stamps = [||];
      nstamps = 0;
    }
  in
  let algorithm, _ =
    Cluster.register_config ~wrap:(if trace then wrap_codec else Fun.id) ()
  in
  let algorithm = instrument probe algorithm in
  let cap = { on = false; only0 = true; cap = 0; frames = []; bytes = 0 } in
  let hooks = client_hooks cap in
  let sdk_cfg =
    {
      (Sdk.default_config ~n:Cluster.n ~f:Cluster.f ~sockdir) with
      Sdk.batch_max;
      flush_ms;
      sample_every_ms = 20;
      deadline_ms = 90_000;
    }
  in
  let sdk_seed = ref seed in
  (* The daemon's at-most-once table is keyed by (key, client, ticket)
     and every SDK run numbers its tickets from 1, so two runs against
     one cluster incarnation must use disjoint client ids: the open
     loop takes [0, inflight), each keyed run the next unused range
     (its lower slots stay empty).  A cluster incarnation sees at most
     three keyed runs (populate, saturation, read-back), so the empty
     slots the SDK scans number at most a few hundred, the same in
     every run. *)
  let next_cid = ref p.inflight in
  let keyed workload =
    let slots = Array.length workload in
    let workload = Array.append (Array.make !next_cid []) workload in
    next_cid := !next_cid + slots;
    incr sdk_seed;
    let r = Sdk.run_keyed ~hooks ~algorithm ~seed:!sdk_seed ~workload sdk_cfg in
    account r;
    r
  in
  let key r = Sdk.key_name r in
  let spread_over slots ops =
    let a = Array.make slots [] in
    List.iteri (fun i op -> a.(i mod slots) <- op :: a.(i mod slots)) ops;
    Array.map List.rev a
  in
  let write_of k =
    let w = Values.fresh probe.log in
    Hashtbl.replace probe.log.Values.key w k;
    (k, Sb_sim.Trace.Write (Values.make w))
  in
  (* Read every key in [ks] once; returns (key, write number) pairs and
     flags values that are not well-formed writes. *)
  let read_back ks =
    let slots = min 64 (max 1 (List.length ks)) in
    let wl = spread_over slots (List.map (fun k -> (k, Sb_sim.Trace.Read)) ks) in
    let r = keyed wl in
    (* Slot [c]'s operations run in order: its j-th invocation is
       wl.(c)'s j-th operation. *)
    let base = !next_cid - slots in
    let pending = Array.map (fun l -> ref l) wl in
    let op_key = Hashtbl.create 1024 in
    let out = ref [] in
    List.iter
      (function
        | Sb_sim.Trace.Invoke { op; client; _ } -> (
          let slot = pending.(client - base) in
          match !slot with
          | (k, _) :: rest ->
            slot := rest;
            Hashtbl.replace op_key op k
          | [] -> ())
        | Sb_sim.Trace.Return { op; result; _ } -> (
          let k = Hashtbl.find op_key op in
          match Option.map Values.parse result with
          | Some (Some w) -> out := (k, w) :: !out
          | Some None -> fail "read of %s returned a torn or foreign value" k
          | None -> fail "read of %s returned no value" k)
        | _ -> ())
      (Sb_sim.Trace.events r.Sdk.trace);
    !out
  in
  let populate () =
    let ops = List.init p.keys (fun r -> write_of (key r)) in
    ignore (keyed (spread_over (min 64 p.keys) ops))
  in
  let start_cluster ~capture =
    next_cid := p.inflight;
    Cluster.spawn ~sockdir
      ~statedir:(if p.durable then Some statedir else None)
      ~ctl ~capture
  in
  let capture_daemon = if trace then 20_000 else 0 in
  let stats_round () =
    Sdk.fetch_stats ~sockdir ~servers:(List.init Cluster.n Fun.id) ()
  in
  let sum f l = List.fold_left (fun a x -> a + f x) 0 l in
  let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
  let nkeys = p.keys + Cluster.shards in
  let m = (2 * Cluster.f) + Cluster.k in
  let d = Values.d_bits in
  let ceiling = min ((p.inflight + 1) * m) (m * m) * d / Cluster.k in
  let floor = m * d / Cluster.k in
  let all_keys = List.init p.keys key in
  let check_all ~writes_of ~cut got =
    List.iter
      (fun (k, w) ->
        match Values.check_read probe.log ~writes_of ~cut k w with
        | None -> ()
        | Some why -> fail "%s" why)
      got
  in
  (* Every set-up and timed phase starts from the same load-process heap
     state: what an earlier phase left behind is collected first, outside
     the timed interval. *)
  let settle () = Gc.full_major () in
  let segs = float_of_int p.segments in
  let fixed_ms = int_of_float (seconds *. fixed_share *. 1000.0 /. segs) in
  let per_slot =
    max 1
      (int_of_float
         (Float.ceil
            (p.nominal_ops_s *. seconds *. (1.0 -. fixed_share)
            /. (segs *. float_of_int p.inflight))))
  in
  (* Figures gathered over the segments. *)
  let setup_times = ref [] and lats = ref [] and service_ms = ref [] in
  let rates = ref [] and peaks = ref [] and quiescents = ref [] and rsss = ref [] in
  let key_peak_bits = ref 0 in
  let fixed_ops = ref 0 and fixed_triggers = ref 0 and fixed_frames = ref 0 in
  let sat_ops = ref 0 and sat_cpu = ref 0.0 and sat_dcpu = ref 0.0 in
  let frames_sent = ref 0 and retrans = ref 0 in
  let applied = ref 0 and dedups = ref 0 in
  let wire_bytes = ref 0 and daemon_frames = ref 0 in
  let io_bytes = ref 0 and user_bytes = ref 0 in
  let open_frames = ref [] and daemon_captured = ref [] in
  let kept = ref None in
  for seg = 1 to p.segments do
    (* ---- set-up, [p.setups] times; the last cluster is kept ---- *)
    let cluster = ref None in
    for i = 1 to p.setups do
      rm_rf statedir;
      if p.durable then mkdir_p statedir;
      (* Only the kept set-up's writes stay in the log. *)
      Hashtbl.reset probe.log.Values.key;
      Hashtbl.reset probe.log.Values.invoked;
      Hashtbl.reset probe.log.Values.acked;
      settle ();
      let c = start_cluster ~capture:capture_daemon in
      Cluster.wait_listening ~sockdir c;
      populate ();
      let t = Unix.gettimeofday () -. c.Cluster.started in
      note "segment %d set-up %d done in %.3f s%s" seg i t
        (if p.durable then
           Printf.sprintf ", %d MB written"
             (Cluster.io_field c.Cluster.pid "write_bytes" / 1_000_000)
         else "");
      setup_times := t :: !setup_times;
      if i < p.setups then Cluster.stop c else cluster := Some c
    done;
    let c = Option.get !cluster in
    let stats0 = stats_round () in
    let io0 = if p.durable then Cluster.io_field c.Cluster.pid "write_bytes" else 0 in
    let writes0 = probe.log.Values.next in
    (* Frame and byte counters over the timed phases only (traced run). *)
    let dctr0 = if trace then Some (Cluster.dump c) else None in
    let cap_bytes0 = cap.bytes in
    (* ---- fixed-rate phase (open loop) ---- *)
    let base = probe.log.Values.next - 1 in
    cap.on <- true;
    cap.only0 <- not trace;
    cap.cap <- (if trace then 50_000 else max_int);
    (* Tickets restart at 1 in every SDK run: only the open loop's own
       may be joined with its frames. *)
    Hashtbl.reset probe.obj0_ticket;
    let triggers0 = probe.triggers in
    let span_mark = Span.count () in
    settle ();
    incr sdk_seed;
    let ro =
      Sdk.run_open ~hooks ~algorithm ~seed:!sdk_seed
        {
          Sdk.ol_rate = p.rate;
          ol_duration_ms = fixed_ms;
          ol_keys = p.keys;
          ol_zipf = p.zipf;
          ol_write_ratio = write_ratio;
          ol_max_inflight = p.inflight;
          ol_value = (fun i -> Values.make (base + i));
        }
        sdk_cfg
    in
    account ro;
    note "segment %d fixed-rate phase: %d ops, p50 %.3f ms" seg ro.Sdk.ops_completed
      (percentile (Array.of_list ro.Sdk.latencies_ms) 50.0);
    cap.on <- false;
    let frames = cap.frames in
    cap.frames <- [];
    (* The open loop's keys, from its request frames to server 0. *)
    let max_w = ref base in
    Hashtbl.iter (fun _ w -> if w > !max_w then max_w := w) probe.obj0_ticket;
    Hashtbl.iter (fun w _ -> if w > !max_w then max_w := w) probe.log.Values.invoked;
    probe.log.Values.next <- !max_w + 1;
    List.iter
      (fun (server, b) ->
        if server = 0 then
          List.iter
            (fun rq ->
              match Hashtbl.find_opt probe.obj0_ticket rq.Wire.rq_ticket with
              | Some w when w > base ->
                Hashtbl.replace probe.log.Values.key w rq.Wire.rq_key
              | _ -> ())
            (requests_of b))
      frames;
    for w = base + 1 to !max_w do
      if Hashtbl.mem probe.log.Values.invoked w && not (Hashtbl.mem probe.log.Values.key w)
      then fail "open-loop write %d: no request frame names its key" w
    done;
    if trace then open_frames := List.rev_append frames !open_frames;
    lats := ro.Sdk.latencies_ms :: !lats;
    fixed_ops := !fixed_ops + ro.Sdk.ops_completed;
    fixed_triggers := !fixed_triggers + (probe.triggers - triggers0);
    fixed_frames := !fixed_frames + ro.Sdk.frames_sent;
    (* Time inside the register bodies of the fixed-rate phase. *)
    (let upto = Span.count () in
     service_ms :=
       Span.durations ~from:span_mark ~upto "sdk.write"
       :: Span.durations ~from:span_mark ~upto "sdk.read"
       :: !service_ms);
    (* ---- saturation phase: one closed-loop run of [inflight] slots ---- *)
    let ops =
      List.init (p.inflight * per_slot) (fun _ ->
          let k = key (sample_key ()) in
          if Sb_util.Prng.float op_prng 1.0 < write_ratio then write_of k
          else (k, Sb_sim.Trace.Read))
    in
    let wl = spread_over p.inflight ops in
    settle ();
    let cpu0 = cpu () and dcpu0 = Cluster.cpu_s c.Cluster.pid in
    probe.stamps <- Array.make (p.inflight * per_slot) 0.0;
    probe.nstamps <- 0;
    let t_sat = Unix.gettimeofday () in
    let rs = keyed wl in
    sat_cpu := !sat_cpu +. (cpu () -. cpu0);
    sat_dcpu := !sat_dcpu +. (Cluster.cpu_s c.Cluster.pid -. dcpu0);
    sat_ops := !sat_ops + rs.Sdk.ops_completed;
    (* The rate of each of [sat_windows] runs of consecutive completions,
       equal in number; the run's rate is the median over all segments'
       windows, so a stall of the host moves a window, not the figure. *)
    let stamps = Array.sub probe.stamps 0 probe.nstamps in
    probe.stamps <- [||];
    let per_window = max 1 (Array.length stamps / sat_windows) in
    let seg_rates =
      List.init (Array.length stamps / per_window) (fun i ->
          let t0 = if i = 0 then t_sat else stamps.((i * per_window) - 1) in
          float_of_int per_window /. (stamps.(((i + 1) * per_window) - 1) -. t0))
    in
    rates := seg_rates @ !rates;
    note "segment %d saturation phase: %d ops, window rates %s" seg
      rs.Sdk.ops_completed
      (String.concat " " (List.map (Printf.sprintf "%.0f") seg_rates));
    (match (dctr0, if trace then Some (Cluster.dump c) else None) with
     | Some d0, Some d1 ->
       wire_bytes := !wire_bytes + (d1.Cluster.bytes - d0.Cluster.bytes);
       daemon_frames := !daemon_frames + (d1.Cluster.frames - d0.Cluster.frames);
       daemon_captured := d1.Cluster.captured
     | _ -> ());
    wire_bytes := !wire_bytes + (cap.bytes - cap_bytes0);
    frames_sent := !frames_sent + ro.Sdk.frames_sent + rs.Sdk.frames_sent;
    retrans := !retrans + ro.Sdk.retransmissions + rs.Sdk.retransmissions;
    let peak_sampled = max ro.Sdk.peak_sampled_bits rs.Sdk.peak_sampled_bits in
    (* ---- storage after the timed phases ---- *)
    let stats1 = stats_round () in
    if List.length stats1 < Cluster.n then fail "only %d servers answered stats" (List.length stats1);
    applied := !applied + sum (fun x -> x.Wire.st_applied) stats1 - sum (fun x -> x.Wire.st_applied) stats0;
    dedups := !dedups + sum (fun x -> x.Wire.st_dedup_hits) stats1 - sum (fun x -> x.Wire.st_dedup_hits) stats0;
    let peak_bits = max peak_sampled (sum (fun s -> s.Wire.st_max_bits) stats1) in
    let key_peak =
      sum
        (fun s ->
          List.fold_left (fun a ss -> max a ss.Wire.ss_max_key_bits) 0 s.Wire.st_shards)
        stats1
    in
    if key_peak > ceiling then
      fail "per-key peak %d bits exceeds the Theorem 2 ceiling %d" key_peak ceiling;
    if peak_bits > nkeys * ceiling then
      fail "fleet peak %d bits exceeds %d keys x ceiling %d" peak_bits nkeys ceiling;
    key_peak_bits := max !key_peak_bits key_peak;
    peaks := float_of_int peak_bits /. float_of_int (nkeys * d) :: !peaks;
    (* ---- read-back of every key ---- *)
    let writes_of = Values.by_key probe.log in
    let cut = Values.tick probe.log in
    let got = read_back all_keys in
    if List.length got <> p.keys then fail "read-back returned %d of %d keys" (List.length got) p.keys;
    check_all ~writes_of ~cut got;
    let stats2 = stats_round () in
    let quiescent_bits = sum (fun s -> s.Wire.st_storage_bits) stats2 in
    if quiescent_bits > 2 * nkeys * floor then
      fail "quiescent storage %d bits exceeds 2x the GC floor %d" quiescent_bits (nkeys * floor);
    if quiescent_bits < nkeys * floor then
      fail "quiescent storage %d bits is below the floor %d: state was lost" quiescent_bits (nkeys * floor);
    quiescents := float_of_int quiescent_bits /. float_of_int (nkeys * d) :: !quiescents;
    rsss := Cluster.peak_rss_mb c.Cluster.pid :: !rsss;
    if p.durable then begin
      let io1 = Cluster.io_field c.Cluster.pid "write_bytes" in
      note "cluster process wrote %d MB" (io1 / 1_000_000);
      io_bytes := !io_bytes + (io1 - io0)
    end;
    user_bytes := !user_bytes + ((probe.log.Values.next - writes0) * Values.value_bytes);
    note "segment %d read-back done" seg;
    if seg < p.segments then Cluster.stop c else kept := Some (c, writes_of)
  done;
  let c, writes_of = Option.get !kept in
  let setup_s = median (Array.of_list !setup_times) in
  let lat = Array.of_list (List.concat (List.rev !lats)) in
  let p50 = percentile lat 50.0 in
  (* The 99th percentile of each window of [p99_window] consecutive
     completions (each has ten samples above its p99), then the median
     over windows: one stalled second moves one window, not the run's
     figure. *)
  let p99 =
    let nw = Array.length lat / p99_window in
    median
      (Array.init (max 1 nw) (fun i ->
           if nw = 0 then percentile lat 99.0
           else percentile (Array.sub lat (i * p99_window) p99_window) 99.0))
  in
  (* The tail is printed, not gated: it does not repeat within any
     bound on this kind of host (see README). *)
  Printf.printf
    "fixed-rate latency: %d samples, p50 %.3f ms, p99 %.3f ms (median of \
     %d-sample windows; %.3f ms over the whole phase)\n"
    (Array.length lat) p50 p99 p99_window (percentile lat 99.0);
  let ops_s = median (Array.of_list !rates) in
  let timed_ops = !fixed_ops + !sat_ops in
  (* ---- kill / restart cycles ---- *)
  let recover_times = ref [] in
  let prev = ref c in
  for i = 1 to p.restarts do
    let kill_at = Values.tick probe.log in
    Cluster.kill !prev;
    let c' = start_cluster ~capture:0 in
    Cluster.wait_listening ~sockdir c';
    let probe_key = key (Sb_util.Prng.int op_prng p.keys) in
    let first = read_back [ probe_key ] in
    recover_times := (Unix.gettimeofday () -. c'.Cluster.started) :: !recover_times;
    let ks =
      if i = p.restarts then all_keys
      else List.init p.restart_reads (fun _ -> key (Sb_util.Prng.int op_prng p.keys))
    in
    check_all ~writes_of ~cut:kill_at (first @ read_back ks);
    prev := c'
  done;
  Cluster.stop !prev;
  note "restarts done";
  let recover_s = median (Array.of_list !recover_times) in
  note "restart times (ms): %s"
    (String.concat " " (List.rev_map (fun t -> Printf.sprintf "%.1f" (t *. 1000.0)) !recover_times));
  (* ---- per-layer figures (traced run) ---- *)
  let layers =
    if not trace then []
    else begin
      let summary = Span.summary () in
      Span.print_summary summary;
      Printf.printf "%d spans recorded\n" (Span.count ());
      let per name f = match Hashtbl.find_opt summary name with Some x -> f x | None -> 0.0 in
      let mean_us name = per name (fun (n, tot, _) -> tot /. float_of_int n *. 1e6) in
      let calls name = per name (fun (n, _, _) -> float_of_int n) in
      let all_ops = float_of_int (probe.op_seq) in
      (* Wire and server-core replays over the captured frames. *)
      let frames = List.rev_append !open_frames !daemon_captured in
      let dec_t = ref 0.0 and enc_t = ref 0.0 and nframes = ref 0 in
      let cores =
        Array.init Cluster.n (fun i -> Sb_service.Server_core.create (algorithm.R.init_obj i))
      in
      let apply_t = ref 0.0 and applies = ref 0 in
      List.iter
        (fun (server, b) ->
          let body = Bytes.sub b 4 (Bytes.length b - 4) in
          let t0 = Unix.gettimeofday () in
          match Wire.decode_msg body with
          | Error _ -> ()
          | Ok msg ->
            let t1 = Unix.gettimeofday () in
            ignore (Wire.encode_msg msg);
            let t2 = Unix.gettimeofday () in
            Span.record "wire.decode" t0 t1;
            Span.record "wire.encode" t1 t2;
            dec_t := !dec_t +. (t1 -. t0);
            enc_t := !enc_t +. (t2 -. t1);
            incr nframes;
            let rqs = match msg with Wire.Request rq -> [ rq ] | Wire.Req_batch l -> l | _ -> [] in
            List.iter
              (fun rq ->
                let t0 = Unix.gettimeofday () in
                ignore
                  (Sb_service.Server_core.handle_key cores.(server) ~key:rq.Wire.rq_key
                     ~client:rq.Wire.rq_client ~ticket:rq.Wire.rq_ticket
                     ~nature:rq.Wire.rq_nature (Sb_sim.Rmwdesc.apply rq.Wire.rq_desc));
                let t1 = Unix.gettimeofday () in
                Span.record "server_core.apply" t0 t1;
                apply_t := !apply_t +. (t1 -. t0);
                incr applies)
              rqs)
        frames;
      let per_frame t = if !nframes = 0 then 0.0 else t /. float_of_int !nframes *. 1e6 in
      (* Persist replays over the final state directory. *)
      let save_ms, load_ms, disk_x =
        if not p.durable then (0.0, 0.0, 0.0)
        else begin
          let files =
            Sys.readdir statedir |> Array.to_list
            |> List.filter (fun f -> Filename.check_suffix f ".state")
          in
          let disk = List.fold_left (fun a f -> a + (Unix.stat (Filename.concat statedir f)).Unix.st_size) 0 files in
          let out = Filename.concat tmp "replay" in
          mkdir_p out;
          let lt = ref [] and st = ref [] in
          List.iter
            (fun fl ->
              let path = Filename.concat statedir fl in
              let t0 = Unix.gettimeofday () in
              let res = Sb_service.Daemon.load_state ~max_version:Wire.version path in
              let t1 = Unix.gettimeofday () in
              Span.record "persist.load" t0 t1;
              lt := (t1 -. t0) :: !lt;
              match res with
              | Sb_service.Daemon.Loaded pst ->
                let t0 = Unix.gettimeofday () in
                Sb_service.Daemon.save_state ~version:Wire.version (Filename.concat out fl) pst;
                let t1 = Unix.gettimeofday () in
                Span.record "persist.save" t0 t1;
                st := (t1 -. t0) :: !st
              | _ -> fail "persist replay: %s did not load" fl)
            files;
          ( median (Array.of_list !st) *. 1000.0,
            median (Array.of_list !lt) *. 1000.0,
            float_of_int (8 * disk) /. float_of_int (nkeys * d) )
        end
      in
      let tops = float_of_int timed_ops in
      let per_op x = float_of_int x /. tops in
      let per_sat x = x /. float_of_int (max 1 !sat_ops) *. 1e6 in
      [
        ("sdk.cpu_us_per_op", per_sat !sat_cpu, "us");
        ( "sdk.service_ms_p50",
          median (Array.map (fun s -> s *. 1000.0) (Array.concat !service_ms)),
          "ms" );
        ( "sdk.reqs_per_frame",
          float_of_int !fixed_triggers /. float_of_int (max 1 !fixed_frames),
          "count" );
        ("sdk.frames_per_op", per_op !frames_sent, "count");
        ("sdk.retransmits_per_kop", per_op !retrans *. 1000.0, "count");
        ("codec.encode_us", mean_us "codec.encode", "us");
        ("codec.decode_us", mean_us "codec.decode", "us");
        ("codec.calls_per_op", (calls "codec.encode" +. calls "codec.decode") /. all_ops, "count");
        ("wire.decode_us", per_frame !dec_t, "us");
        ("wire.encode_us", per_frame !enc_t, "us");
        ("wire.bytes_per_op", per_op !wire_bytes, "B");
        ("daemon.cpu_us_per_op", per_sat !sat_dcpu, "us");
        ("daemon.frames_per_op", per_op !daemon_frames, "count");
        ("server_core.applies_per_op", per_op !applied, "count");
        ("server_core.dedup_hits_per_kop", per_op !dedups *. 1000.0, "count");
        ("server_core.apply_us", (if !applies = 0 then 0.0 else !apply_t /. float_of_int !applies *. 1e6), "us");
        ("storage.hot_key_peak_x", float_of_int !key_peak_bits /. float_of_int d, "D");
        ("trace.ops_s", ops_s, "1/s");
        ("trace.p50_ms", p50, "ms");
      ]
      @
      if not p.durable then []
      else
        [
        ("persist.write_bytes_per_user_byte", float_of_int !io_bytes /. float_of_int (max 1 !user_bytes), "ratio");
        ("persist.save_ms_per_shard", save_ms, "ms");
        ("persist.load_ms_per_shard", load_ms, "ms");
        ("persist.disk_x", disk_x, "D");
        ]
    end
  in
  if trace then Span.write_out (Printf.sprintf ".perfbench_tmp/spans-%s.txt" name);
  rm_rf tmp;
  {
    Report.attempted = !attempted;
    failed = !failed;
    errors = List.rev !errors;
    e2e =
      [
        ("setup_s", setup_s, "s");
        ("p50_ms", p50, "ms");
        ("ops_s", ops_s, "1/s");
        ("peak_storage_x", median (Array.of_list !peaks), "D");
        ("gc_storage_x", median (Array.of_list !quiescents), "D");
        ("rss_mb", median (Array.of_list !rsss), "MB");
      ]
      @ if p.restarts = 0 then [] else [ ("recover_s", recover_s, "s") ];
    layers;
  }
