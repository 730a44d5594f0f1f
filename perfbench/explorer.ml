(* The explore-flagship workload: exhaustive DPOR over the litmus
   acceptance space (abd, 2 writers x 1 reader, f = 1) on one domain per
   core, then the seeded abd-broken control on the same space.  No
   sockets, no disk: the checking harness alone. *)

module E = Sb_modelcheck.Explore

let value_bytes = Sb_experiments.Experiments.default_value_bytes

let space ~seed ~make ~check =
  let f = 1 in
  let n = (2 * f) + 1 in
  let cfg =
    { Sb_registers.Common.n; f; codec = Sb_codec.Codec.replication ~value_bytes ~n }
  in
  let workload =
    Sb_experiments.Workloads.writers_and_readers ~value_bytes ~writers:2
      ~writes_each:1 ~readers:1 ~reads_each:1
  in
  E.config ~seed ~algorithm:(make cfg) ~n ~f ~workload
    ~initial:(Bytes.make value_bytes '\000') ~check ()

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let alloc_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) *. 8.0


let run ~seed ~seconds ~trace =
  let jobs = Domain.recommended_domain_count () in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* The history checker, timed from outside when tracing: each domain
     adds its own nanoseconds, so no span buffer is shared. *)
  let check_ns = Atomic.make 0 and checks = Atomic.make 0 in
  let check h =
    if not trace then Sb_spec.Regularity.check_weak h
    else begin
      let t0 = Unix.gettimeofday () in
      let v = Sb_spec.Regularity.check_weak h in
      ignore
        (Atomic.fetch_and_add check_ns
           (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9)));
      Atomic.incr checks;
      v
    end
  in
  let cfg = space ~seed ~make:Sb_registers.Abd.make ~check in
  let schedules = ref 0 and wall = ref 0.0 and rounds = ref 0 in
  let transitions = ref 0 and replayed = ref 0 and sleeps = ref 0 in
  let cpu0 = cpu () and alloc0 = alloc_bytes () in
  let t_start = Unix.gettimeofday () in
  let continue_ () =
    !rounds = 0
    || Unix.gettimeofday () -. t_start +. (!wall /. float_of_int !rounds) <= seconds
  in
  while continue_ () do
    let t0 = Unix.gettimeofday () in
    let o = Sb_parallel.Pexplore.explore ~jobs cfg in
    wall := !wall +. (Unix.gettimeofday () -. t0);
    incr rounds;
    let s = o.E.stats in
    schedules := !schedules + s.E.schedules;
    transitions := !transitions + s.E.transitions;
    replayed := !replayed + s.E.replayed_transitions;
    sleeps := !sleeps + s.E.sleep_skips;
    if s.E.violations <> 0 || o.E.first_violation <> None then
      fail "abd flagship: %d violation(s) on a correct register" s.E.violations;
    if not o.E.complete then fail "abd flagship: exploration incomplete"
  done;
  let cpu_used = cpu () -. cpu0 and alloc = alloc_bytes () -. alloc0 in
  (* The seeded control must be refuted. *)
  let control =
    Sb_parallel.Pexplore.explore ~jobs
      (space ~seed ~make:(Sb_registers.Abd.make_broken ~quorum_slack:1)
         ~check:Sb_spec.Regularity.check_weak)
  in
  if control.E.first_violation = None then
    fail "abd-broken control: no violation found";
  let rss_mb =
    float_of_int (Cluster.field_kb "/proc/self/status" "VmHWM") /. 1024.0
  in
  let checks_n = Atomic.get checks in
  let check_s = float_of_int (Atomic.get check_ns) /. 1e9 in
  let executed = float_of_int (!transitions + !replayed) in
  {
    Report.attempted = !schedules + control.E.stats.E.schedules;
    failed = 0;
    errors = List.rev !errors;
    e2e =
      [
        ("schedules_s", float_of_int !schedules /. !wall, "1/s");
        ("rss_mb", rss_mb, "MB");
      ];
    layers =
      (if not trace then []
       else
         [
           ("explore.transitions", float_of_int !transitions /. float_of_int !rounds, "count");
           ("explore.replays_per_transition", float_of_int !replayed /. float_of_int (max 1 !transitions), "count");
           ("explore.sleep_prunes", float_of_int !sleeps /. float_of_int !rounds, "count");
           ("explore.alloc_gb", alloc /. float_of_int !rounds /. 1e9, "GB");
           ("explore.parallel_eff", cpu_used /. (!wall *. float_of_int jobs), "ratio");
           ("runtime.us_per_transition", (cpu_used -. check_s) /. executed *. 1e6, "us");
           ("spec.check_us", (if checks_n = 0 then 0.0 else check_s /. float_of_int checks_n *. 1e6), "us");
           ("trace.schedules_s", float_of_int !schedules /. !wall, "1/s");
         ]);
  }
