(* Benchmark entry point.

     main.exe --workload W --seed N --seconds S --trace 0|1
       runs one workload and ends its output with one JSON line:
       {"correct", "attempted", "failed", "metrics"}; end-to-end metrics
       with --trace 0, per-layer metrics with --trace 1.  Exits 1 when an
       output check fails.

     main.exe cluster SOCKDIR CTL CAPTURE [STATEDIR]
       is the cluster process the service workloads start. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload \
     mem-zipf|mem-uniform|durable-uniform|explore-flagship \
     --seed N --seconds S --trace 0|1";
  exit 2

let () =
  match Array.to_list Sys.argv with
  | [ _; "cluster"; sockdir; ctl; capture ] ->
    Cluster.serve ~sockdir ~statedir:None ~ctl ~capture:(int_of_string capture)
  | [ _; "cluster"; sockdir; ctl; capture; statedir ] ->
    Cluster.serve ~sockdir ~statedir:(Some statedir) ~ctl
      ~capture:(int_of_string capture)
  | _ :: args ->
    let workload = ref None and seed = ref None and seconds = ref None
    and trace = ref None in
    let rec parse = function
      | "--workload" :: w :: rest -> workload := Some w; parse rest
      | "--seed" :: s :: rest -> seed := int_of_string_opt s; parse rest
      | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
      | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
      | [] -> ()
      | _ -> usage ()
    in
    parse args;
    let seed, seconds, trace =
      match (!seed, !seconds, !trace) with
      | Some a, Some b, Some c when b > 0.0 -> (a, b, c)
      | _ -> usage ()
    in
    let r =
      match !workload with
      | Some "explore-flagship" -> Explorer.run ~seed ~seconds ~trace
      | Some w -> (
        match List.assoc_opt w Service.workloads with
        | Some p -> Service.run ~name:w ~p ~seed ~seconds ~trace
        | None -> usage ())
      | None -> usage ()
    in
    let metrics = if trace then r.Report.layers else r.Report.e2e in
    List.iter
      (fun (name, v, u) -> Printf.printf "%-36s %14.4f %s\n" name v u)
      metrics;
    Printf.printf "operations: %d attempted, %d failed\n" r.Report.attempted
      r.Report.failed;
    List.iteri
      (fun i e -> if i < 20 then Printf.printf "CHECK FAILED: %s\n" e)
      r.Report.errors;
    let nerr = List.length r.Report.errors in
    if nerr > 20 then Printf.printf "CHECK FAILED: ... %d findings in all\n" nerr;
    let bad_number =
      List.exists (fun (_, v, _) -> not (Float.is_finite v)) metrics
    in
    if bad_number then print_endline "CHECK FAILED: a metric is not a number";
    print_endline (Report.json ~trace r);
    exit (if r.Report.errors = [] && not bad_number then 0 else 1)
  | [] -> usage ()
