(* The cluster process: this executable re-run as [main.exe cluster],
   hosting every server of the cluster on one event loop
   ([Daemon.run] over all server ids), plus the parent-side handle to
   start, probe, signal and kill it.

   The daemon's outbound frames pass a Netfault hook that counts them
   and, when asked, keeps copies for the traced run's wire and
   server-core replays.  On SIGUSR1 (and on exit) the process writes
   its counters and captured frames to [ctl]; the parent reads them
   back with [dump]. *)

type counters = {
  frames : int;  (** Frames the daemon sent. *)
  bytes : int;  (** Their total size. *)
  captured : (int * bytes) list;  (** (server, frame), oldest first. *)
}

let n = 4
let f = 1
let k = 2
let shards = 8

(* The register under test: the paper's adaptive algorithm over a
   Reed-Solomon k-of-n code with 1 KiB values. *)
let register_config ?(wrap = Fun.id) () =
  let codec =
    Sb_codec.Codec.rs_vandermonde ~value_bytes:Values.value_bytes ~k ~n
  in
  let cfg = { Sb_registers.Common.n; f; codec = wrap codec } in
  (Sb_registers.Adaptive.make cfg, cfg)

let write_ctl ctl c =
  let tmp = ctl ^ ".tmp" in
  let oc = open_out_bin tmp in
  Marshal.to_channel oc (c : counters) [];
  close_out oc;
  Sys.rename tmp ctl

(* Entry point of the child process. *)
let serve ~sockdir ~statedir ~ctl ~capture =
  let frames = ref 0 and bytes = ref 0 and kept = ref [] and nkept = ref 0 in
  let snapshot () =
    write_ctl ctl
      { frames = !frames; bytes = !bytes; captured = List.rev !kept }
  in
  Sys.set_signal Sys.sigusr1 (Sys.Signal_handle (fun _ -> snapshot ()));
  let hooks =
    {
      Sb_service.Netfault.none with
      nf_frame =
        (fun ~server b ->
          incr frames;
          bytes := !bytes + Bytes.length b;
          if !nkept < capture then begin
            incr nkept;
            kept := (server, Bytes.copy b) :: !kept
          end;
          Sb_service.Netfault.Pass);
    }
  in
  let algorithm, _ = register_config () in
  Sb_service.Daemon.run ~shards ?statedir ~hooks ~sockdir
    ~servers:(List.init n Fun.id)
    ~init_obj:algorithm.Sb_sim.Runtime.init_obj ();
  snapshot ()

(* ---- parent side ---- *)

type t = { pid : int; ctl : string; started : float }

(* Cluster processes still running, killed if this process exits
   early (a failed check raising, say): no run leaves one behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn ~sockdir ~statedir ~ctl ~capture =
  (try Sys.remove ctl with Sys_error _ -> ());
  let args =
    [ Sys.executable_name; "cluster"; sockdir; ctl; string_of_int capture ]
    @ Option.to_list statedir
  in
  let started = Unix.gettimeofday () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) null null
      Unix.stderr
  in
  Unix.close null;
  live := pid :: !live;
  { pid; ctl; started }

let alive t =
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* Poll until every server's socket accepts a connection. *)
let wait_listening ~sockdir t =
  let deadline = Unix.gettimeofday () +. 60.0 in
  List.iter
    (fun i ->
      let path = Sb_service.Daemon.sockpath ~sockdir i in
      let rec probe () =
        let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
        match Unix.connect fd (ADDR_UNIX path) with
        | () -> Unix.close fd
        | exception Unix.Unix_error _ ->
          Unix.close fd;
          if Unix.gettimeofday () > deadline || not (alive t) then
            failwith "cluster process did not start listening";
          Unix.sleepf 0.0002;
          probe ()
      in
      probe ())
    (List.init n Fun.id)

let read_ctl t =
  let ic = open_in_bin t.ctl in
  let (c : counters) = Marshal.from_channel ic in
  close_in ic;
  c

(* Ask the running process for its counters. *)
let dump t =
  (try Sys.remove t.ctl with Sys_error _ -> ());
  Unix.kill t.pid Sys.sigusr1;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while (not (Sys.file_exists t.ctl)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.002
  done;
  read_ctl t

let wait t =
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) t.pid) !live
let kill t = (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ()); wait t

let stop t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  wait t

(* ---- /proc counters of the cluster process ---- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* User + system CPU seconds of a process (clock ticks of 1/100 s). *)
let cpu_s pid =
  let s = String.concat " " (read_lines (Printf.sprintf "/proc/%d/stat" pid)) in
  (* Fields after the parenthesised command name. *)
  let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let fields = Array.of_list (String.split_on_char ' ' rest) in
  (* utime and stime are fields 14 and 15 of the whole line, 12 and 13
     counted from the state field. *)
  float_of_int (int_of_string fields.(11) + int_of_string fields.(12)) /. 100.0

let field_kb path name =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ key; v ] when key = name ->
        Scanf.sscanf (String.trim v) "%d" (fun x -> x)
      | _ -> acc)
    0 (read_lines path)

(* Peak resident set, in MB. *)
let peak_rss_mb pid =
  float_of_int (field_kb (Printf.sprintf "/proc/%d/status" pid) "VmHWM") /. 1024.0

(* A counter of /proc/<pid>/io; [write_bytes] counts the bytes the
   process caused to be sent to the storage layer (its state files, not
   its sockets). *)
let io_field pid name =
  List.fold_left
    (fun acc l ->
      match String.split_on_char ':' l with
      | [ key; v ] when key = name -> int_of_string (String.trim v)
      | _ -> acc)
    0
    (read_lines (Printf.sprintf "/proc/%d/io" pid))
