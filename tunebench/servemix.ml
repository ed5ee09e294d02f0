(* The serve-mix workload: an `ifko serve --jobs 1` child process fed
   the seeded request stream by two closed-loop client connections.
   The daemon runs in its own process so the clients do not compete
   with its connection threads for the OCaml runtime lock, and so that
   its CPU time can be read apart from the benchmark's.  One job keeps
   it to one domain: a second domain on a two-CPU host spins at every
   stop-the-world barrier while the first is descheduled, and that spin
   shows up in its CPU time. *)

module Client = Ifko_serve.Client
module Proto = Ifko_serve.Proto
module Json = Proto.Json

let now = Unix.gettimeofday
let stream_length = 10000

(* The stream's first [nsuite] workpoints visit every BLAS-1 kernel
   once, at N = 256: that is the daemon's suite. *)
let nsuite = List.length Ifko_blas.Defs.all

(* The daemon's peak memory is read when this many cold tunes have
   replied, so it covers the same work on every run. *)
let rss_at = nsuite

(* The stream's length in first requests: one round of the kernels at
   each size.  A fixed amount of work, not a time, so that the mix of
   sizes and kernels in the figures does not follow the host's speed. *)
let stream_firsts = 2 * nsuite

(* ---- the daemon ---- *)

type daemon = { pid : int; listen : Ifko_serve.Server.listen }

let live = ref []

(* Whatever happens, no daemon outlives the benchmark. *)
let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let forget pid = live := List.filter (( <> ) pid) !live

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error _ -> ()
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Spawn a daemon on a fresh store directory and wait until its socket
   answers a [stat]. *)
let spawn ~ifko dir =
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "s.sock" in
  let t0 = now () in
  let pid =
    Unix.create_process ifko
      [| ifko; "serve"; "--socket"; sock; "--store-dir"; Filename.concat dir "store";
         "--jobs"; "1"; "-q" |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  let listen = `Unix sock in
  let rec wait () =
    if now () -. t0 > 60.0 then failwith "ifko serve did not answer within 60 s";
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | p, _ when p = pid ->
      forget pid;
      failwith "ifko serve exited during start-up"
    | _ -> (
      match Client.with_client listen Client.stat with
      | Ok _ -> ()
      | Error e -> failwith ("ifko serve stat: " ^ e)
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.001;
        wait ())
  in
  wait ();
  { pid; listen }

let shutdown d =
  (match Client.with_client d.listen Client.shutdown with
  | Ok () -> ()
  | Error e -> failwith ("ifko serve shutdown: " ^ e));
  ignore (Unix.waitpid [] d.pid);
  forget d.pid

(* A [setup_s] sample: the CPU time of a daemon that starts on a fresh
   store, answers one [stat] and shuts down. *)
let time_spawn ~ifko dir =
  let children () =
    let t = Unix.times () in
    t.Unix.tms_cutime +. t.Unix.tms_cstime
  in
  let c0 = children () in
  shutdown (spawn ~ifko dir);
  let dt = children () -. c0 in
  rm_rf dir;
  dt

let stat d =
  match Client.with_client d.listen Client.stat with
  | Ok fields -> fields
  | Error e -> failwith ("ifko serve stat: " ^ e)

(* CPU seconds the daemon's live threads have used, summed over each
   thread's /proc/<pid>/task/<tid>/schedstat (nanoseconds on a CPU).
   The threads that do the stream's work (its two connections' threads,
   which run the tunes at one job) live through the whole stream, and a
   thread's count is brought up to date when it blocks, as it does
   after each reply; so the difference of two readings taken between
   requests is the daemon's CPU time in between. *)
let daemon_cpu pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match
        In_channel.with_open_text
          (Filename.concat (Filename.concat dir tid) "schedstat")
          In_channel.input_all
      with
      | exception Sys_error _ -> acc (* the thread ended meanwhile *)
      | line -> acc +. (Scanf.sscanf line "%Ld" Int64.to_float /. 1e9))
    0.0 (Sys.readdir dir)

(* CPU seconds the whole daemon has used, ended threads included, from
   /proc/<pid>/stat (utime + stime, in clock ticks of 1/100 s). *)
let daemon_cpu_total pid =
  let line =
    In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all
  in
  (* fields 14 and 15, counted past the parenthesised command name,
     which may hold spaces *)
  let close = String.rindex line ')' in
  let fields = String.split_on_char ' ' (String.sub line (close + 2) (String.length line - close - 2)) in
  match List.filteri (fun i _ -> i = 11 || i = 12) fields with
  | [ utime; stime ] -> (float_of_string utime +. float_of_string stime) /. 100.0
  | _ -> failwith "unexpected /proc/<pid>/stat layout"

let stat_num fields section key =
  match List.assoc_opt section fields with
  | Some (Json.O sub) -> Option.value ~default:0.0 (Json.num sub key)
  | _ -> 0.0

(* ---- the timed stream ---- *)

type reply = Reply of Proto.tune_reply | Miss | Err of string

(* [lat] is the client's wall latency; [cpu] the daemon's CPU time over
   the request, taken for first requests and for hits sent to an
   otherwise idle daemon. *)
type record = { i : int; cls : Reqstream.cls; lat : float; cpu : float option; reply : reply }

(* Two closed-loop connections share the stream.  The cold client sends
   the first requests, one cold tune at a time; the warm client sends
   the repeats, in order.  The repeats between two first requests are
   sent in two halves: the first half while the earlier cold tune runs,
   the second after it replied, and the next first request waits for
   both.  So roughly half the hits are sent beside a cold tune and half
   to an idle daemon; with one shared queue that share followed the
   timing of each run.  The stream runs until [stream_firsts] first
   requests have replied (it stops before the rest of the last gap),
   and on past that (up to [cap] seconds) until each reported
   percentile has enough samples beyond it.  Returns the completion
   records, the stream's wall time, the daemon's CPU time over it and
   its peak memory at [rss_at] cold tunes. *)
let run_stream (s : Reqstream.t) d ~cap ~need_layers t =
  let requests = s.Reqstream.requests and first = s.Reqstream.first in
  let nreq = Array.length requests and nfirst = Array.length first in
  (* For repeat [i]: the number of first requests before it, and whether
     it must wait for the latest of them to reply. *)
  let gate = Array.make nreq (0, false) in
  let j = ref 0 and gap = ref [] in
  let close_gap () =
    let g = Array.of_list (List.rev !gap) in
    Array.iteri (fun q i -> gate.(i) <- (!j, q >= Array.length g / 2)) g;
    gap := []
  in
  Array.iteri
    (fun i (r : Reqstream.request) ->
      if first.(r.Reqstream.wp) = i then begin
        close_gap ();
        incr j
      end
      else gap := i :: !gap)
    requests;
  close_gap ();
  let mu = Mutex.create () and cv = Condition.create () in
  let first_done = Array.make (Array.length s.Reqstream.workpoints) false in
  let firsts_sent = ref 0 and warm_at = ref 0 and stopped = ref false and rss = ref None in
  let log = ref [] in
  let firsts = ref 0 and coalesced_tunes = ref 0 and hits = ref 0 and hit_lookups = ref 0
  and idle_hits = ref 0 in
  let t0 = now () and c0 = daemon_cpu_total d.pid in
  (* under [mu] *)
  let stop () =
    let el = now () -. t0 in
    let enough =
      !firsts >= stream_firsts
      && !idle_hits >= 2 * Pct.min_beyond
      && ((not need_layers)
         || !hits >= 20 * Pct.min_beyond
            && !coalesced_tunes >= 2 * Pct.min_beyond
            && !hit_lookups >= 2 * Pct.min_beyond)
    in
    if enough || el >= cap then stopped := true;
    !stopped
  in
  let wait_until cond =
    while (not !stopped) && not (cond ()) do
      Condition.wait cv mu
    done
  in
  let send c (i, cls, measured) =
    let r = requests.(i) in
    let args = Reqstream.args_of s.Reqstream.workpoints.(r.Reqstream.wp) in
    let cpu0 = if measured then Some (daemon_cpu d.pid) else None in
    let q0 = now () in
    let reply =
      match r.Reqstream.op with
      | Reqstream.Tune -> ( match Client.tune c args with Ok x -> Reply x | Error e -> Err e)
      | Reqstream.Lookup -> (
        match Client.lookup c args with
        | Ok (Some x) -> Reply x
        | Ok None -> Miss
        | Error e -> Err e)
    in
    let lat = now () -. q0 in
    let cpu = Option.map (fun c -> daemon_cpu d.pid -. c) cpu0 in
    Mutex.lock mu;
    (match cls with
    | Reqstream.First ->
      first_done.(r.Reqstream.wp) <- true;
      incr firsts;
      if !firsts = rss_at then rss := Some (Tunes.peak_rss_mb (string_of_int d.pid))
    | Reqstream.Coalesced -> if r.Reqstream.op = Reqstream.Tune then incr coalesced_tunes
    | Reqstream.Hit ->
      incr hits;
      if measured then incr idle_hits;
      if r.Reqstream.op = Reqstream.Lookup then incr hit_lookups);
    log := { i; cls; lat; cpu; reply } :: !log;
    (* the warm client moves on only once its request has replied *)
    if cls <> Reqstream.First then warm_at := i + 1;
    Condition.broadcast cv;
    Mutex.unlock mu;
    if cls = Reqstream.First then Hostref.sample ()
  in
  (* [step] runs under [mu]: it waits for its turn and returns the
     request to send (with its class and whether the daemon's CPU time
     over it is taken), or [None] to stop. *)
  let client step c =
    let rec loop () =
      Mutex.lock mu;
      match step () with
      | None ->
        stopped := true;
        Condition.broadcast cv;
        Mutex.unlock mu
      | Some req ->
        Mutex.unlock mu;
        send c req;
        loop ()
    in
    loop ()
  in
  let cold () =
    let j = !firsts_sent in
    if j >= nfirst then None
    else begin
      wait_until (fun () -> !warm_at >= first.(j));
      if stop () then None
      else begin
        firsts_sent := j + 1;
        Condition.broadcast cv;
        Some (first.(j), Reqstream.First, true)
      end
    end
  in
  let rec warm () =
    let i = !warm_at in
    if i >= nreq then None
    else if first.(requests.(i).Reqstream.wp) = i then begin
      warm_at := i + 1;
      warm ()
    end
    else begin
      let j, after = gate.(i) in
      wait_until (fun () -> if after then !firsts >= j else !firsts_sent >= j);
      if stop () then None
      else
        let cls = Reqstream.classify s ~first_done i in
        (* after the cold tune replied, only this request runs *)
        Some (i, cls, after && cls = Reqstream.Hit)
    end
  in
  let worker step () =
    match Client.with_client d.listen (client step) with
    | () -> ()
    | exception e ->
      Mutex.lock mu;
      stopped := true;
      Condition.broadcast cv;
      Tunes.attempt t;
      Tunes.fail t "client" (Printexc.to_string e);
      Mutex.unlock mu
  in
  let threads = List.map (fun step -> Thread.create (worker step) ()) [ cold; warm ] in
  List.iter Thread.join threads;
  let wall = now () -. t0 and cpu = daemon_cpu_total d.pid -. c0 in
  match !rss with
  | Some rss -> (List.rev !log, wall, cpu, rss)
  | None -> failwith (Printf.sprintf "the stream ended before %d cold tunes replied" rss_at)

let same_reply (a : Proto.tune_reply) (b : Proto.tune_reply) =
  a.Proto.best = b.Proto.best
  && Int64.equal (Int64.bits_of_float a.Proto.mflops) (Int64.bits_of_float b.Proto.mflops)
  && Int64.equal (Int64.bits_of_float a.Proto.fko_mflops) (Int64.bits_of_float b.Proto.fko_mflops)
  && a.Proto.evaluations = b.Proto.evaluations

(* Every reply for a workpoint must equal its first reply; a lookup may
   miss only while the workpoint's first tune was still in flight. *)
let check_stream t (s : Reqstream.t) log =
  let first = Hashtbl.create 64 in
  List.iter
    (fun r ->
      match (r.cls, r.reply) with
      | Reqstream.First, Reply x -> Hashtbl.replace first s.Reqstream.requests.(r.i).Reqstream.wp x
      | _ -> ())
    log;
  List.iter
    (fun r ->
      Tunes.attempt t;
      let wp = s.Reqstream.requests.(r.i).Reqstream.wp in
      let op = Printf.sprintf "request %d (workpoint %d)" r.i wp in
      match r.reply with
      | Err e -> Tunes.fail t op ("error reply: " ^ e)
      | Miss ->
        if not (r.cls = Reqstream.Coalesced && s.Reqstream.requests.(r.i).Reqstream.op = Reqstream.Lookup)
        then Tunes.fail t op "lookup missed after the first reply arrived"
      | Reply x -> (
        match Hashtbl.find_opt first wp with
        | Some x0 when not (same_reply x0 x) -> Tunes.fail t op "reply differs from the first reply"
        | Some _ -> ()
        | None -> Tunes.fail t op "no first reply to compare with"))
    log;
  first

let suite_points (s : Reqstream.t) =
  List.init nsuite (fun i ->
      let w = s.Reqstream.workpoints.(i) in
      (w.Reqstream.kernel, w.Reqstream.n, w.Reqstream.wseed))

(* Each workpoint tuned again locally, after the daemon stopped, must
   match the daemon's first reply for it bit for bit. *)
let check_local t first tuned =
  List.iter
    (fun (wp, (k, (tu : Ifko_search.Driver.tuned), _)) ->
      match Hashtbl.find_opt first wp with
      | None -> Tunes.fail t ("local " ^ k.Tunes.name) "no daemon reply to compare with"
      | Some (x : Proto.tune_reply) ->
        let local =
          { Proto.best = Ifko_transform.Params.canonical tu.Ifko_search.Driver.best_params;
            mflops = tu.Ifko_search.Driver.ifko_mflops;
            fko_mflops = tu.Ifko_search.Driver.fko_mflops;
            evaluations = tu.Ifko_search.Driver.evaluations; hit = false }
        in
        if not (same_reply x local) then
          Tunes.fail t ("local " ^ k.Tunes.name)
            (Printf.sprintf "daemon replied %s %h, local Driver.tune gives %s %h" x.Proto.best
               x.Proto.mflops local.Proto.best local.Proto.mflops))
    tuned

type result = {
  setup_s : float;  (** the median daemon start, [time_spawn]; 0 when traced *)
  stream_wall : float;
  stream_cpu : float;  (** the daemon's CPU time over the stream *)
  log : record list;
  daemon_rss_mb : float;  (** the daemon's peak memory at [rss_at] cold tunes *)
  suite_s : float;  (** the local suite's tune time, by [Tunes.suite_median_cpu] *)
  mflops : float list;  (** the suite's tuned MFLOPS *)
  rss_mb : float;  (** this process's peak memory, after the local suites *)
  stat0 : (string * Json.value) list;
  stat1 : (string * Json.value) list;
  trace : Tunes.trace option;
}

(* The stream runs for [stream_firsts] cold tunes, for at most twice
   [seconds] (a traced run waits that long for its layers' samples).
   Then the daemon's suite is tuned again locally, pass after pass until
   [seconds] have passed, at least twice: every pass must match the
   daemon's first replies bit for bit, and the passes give
   [suite_tune_s].  After each local tune the
   reference loop and a daemon start ([setup_s]) are timed.  With
   [traced], the second pass is the traced replay of the first and a
   third, untraced pass gives the tracing cost; nothing is timed for the
   end-to-end metrics. *)
let run t ~ifko ~workdir ~seed ~seconds ~traced =
  let s = Reqstream.generate ~seed ~length:stream_length in
  let dir = Filename.concat workdir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let t0 = now () in
      let d = spawn ~ifko (Filename.concat dir "daemon") in
      let stat0 = stat d in
      let log, stream_wall, stream_cpu, daemon_rss_mb =
        run_stream s d ~cap:(2.0 *. seconds) ~need_layers:traced t
      in
      let stat1 = stat d in
      shutdown d;
      let first = check_stream t s log in
      let sp = Spans.create () in
      let ks =
        if traced then Tunes.traced_build sp (suite_points s) else Tunes.build (suite_points s)
      in
      let wp_of = List.mapi (fun wp k -> (k, wp)) ks in
      let setups = ref [] in
      let fidelity = Ifko_sim.Timer.Full and context = Ifko_sim.Timer.Out_of_cache in
      let local ?(timed = false) label =
        let tuned =
          List.concat_map
            (fun k ->
              let r = Tunes.tune_suite t ~label ~fidelity ~context [ k ] in
              if timed then begin
                Hostref.sample ();
                setups := time_spawn ~ifko (Filename.concat dir "setup") :: !setups
              end;
              r)
            ks
        in
        check_local t first (List.map (fun ((k, _, _) as x) -> (List.assq k wp_of, x)) tuned);
        tuned
      in
      let tuned = local ~timed:(not traced) "local1" in
      Tunes.check_results t ~label:"local1" ~reference:None ~workload:"serve-mix" ~seed tuned;
      let trace =
        if not traced then None
        else begin
          let replays, traced_cpu, prof, arena =
            Tunes.traced_suite t sp ~label:"replay" ~fidelity ~context ks
          in
          Tunes.check_replays t ~label:"replay" tuned replays;
          let untraced = Tunes.suite_cpu (local "local2") in
          Printf.eprintf "tunebench: traced pass %.3f CPU s, untraced %.3f CPU s\n" traced_cpu
            untraced;
          Some
            { Tunes.spans = sp; replays = List.map snd replays; prof; arena;
              gap_s = traced_cpu -. untraced }
        end
      in
      let rec passes i acc =
        if i > 2 && now () -. t0 >= seconds then acc
        else passes (i + 1) (local ~timed:true (Printf.sprintf "local%d" i) @ acc)
      in
      let all = if traced then tuned else passes 2 tuned in
      { setup_s = (if traced then 0.0 else Pct.median !setups);
        stream_wall; stream_cpu; log; daemon_rss_mb;
        suite_s = Tunes.suite_median_cpu ks all;
        mflops = List.map (fun (_, tu, _) -> tu.Ifko_search.Driver.ifko_mflops) tuned;
        rss_mb = Tunes.peak_rss_mb "self"; stat0; stat1; trace })

let requests_of ?op (s : Reqstream.t) cls log =
  List.filter
    (fun r ->
      r.cls = cls
      && match op with None -> true | Some o -> s.Reqstream.requests.(r.i).Reqstream.op = o)
    log

let latencies ?op s cls log = List.map (fun r -> r.lat) (requests_of ?op s cls log)

(* The daemon's CPU time of the requests of class [cls] it was taken
   for. *)
let cpu_times s cls log = List.filter_map (fun r -> r.cpu) (requests_of s cls log)

let serve_layers (s : Reqstream.t) r =
  let d sec key = stat_num r.stat1 sec key -. stat_num r.stat0 sec key in
  let p50_ms xs = 1000.0 *. Option.value ~default:0.0 (Pct.percentile 0.5 xs) in
  {
    Tunes.tunes = d "server" "tunes";
    tune_hits = d "server" "tune_hits";
    errors = d "server" "errors";
    coalesced_p50_ms = p50_ms (latencies ~op:Reqstream.Tune s Reqstream.Coalesced r.log);
    lookup_p50_ms = p50_ms (latencies ~op:Reqstream.Lookup s Reqstream.Hit r.log);
    hit_wall_p50_ms = p50_ms (latencies s Reqstream.Hit r.log);
    hit_p95_ms = 1000.0 *. Option.value ~default:0.0 (Pct.percentile 0.95 (latencies s Reqstream.Hit r.log));
    miss_wall_p50_ms = p50_ms (latencies s Reqstream.First r.log);
    req_per_wall_s = float_of_int (List.length r.log) /. r.stream_wall;
    daemon_peak_rss_mb = r.daemon_rss_mb;
    store_hits = d "store" "hits";
    store_misses = d "store" "misses";
    journal_bytes = d "store" "bytes";
    codecache_hits = d "codecache" "hits";
    codecache_misses = d "codecache" "misses";
  }
