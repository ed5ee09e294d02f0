(* The tune-* workloads: the 14 BLAS-1 kernels tuned through
   [Driver.tune] exactly as `ifko tune` does (linesearch, one job,
   [Generic.spec]/[Generic.test]), plus the traced replay that rebuilds
   every tune from the layers' public functions. *)

open Ifko_search
module Timer = Ifko_sim.Timer
module Defs = Ifko_blas.Defs

let now = Unix.gettimeofday

let cfg = Ifko_machine.Config.p4e

(* ---- pass/fail accounting shared by every workload ---- *)

type tally = { mutable attempted : int; failed : (string, unit) Hashtbl.t }

let tally () = { attempted = 0; failed = Hashtbl.create 8 }
let attempt t = t.attempted <- t.attempted + 1

(* [op] names the attempted operation the failure belongs to, so one
   operation failing several checks counts once. *)
let fail t op msg =
  Hashtbl.replace t.failed op ();
  Printf.eprintf "tunebench: FAIL %s: %s\n%!" op msg

let failed t = Hashtbl.length t.failed

(* ---- workloads ---- *)

type conf = { context : Timer.context; n : int; fidelity : Timer.fidelity }

let conf_of_workload = function
  | "tune-oc" -> Some { context = Timer.Out_of_cache; n = 80000; fidelity = Timer.Full }
  | "tune-l2" -> Some { context = Timer.In_l2; n = 1024; fidelity = Timer.Full }
  | "tune-oc-sampled" ->
    Some { context = Timer.Out_of_cache; n = 80000; fidelity = Timer.Sampled }
  | _ -> None

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

type kernel = {
  id : Defs.kernel_id;
  name : string;
  compiled : Ifko_codegen.Lower.compiled;
  spec : Timer.spec;
  test : Cfg.func -> bool;
  n : int;
  seed : int;
}

let flops k = Defs.flops_per_n k.id.Defs.routine

(* The front end plus workload construction for one kernel: what must
   happen before its first tune can be issued. *)
let front_end ?spans (id, n, seed) =
  let sp name f = match spans with None -> f () | Some s -> Spans.span s name f in
  let checked =
    sp "hil" (fun () ->
        Ifko_hil.Typecheck.check
          (Ifko_hil.Parser.parse_kernel (Ifko_blas.Hil_sources.source id)))
  in
  let compiled = sp "codegen" (fun () -> Ifko_codegen.Lower.lower checked) in
  let spec = Generic.spec ~seed compiled in
  { id; name = Defs.name id; compiled; spec; test = Generic.test compiled spec; n; seed }

let points (conf : conf) ~seed = List.map (fun id -> (id, conf.n, seed)) Defs.all

let build ?spans points = List.map (front_end ?spans) points

(* A [setup_s] sample: what must happen before the first tune can be
   issued, the front end for every kernel plus workload construction.
   The CPU time of one build of the kernel set. *)
let time_build points =
  let t0 = Hostref.cpu () in
  ignore (Sys.opaque_identity (build points));
  Hostref.cpu () -. t0

(* The traced run builds the kernel set this many times, so the
   sub-millisecond hil/codegen spans are averaged over several builds. *)
let setup_reps = 15

let traced_build sp points =
  for _ = 2 to setup_reps do
    ignore (build ~spans:sp points)
  done;
  build ~spans:sp points

(* A probe memo standing in for `ifko tune --store`'s journal, minus
   the disk: a repeat tune of a kernel is then answered without
   probing, which is the tune-* workloads' cache-hit path. *)
let memo () =
  let h = Hashtbl.create 128 in
  fun ~key ~params:_ ~prov:_ f ->
    match Hashtbl.find_opt h key with
    | Some o -> o
    | None ->
      let o = f () in
      Hashtbl.replace h key o;
      o

let tune ?cache ~fidelity ~context k =
  Driver.tune ?cache ~seed:k.seed ~fidelity ~cfg ~context ~spec:k.spec ~n:k.n
    ~flops_per_n:(flops k) ~test:k.test k.compiled

(* ---- the traced replay ---- *)

type candidate = Illegal | Test_failed | Compiled of Ifko_sim.Exec.compiled

type replayed = {
  r_result : Refcheck.result;
  r_probes_to_best : int;
  r_ckpt : Ifko_sim.Ckpt.stats;
}

(* [Driver.tune] rebuilt from public functions, with a span around each
   layer call: analysis, then [Strategy.run] over the line search, each
   probe being compile_point -> tester -> Exec.compile ->
   Timer.measure_compiled under a checkpoint cache tagged as
   [Driver.tune] tags it.  Candidates are compiled once per point, as its
   per-tune code cache does. *)
let replay sp ~fidelity ~context k =
  let span name f = Spans.span sp name f in
  sp.Spans.tag <- k.name;
  let line_bytes = cfg.Ifko_machine.Config.prefetchable_line in
  let report = span "analysis" (fun () -> Ifko_analysis.Report.analyze k.compiled) in
  let init = span "analysis" (fun () -> Ifko_transform.Params.default ~line_bytes report) in
  let ckpt = Ifko_sim.Ckpt.create ~cfg () in
  let tckpt =
    (ckpt, Printf.sprintf "%s|seed=%d" (Driver.kernel_fingerprint k.compiled) k.seed)
  in
  let memo = Hashtbl.create 64 in
  let candidate params =
    let key = Ifko_transform.Params.canonical params in
    match Hashtbl.find_opt memo key with
    | Some c -> c
    | None ->
      Spans.count sp "transform.calls" 1;
      let c =
        match span "transform" (fun () -> Driver.compile_point ~cfg k.compiled params) with
        | exception (Ifko_transform.Passcheck.Pass_failed _ as e) -> raise e
        | exception _ ->
          Spans.count sp "transform.illegal" 1;
          Illegal
        | func ->
          Spans.count sp "tester.calls" 1;
          if not (span "tester" (fun () -> k.test func)) then Test_failed
          else begin
            Spans.count sp "tester.passes" 1;
            Spans.count sp "sim.decodes" 1;
            Compiled (span "sim.decode" (fun () -> Ifko_sim.Exec.compile func))
          end
      in
      Hashtbl.replace memo key c;
      c
  in
  let measure f =
    Spans.count sp "sim.measures" 1;
    span "sim.measure" f
  in
  let timed ?fidelity cf =
    measure (fun () ->
        Timer.measure_compiled ?fidelity ~ckpt:tckpt ~cfg ~context ~spec:k.spec ~n:k.n cf)
  in
  (* [Driver.tune]'s calibration step for sampled tunes (error budget 1%) *)
  let fidelity_used =
    match fidelity with
    | Timer.Full -> Timer.Full
    | Timer.Sampled -> (
      match candidate init with
      | Illegal | Test_failed -> Timer.Full
      | Compiled cf -> (
        let full = timed cf in
        let s =
          measure (fun () ->
              Timer.measure_ext ~fidelity:Timer.Sampled ~ckpt:tckpt ~cfg ~context
                ~spec:k.spec ~n:k.n cf)
        in
        match s.Timer.m_fallback with
        | Some _ -> Timer.Full
        | None ->
          let err = Float.abs (s.Timer.m_cycles -. full) /. Float.max 1e-9 full in
          if err <= 0.01 then Timer.Sampled else Timer.Full))
  in
  let probe params =
    match candidate params with
    | Illegal | Test_failed -> neg_infinity
    | Compiled cf ->
      let cycles = timed ~fidelity:fidelity_used cf in
      Timer.mflops ~cfg ~flops_per_n:(flops k) ~n:k.n ~cycles
  in
  let make ~init_perf = Linesearch.strategy ~cfg ~report ~init ~init_perf () in
  let r = span "search" (fun () -> Strategy.run ~init ~make probe) in
  {
    r_result =
      {
        Refcheck.kernel = k.name;
        best = Ifko_transform.Params.canonical r.Strategy.best;
        mflops_bits = Int64.bits_of_float r.Strategy.best_perf;
        evaluations = r.Strategy.evaluations;
      };
    r_probes_to_best = r.Strategy.probes_to_best;
    r_ckpt = Ifko_sim.Ckpt.stats ckpt;
  }

(* ---- metrics ---- *)

(* Daemon-side per-layer figures (zero where no daemon runs). *)
type serve_layers = {
  tunes : float;
  tune_hits : float;
  errors : float;
  coalesced_p50_ms : float;
  lookup_p50_ms : float;
  hit_wall_p50_ms : float;
  hit_p95_ms : float;
  miss_wall_p50_ms : float;
  req_per_wall_s : float;
  daemon_peak_rss_mb : float;
  store_hits : float;
  store_misses : float;
  journal_bytes : float;
  codecache_hits : float;
  codecache_misses : float;
}

let no_serve =
  { tunes = 0.; tune_hits = 0.; errors = 0.; coalesced_p50_ms = 0.; lookup_p50_ms = 0.;
    hit_wall_p50_ms = 0.; hit_p95_ms = 0.; miss_wall_p50_ms = 0.; req_per_wall_s = 0.;
    daemon_peak_rss_mb = 0.;
    store_hits = 0.; store_misses = 0.; journal_bytes = 0.; codecache_hits = 0.;
    codecache_misses = 0. }

(* Everything one traced suite pass measured. *)
type trace = {
  spans : Spans.t;
  replays : replayed list;
  prof : Timer.attribution;
  arena : Ifko_machine.Arena.stats;  (** acquire/create deltas over the pass *)
  gap_s : float;
}

let layer_metrics tr serve =
  let s = tr.spans in
  let c name = float_of_int (Spans.counted s name) in
  let ck f = float_of_int (List.fold_left (fun acc r -> acc + f r.r_ckpt) 0 tr.replays) in
  let per_setup name = Spans.total s name /. float_of_int setup_reps in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 tr.replays) in
  [ m "hil.s" "s" (per_setup "hil");
    m "codegen.s" "s" (per_setup "codegen");
    m "analysis.s" "s" (Spans.total s "analysis");
    m "transform.s" "s" (Spans.total s "transform");
    m "transform.calls" "count" (c "transform.calls");
    m "transform.illegal" "count" (c "transform.illegal");
    m "tester.s" "s" (Spans.total s "tester");
    m "tester.calls" "count" (c "tester.calls");
    m "tester.pass_ratio" "ratio" (c "tester.passes" /. Float.max 1.0 (c "tester.calls"));
    m "sim.decode_s" "s" (Spans.total s "sim.decode");
    m "sim.decodes" "count" (c "sim.decodes");
    m "sim.measure_s" "s" (Spans.total s "sim.measure");
    m "sim.measures" "count" (c "sim.measures");
    m "sim.arena_s" "s" tr.prof.Timer.at_arena_s;
    m "sim.env_s" "s" tr.prof.Timer.at_env_s;
    m "sim.restore_s" "s" tr.prof.Timer.at_restore_s;
    m "sim.exec_s" "s" tr.prof.Timer.at_exec_s;
    m "ckpt.hits" "count" (ck (fun st -> st.Ifko_sim.Ckpt.hits));
    m "ckpt.misses" "count" (ck (fun st -> st.Ifko_sim.Ckpt.misses));
    m "ckpt.transient_hits" "count" (ck (fun st -> st.Ifko_sim.Ckpt.transient_hits));
    m "ckpt.transient_misses" "count" (ck (fun st -> st.Ifko_sim.Ckpt.transient_misses));
    m "machine.arena_acquires" "count" (float_of_int tr.arena.Ifko_machine.Arena.acquires);
    m "machine.arena_creates" "count" (float_of_int tr.arena.Ifko_machine.Arena.creates);
    m "search.evaluations" "count" (sum (fun r -> r.r_result.Refcheck.evaluations));
    m "search.probes_to_best" "count" (sum (fun r -> r.r_probes_to_best));
    m "search.self_s" "s" (Spans.self s "search");
    m "serve.tunes" "count" serve.tunes;
    m "serve.tune_hits" "count" serve.tune_hits;
    m "serve.errors" "count" serve.errors;
    m "serve.coalesced_p50_ms" "ms" serve.coalesced_p50_ms;
    m "serve.lookup_p50_ms" "ms" serve.lookup_p50_ms;
    m "serve.hit_wall_p50_ms" "ms" serve.hit_wall_p50_ms;
    m "serve.hit_p95_ms" "ms" serve.hit_p95_ms;
    m "serve.miss_wall_p50_ms" "ms" serve.miss_wall_p50_ms;
    m "serve.req_per_wall_s" "req/s" serve.req_per_wall_s;
    m "serve.daemon_peak_rss_mb" "MB" serve.daemon_peak_rss_mb;
    m "store.hits" "count" serve.store_hits;
    m "store.misses" "count" serve.store_misses;
    m "store.journal_bytes" "bytes" serve.journal_bytes;
    m "codecache.hits" "count" serve.codecache_hits;
    m "codecache.misses" "count" serve.codecache_misses;
    m "trace.gap_s" "s" tr.gap_s;
  ]

let pct_ms p xs =
  match Pct.percentile p xs with
  | Some v -> v *. 1000.0
  | None ->
    failwith
      (Printf.sprintf "%d samples are too few for a p%g" (List.length xs) (p *. 100.0))

(* The end-to-end metrics, from CPU times in seconds, which [scale]
   turns into nominal seconds (see [Hostref]). *)
let end_to_end ~scale ~setup_s ~suite_s ~mflops ~req_per_s ~hits ~misses ~rss_mb =
  [ m "setup_s" "s" (scale *. setup_s);
    m "suite_tune_s" "s" (scale *. suite_s);
    m "tuned_mflops_geomean" "MFLOPS" (Pct.geomean mflops);
    m "req_per_s" "req/s" (req_per_s /. scale);
    m "hit_p50_ms" "ms" (scale *. pct_ms 0.5 hits);
    m "miss_p50_ms" "ms" (scale *. pct_ms 0.5 misses);
    m "peak_rss_mb" "MB" rss_mb;
  ]

(* The hit tail, reported on stderr only: on serve-mix it spreads too
   far from run to run to carry a regression bound. *)
let hit_tail hits = m "hit_p95_ms" "ms" (pct_ms 0.95 hits)

let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith (path ^ ": no VmHWM")
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> go ()
      in
      go ())

(* ---- running a suite ---- *)

(* Tune every kernel once; returns each result with its CPU time.  A
   raised tune is a failure of that kernel's operation. *)
let tune_suite t ~label ?cache_of ~fidelity ~context ks =
  List.filter_map
    (fun k ->
      attempt t;
      let op = label ^ " " ^ k.name in
      let t0 = Hostref.cpu () in
      match tune ?cache:(Option.map (fun f -> f k) cache_of) ~fidelity ~context k with
      | exception e ->
        fail t op (Printexc.to_string e);
        None
      | tuned -> Some (k, tuned, Hostref.cpu () -. t0))
    ks

let suite_cpu tuned = List.fold_left (fun acc (_, _, c) -> acc +. c) 0.0 tuned

(* The suite's tune time from several tunes of each kernel: the sum of
   each kernel's median tune time.  Tunes of a kernel are a suite apart,
   so a burst of host noise seldom lands on most of them. *)
let suite_median_cpu ks tuned =
  List.fold_left
    (fun acc k ->
      match List.filter_map (fun (k', _, c) -> if k'.name = k.name then Some c else None) tuned with
      | [] -> acc
      | cs -> acc +. Pct.median cs)
    0.0 ks

(* The traced pass: replay every kernel under spans, with the
   simulator's own wall-time attribution switched on. *)
let traced_suite t sp ~label ~fidelity ~context ks =
  let a0 = Ifko_machine.Arena.stats () in
  Timer.profile_reset ();
  Timer.profile_enable true;
  let t0 = Hostref.cpu () in
  let replays =
    Fun.protect ~finally:(fun () -> Timer.profile_enable false) (fun () ->
        List.filter_map
          (fun k ->
            attempt t;
            match replay sp ~fidelity ~context k with
            | exception e ->
              fail t (label ^ " " ^ k.name) (Printexc.to_string e);
              None
            | r -> Some (k, r))
          ks)
  in
  let used = Hostref.cpu () -. t0 in
  let a1 = Ifko_machine.Arena.stats () in
  let arena =
    { Ifko_machine.Arena.acquires = a1.Ifko_machine.Arena.acquires - a0.Ifko_machine.Arena.acquires;
      creates = a1.Ifko_machine.Arena.creates - a0.Ifko_machine.Arena.creates;
      pooled = a1.Ifko_machine.Arena.pooled }
  in
  (replays, used, Timer.profile (), arena)

(* Checks every tuned kernel of a workload must pass: the independent
   reference semantics, and bit-identity with the committed reference
   results where those cover this seed. *)
let check_results t ~label ~reference ~workload ~seed tuned =
  List.iter
    (fun (k, (tu : Driver.tuned), _) ->
      match Refcheck.against_ref_impl k.id ~seed tu.Driver.best_func with
      | Ok () -> ()
      | Error e -> fail t (label ^ " " ^ k.name) ("Ref_impl check: " ^ e))
    tuned;
  match reference with
  | None -> ()
  | Some reference ->
    List.iter
      (fun (kernel, msg) -> fail t (label ^ " " ^ kernel) msg)
      (Refcheck.mismatches reference ~workload ~seed
         (List.map (fun (k, tu, _) -> Refcheck.of_tuned k.name tu) tuned))

(* The traced replay must reproduce [Driver.tune] bit for bit. *)
let check_replays t ~label tuned replays =
  List.iter
    (fun (k, r) ->
      match List.find_opt (fun (k', _, _) -> k'.name = k.name) tuned with
      | None -> ()
      | Some (_, tu, _) ->
        let d = Refcheck.of_tuned k.name tu in
        if not (Refcheck.same d r.r_result) then
          fail t (label ^ " " ^ k.name)
            (Printf.sprintf "traced replay %s differs from Driver.tune %s"
               (Refcheck.describe r.r_result) (Refcheck.describe d)))
    replays

(* Hit samples per run (p95 needs 200), and how many hit and set-up
   samples are taken after each cold tune: spreading them over the
   whole run, beside the reference loop's samples, keeps a burst of host
   noise from landing on all of them. *)
let hit_samples = 210
let hits_per_cold = 5
let setups_per_cold = 3

(* trace 0: whole suites of cold tunes, at least two, until [seconds]
   have passed.  Whole suites and a whole number of hit rounds give
   every kernel the same share of the samples, so a median over the
   kernels' mixed costs does not move with where a run stops.  From the
   second suite on, each cold tune is followed by [hits_per_cold]
   memo-answered repeat tunes, taking the kernels in turn, and repeats
   are topped up to at least [hit_samples], in whole rounds.  Returns
   the median set-up time, the suite time ([suite_median_cpu] over every
   cold tune), every cold tune's CPU time, the hits' CPU times and the
   first suite's MFLOPS. *)
let run_timed t ~workload ~(conf : conf) ~seed ~seconds ~reference =
  let points = points conf ~seed in
  let ks = build points in
  let setups = ref [] in
  let fidelity = conf.fidelity and context = conf.context in
  let memos = List.map (fun k -> (k.name, memo ())) ks in
  let t0 = now () in
  let first =
    tune_suite t ~label:"suite1" ~cache_of:(fun k -> List.assoc k.name memos) ~fidelity
      ~context ks
  in
  check_results t ~label:"suite1" ~reference ~workload ~seed first;
  let first_results = List.map (fun (k, tu, _) -> (k.name, Refcheck.of_tuned k.name tu)) first in
  let same_as_first label (k : kernel) tu =
    match List.assoc_opt k.name first_results with
    | Some r0 when not (Refcheck.same r0 (Refcheck.of_tuned k.name tu)) ->
      fail t (label ^ " " ^ k.name)
        (Printf.sprintf "%s differs from suite1's %s"
           (Refcheck.describe (Refcheck.of_tuned k.name tu)) (Refcheck.describe r0))
    | _ -> ()
  in
  let tuned_first = Array.of_list (List.map (fun (k, _, _) -> k) first) in
  let hits = ref [] and nhits = ref 0 in
  let hit () =
    let k = tuned_first.(!nhits mod Array.length tuned_first) in
    incr nhits;
    let label = Printf.sprintf "hit%d" !nhits in
    attempt t;
    let h0 = Hostref.cpu () in
    match tune ~cache:(List.assoc k.name memos) ~fidelity ~context k with
    | exception e -> fail t (label ^ " " ^ k.name) (Printexc.to_string e)
    | tu ->
      hits := (Hostref.cpu () -. h0) :: !hits;
      same_as_first label k tu
  in
  let rec cold i pending acc =
    match pending with
    | [] when now () -. t0 >= seconds -> acc
    | [] -> cold (i + 1) ks acc
    | k :: rest ->
      let label = Printf.sprintf "suite%d" i in
      let tuned = tune_suite t ~label ~cache_of:(fun _ -> memo ()) ~fidelity ~context [ k ] in
      Hostref.sample ();
      for _ = 1 to setups_per_cold do
        setups := time_build points :: !setups
      done;
      List.iter (fun (k, tu, _) -> same_as_first label k tu) tuned;
      for _ = 1 to hits_per_cold do
        hit ()
      done;
      cold i rest (tuned @ acc)
  in
  let all = first @ cold 2 ks [] in
  while !nhits < hit_samples || !nhits mod Array.length tuned_first <> 0 do
    hit ()
  done;
  ( Pct.median !setups,
    suite_median_cpu ks all,
    List.map (fun (_, _, s) -> s) all,
    !hits,
    List.map (fun (_, tu, _) -> tu.Driver.ifko_mflops) first )

(* trace 1: an untraced suite, the traced replay of it, and a second
   untraced suite.  The first suite also warms the process (machine and
   buffer pools, heap), so the tracing cost is taken against the second:
   [gap_s] = traced CPU time - second untraced CPU time. *)
let run_traced t ~workload ~(conf : conf) ~seed ~reference =
  let sp = Spans.create () in
  let ks = traced_build sp (points conf ~seed) in
  let fidelity = conf.fidelity and context = conf.context in
  let tuned = tune_suite t ~label:"suite" ~fidelity ~context ks in
  check_results t ~label:"suite" ~reference ~workload ~seed tuned;
  let replays, traced, prof, arena = traced_suite t sp ~label:"replay" ~fidelity ~context ks in
  check_replays t ~label:"replay" tuned replays;
  let untraced = suite_cpu (tune_suite t ~label:"suite2" ~fidelity ~context ks) in
  Printf.eprintf "tunebench: traced pass %.3f CPU s, untraced %.3f CPU s\n" traced untraced;
  { spans = sp; replays = List.map snd replays; prof; arena; gap_s = traced -. untraced }
