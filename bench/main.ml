(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section on the simulated machines.

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --exp fig2   -- one experiment
     dune exec bench/main.exe -- --quick      -- double precision only
     dune exec bench/main.exe -- --bechamel   -- Bechamel micro-benchmarks
                                                 of the harness machinery
     --store PATH   persistent tuning store (default BENCH_store.jsonl;
                    a second run is answered mostly from the journal)
     --no-store     disable the store
     --jobs N       parallel probe evaluation (bit-identical results)
     --json PATH    machine-readable run report (default BENCH_results.json)
     --profile      per-kernel fast-path coverage, superblock fusion and
                    cycle-attribution counters in the simbench experiment
     --baseline P   read geomean speedups and full-fidelity cycles from
                    a previous results file (before anything is
                    overwritten); fail the run if the fresh simbench
                    geomeans regress by more than 15%, if sampled
                    fidelity misses its cycle-error budget against this
                    run or against the baseline's full-fidelity cycles,
                    if the sampled work ratio falls under 5x, if the
                    sampled wall speedup falls under 3.5x, or if
                    sampled us/measure regresses >20% vs the baseline
     --delta-md P   write a baseline-vs-current markdown table to P
                    (CI appends it to the GitHub job summary)

   Experiments: table1 table2 fig2 fig3 fig4 fig5a fig5b table3 fig7
                opteron_l2 ablations simbench servebench all *)

open Ifko_blas
open Ifko_machine

let seed = 20050614 (* ICPP 2005 *)

let quick = ref false
let selected : string list ref = ref []
let bechamel_mode = ref false
let store_path = ref (Some "BENCH_store.jsonl")
let json_path = ref "BENCH_results.json"
let jobs = ref 1
let store : Ifko_store.Store.t option ref = ref None
let profile_mode = ref false

(* Geomeans (and, when the file has them, per-kernel full-fidelity
   cycle counts) of a previous run, captured at argument-parse time —
   before this run overwrites the results file.  The fidelity fields
   are optional so results files from before the sampled timer still
   work as baselines for the throughput gates. *)
type baseline_data = {
  b_untimed : float;
  b_timed : float;
  b_fid_err : float option; (* geomean_cycle_err_pct *)
  b_fid_speedup : float option; (* geomean_sampled_speedup *)
  b_fid_work : float option; (* geomean_work_ratio *)
  b_fid_us : float option; (* geomean_sampled_us_per_measure *)
  b_full_us : float option; (* geomean_full_us_per_measure *)
  b_full_cycles : (string * float) list; (* per-kernel full-fidelity cycles *)
}

let baseline : baseline_data option ref = ref None
let delta_md : string option ref = ref None

let kernels () =
  if !quick then List.filter (fun k -> k.Defs.prec = Instr.D) Defs.all else Defs.all

(* Studies are expensive; compute each (machine, context) pair once per
   process — and, through the store, once per journal. *)
let study_cache : (string, Ifko_eval.Eval.study) Hashtbl.t = Hashtbl.create 4

let study ~cfg ~context ~n =
  let key = Printf.sprintf "%s/%s/%d" cfg.Config.name (Ifko_sim.Timer.context_name context) n in
  match Hashtbl.find_opt study_cache key with
  | Some s -> s
  | None ->
    Printf.printf "... running study %s (%d kernels)\n%!" key (List.length (kernels ()));
    let s =
      Ifko_eval.Eval.run_study ~kernels:(kernels ())
        ~progress:(fun line -> Printf.printf "      %s\n%!" line)
        ?store:!store ~jobs:!jobs ~cfg ~context ~n ~seed ()
    in
    Hashtbl.replace study_cache key s;
    s

let p4e_oc () = study ~cfg:Config.p4e ~context:Ifko_sim.Timer.Out_of_cache ~n:80000
let opteron_oc () = study ~cfg:Config.opteron ~context:Ifko_sim.Timer.Out_of_cache ~n:80000
let p4e_l2 () = study ~cfg:Config.p4e ~context:Ifko_sim.Timer.In_l2 ~n:1024
let opteron_l2 () = study ~cfg:Config.opteron ~context:Ifko_sim.Timer.In_l2 ~n:1024

(* ---------- experiments ---------- *)

let exp_table1 () = print_string (Ifko_eval.Figures.table1 ())
let exp_table2 () = print_string (Ifko_eval.Figures.table2 ())

let exp_fig2 () =
  print_string
    (Ifko_eval.Figures.relative_figure
       ~title:
         "Figure 2. Relative speedups of various tuning methods on P4E, N=80000, out-of-cache"
       (p4e_oc ()))

let exp_fig3 () =
  print_string
    (Ifko_eval.Figures.relative_figure
       ~title:
         "Figure 3. Relative speedups of various tuning methods on Opteron, N=80000, out-of-cache"
       (opteron_oc ()))

let exp_fig4 () =
  print_string
    (Ifko_eval.Figures.relative_figure
       ~title:
         "Figure 4. Relative speedups of various tuning methods on P4E, N=1024, in-L2 cache"
       (p4e_l2 ()))

let exp_fig5a () = print_string (Ifko_eval.Figures.fig5a (p4e_oc ()) (opteron_oc ()))
let exp_fig5b () = print_string (Ifko_eval.Figures.fig5b ~oc:(p4e_oc ()) ~l2:(p4e_l2 ()))

let contexts_for_table3 () =
  [ ("P4E, out-of-cache", p4e_oc ());
    ("Opteron, out-of-cache", opteron_oc ());
    ("P4E, in-L2 cache", p4e_l2 ());
  ]

let exp_table3 () = print_string (Ifko_eval.Figures.table3 (contexts_for_table3 ()))
let exp_fig7 () = print_string (Ifko_eval.Figures.fig7 (contexts_for_table3 ()))

let exp_opteron_l2 () = print_string (Ifko_eval.Figures.opteron_l2_note (opteron_l2 ()))

(* ---------- ablations (design choices DESIGN.md calls out) ---------- *)

let ablation_search () =
  (* 1-D pure line search vs. the relaxed search with 2-D refinement *)
  print_endline "Ablation 1: pure 1-D line search vs. modified line search (P4E, oc)";
  let cfg = Config.p4e in
  List.iter
    (fun id ->
      let compiled = Hil_sources.compile id in
      let spec = Workload.timer_spec id ~seed in
      let flops_per_n = Defs.flops_per_n id.Defs.routine in
      let test _ = true in
      let tuned =
        Ifko_search.Driver.tune ?store:!store ~jobs:!jobs ~seed ~cfg
          ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:80000 ~flops_per_n ~test compiled
      in
      (* the pure-1-D result is the state before the UR*AE / PF2 refinements *)
      let pure_1d =
        List.fold_left
          (fun acc (dim, ratio) ->
            if dim = "UR*AE" || dim = "PF2" then acc else acc *. ratio)
          tuned.Ifko_search.Driver.fko_mflops tuned.Ifko_search.Driver.contributions
      in
      Printf.printf "  %-7s pure-1D=%.0f  modified=%.0f MFLOPS  (refinement %+.1f%%, %d evals)\n"
        (Defs.name id) pure_1d tuned.Ifko_search.Driver.ifko_mflops
        (100.0 *. ((tuned.Ifko_search.Driver.ifko_mflops /. Float.max 1e-9 pure_1d) -. 1.0))
        tuned.Ifko_search.Driver.evaluations)
    [ { Defs.routine = Defs.Dot; prec = Instr.D };
      { Defs.routine = Defs.Asum; prec = Instr.S };
    ]

let ablation_prefetch_model () =
  print_endline
    "Ablation 2: model-default prefetch distance (2*L) vs. empirically tuned (P4E, oc)";
  let cfg = Config.p4e in
  List.iter
    (fun id ->
      let compiled = Hil_sources.compile id in
      let report = Ifko_analysis.Report.analyze compiled in
      let d = Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report in
      let spec = Workload.timer_spec id ~seed in
      let flops = Defs.flops_per_n id.Defs.routine in
      let time p =
        let f = Ifko_search.Driver.compile_point ~cfg compiled p in
        match
          Ifko_store.Store.cached ?store:!store
            ~key:
              (Ifko_store.Store.timing_key ~kind:"ablation2" ~func:(Cfg.to_string f)
                 ~machine:cfg.Config.name ~context:"out-of-cache" ~n:80000 ~seed)
            ~params:(Ifko_transform.Params.to_string p)
            ~prov:(Printf.sprintf "ablation2:%s" (Defs.name id))
            (fun () ->
              let cycles =
                Ifko_sim.Timer.measure ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec
                  ~n:80000 f
              in
              Ifko_store.Store.Timed
                { cycles;
                  mflops = Ifko_sim.Timer.mflops ~cfg ~flops_per_n:flops ~n:80000 ~cycles
                })
        with
        | Ifko_store.Store.Timed { mflops; _ } -> mflops
        | _ -> neg_infinity
      in
      let best =
        List.fold_left
          (fun acc dist ->
            let p =
              { d with
                Ifko_transform.Params.prefetch =
                  List.map
                    (fun (a, (s : Ifko_transform.Params.pf_param)) ->
                      (a, { s with Ifko_transform.Params.pf_dist = dist }))
                    d.Ifko_transform.Params.prefetch
              }
            in
            Float.max acc (time p))
          0.0 [ 512; 1024; 1536; 2048 ]
      in
      Printf.printf "  %-7s 2*L default=%.0f  tuned distance=%.0f MFLOPS (%+.0f%%)\n"
        (Defs.name id) (time d) best
        (100.0 *. ((best /. Float.max 1e-9 (time d)) -. 1.0)))
    [ { Defs.routine = Defs.Scal; prec = Instr.D };
      { Defs.routine = Defs.Asum; prec = Instr.D };
      { Defs.routine = Defs.Axpy; prec = Instr.D };
    ]

let ablation_repeatable () =
  print_endline "Ablation 3: repeatable-transformation block, one pass vs. fixpoint";
  let id = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let report = Ifko_analysis.Report.analyze compiled in
  let p =
    { (Ifko_transform.Params.default ~line_bytes:128 report) with
      Ifko_transform.Params.unroll = 16;
      ae = 4
    }
  in
  let c = Ifko_transform.Pipeline.snapshot compiled in
  ignore (Ifko_transform.Simd.apply c : (unit, _) result);
  ignore (Ifko_transform.Unroll.apply c p.Ifko_transform.Params.unroll : (unit, _) result);
  Ifko_transform.Loopctl.apply c;
  ignore (Ifko_transform.Accexp.apply c p.Ifko_transform.Params.ae : (unit, _) result);
  let f = c.Ifko_codegen.Lower.func in
  let count_instrs () =
    List.fold_left (fun a b -> a + List.length b.Block.instrs) 0 f.Cfg.blocks
  in
  let before = count_instrs () in
  let one_pass =
    let (_ : bool) = Ifko_transform.Copyprop.run f in
    let (_ : bool) = Ifko_transform.Peephole.run f in
    let (_ : bool) = Ifko_transform.Deadcode.run f in
    let (_ : bool) = Ifko_transform.Branchopt.run f in
    count_instrs ()
  in
  let iters = Ifko_transform.Pipeline.repeatable f in
  Printf.printf
    "  ddot UR=16 AE=4: %d instrs naive, %d after one pass, %d after fixpoint (%d rounds)\n"
    before one_pass (count_instrs ()) iters

let ablation_extrapolation () =
  print_endline "Ablation 4: timer steady-state extrapolation vs. full simulation";
  let cfg = Config.p4e in
  List.iter
    (fun id ->
      let compiled = Hil_sources.compile id in
      let report = Ifko_analysis.Report.analyze compiled in
      let d = Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report in
      let f = Ifko_search.Driver.compile_point ~cfg compiled d in
      let spec = Workload.timer_spec id ~seed in
      let n = 80000 in
      let cached_cycles kind run =
        match
          Ifko_store.Store.cached ?store:!store
            ~key:
              (Ifko_store.Store.timing_key ~kind ~func:(Cfg.to_string f)
                 ~machine:cfg.Config.name ~context:"out-of-cache" ~n ~seed)
            ~params:kind
            ~prov:(Printf.sprintf "ablation4:%s" (Defs.name id))
            (fun () -> Ifko_store.Store.Timed { cycles = run (); mflops = 0.0 })
        with
        | Ifko_store.Store.Timed { cycles; _ } -> cycles
        | _ -> nan
      in
      let extrap =
        cached_cycles "ablation4-extrap" (fun () ->
            Ifko_sim.Timer.measure ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n f)
      in
      let exact =
        cached_cycles "ablation4-exact" (fun () ->
            Ifko_sim.Timer.exact ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n f)
      in
      Printf.printf "  %-7s extrapolated=%.0f exact=%.0f cycles (error %+.2f%%)\n"
        (Defs.name id) extrap exact
        (100.0 *. ((extrap -. exact) /. exact)))
    [ { Defs.routine = Defs.Dot; prec = Instr.D };
      { Defs.routine = Defs.Copy; prec = Instr.S };
    ]

let ablation_future_work () =
  print_endline
    "Ablation 5: the paper's future-work transformations close the hand-tuned gaps";
  let cfg = Config.p4e in
  let id = { Defs.routine = Defs.Copy; prec = Instr.D } in
  let compiled = Hil_sources.compile id in
  let spec = Workload.timer_spec id ~seed in
  let test _ = true in
  let tune ~extensions =
    (Ifko_search.Driver.tune ~extensions ?store:!store ~jobs:!jobs ~seed ~cfg
       ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:80000 ~flops_per_n:1.0 ~test compiled)
      .Ifko_search.Driver.ifko_mflops
  in
  let published = tune ~extensions:false in
  let extended = tune ~extensions:true in
  let atlas =
    (Ifko_baselines.Atlas_search.select ?store:!store ~cfg
       ~context:Ifko_sim.Timer.Out_of_cache ~n:80000 ~seed id)
      .Ifko_baselines.Atlas_search.mflops
  in
  Printf.printf
    "  dcopy P4E oc: published ifko=%.0f, hand-tuned dcopy*=%.0f, ifko+block-fetch=%.0f MFLOPS\n"
    published atlas extended;
  Printf.printf "  (the block-fetch extension recovers %+.0f%% of ifko's gap to dcopy*)\n"
    (100.0 *. (extended -. published) /. Float.max 1.0 (atlas -. published));
  (* the SPECULATE mark-up vs. the hand-vectorized isamax* *)
  let idv = { Defs.routine = Defs.Iamax; prec = Instr.S } in
  let specv = Workload.timer_spec idv ~seed in
  let tune_iamax compiled =
    (Ifko_search.Driver.tune ?store:!store ~jobs:!jobs ~seed ~cfg
       ~context:Ifko_sim.Timer.Out_of_cache ~spec:specv ~n:80000 ~flops_per_n:2.0 ~test
       compiled)
      .Ifko_search.Driver.ifko_mflops
  in
  let scalar = tune_iamax (Hil_sources.compile idv) in
  let speculative = tune_iamax (Hil_sources.compile_speculative idv) in
  let atlas_iamax =
    (Ifko_baselines.Atlas_search.select ?store:!store ~cfg
       ~context:Ifko_sim.Timer.Out_of_cache ~n:80000 ~seed idv)
      .Ifko_baselines.Atlas_search.mflops
  in
  Printf.printf
    "  isamax P4E oc: published ifko=%.0f, hand-tuned isamax*=%.0f, ifko+SPECULATE=%.0f MFLOPS\n"
    scalar atlas_iamax speculative

let exp_ablations () =
  ablation_search ();
  ablation_prefetch_model ();
  ablation_repeatable ();
  ablation_extrapolation ();
  ablation_future_work ()

(* ---------- simulator throughput (simbench) ---------- *)

(* Interpreted-instructions-per-second of the two execution engines on
   every BLAS kernel at its tuned default point: the reference
   tree-walking interpreter vs. the pre-decoded threaded-code engine,
   untimed (pure semantics) and timed (full pipeline model).  The
   compiled engine decodes once outside the measurement loop — exactly
   how Timer/Driver/Oracle use it. *)

type simbench_row = {
  sb_kernel : string;
  sb_ref_untimed : float; (* MIPS *)
  sb_new_untimed : float;
  sb_ref_timed : float;
  sb_new_timed : float;
  (* fast-path coverage accumulated over the timed threaded reps *)
  sb_loads : int;
  sb_fast_loads : int;
  sb_stores : int;
  sb_fast_stores : int;
  (* superblock fusion (static per compiled kernel) *)
  sb_blocks : int;
  sb_fused_instrs : int;
}

let simbench_rows : simbench_row list ref = ref []
let simbench_n = 8192

(* Sampled-vs-full fidelity comparison, folded into simbench so one
   `make simbench` regenerates every number CI gates on.  Cycle error is
   deterministic (the simulator is); the wall-clock speedup rides the
   same steady-state rate loop as the engine rows.  [fd_work_ratio] is
   the deterministic work proxy — simulated elements per measurement,
   full over sampled — which the gate enforces so a loaded CI host
   cannot flake it. *)
type fidelity_row = {
  fd_kernel : string;
  fd_full_cycles : float;
  fd_sampled_cycles : float;
  fd_err_pct : float; (* |sampled - full| / full * 100, this run *)
  fd_work_ratio : float; (* full elems / sampled elems per measurement *)
  fd_speedup : float; (* wall-clock: full seconds-per-measure / sampled *)
  fd_full_us : float; (* wall microseconds per full measurement *)
  fd_samp_us : float; (* wall microseconds per sampled measurement *)
  fd_floor_us : float; (* sampled setup floor: arena + env + restore us/measure *)
  fd_fallback : string option; (* escape-hatch reason, when it fired *)
}

let fidelity_rows : fidelity_row list ref = ref []
let fidelity_n = 80000
let error_budget_pct = 1.0

let exp_simbench () =
  let cfg = Config.p4e in
  let n = simbench_n in
  let min_time = if !quick then 0.1 else 0.4 in
  (* steady-state rate: one warm-up run, then repeat until [min_time]
     has elapsed; returns interpreted MIPS *)
  let rate run =
    let (_ : int) = run () in
    let t0 = Unix.gettimeofday () in
    let instrs = ref 0 and elapsed = ref 0.0 in
    while !elapsed < min_time do
      instrs := !instrs + run ();
      elapsed := Unix.gettimeofday () -. t0
    done;
    float_of_int !instrs /. !elapsed /. 1e6
  in
  Printf.printf "Simulator throughput, P4E default points, N=%d (interpreted MIPS)\n" n;
  Printf.printf "  %-7s %14s %14s %8s %14s %14s %8s\n" "kernel" "walker-untimed"
    "threaded-untimed" "speedup" "walker-timed" "threaded-timed" "speedup";
  let rows =
    List.map
      (fun id ->
        let compiled = Hil_sources.compile id in
        let report = Ifko_analysis.Report.analyze compiled in
        let params =
          Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report
        in
        let func = Ifko_search.Driver.compile_point ~cfg compiled params in
        let cf = Ifko_sim.Exec.compile func in
        let spec = Workload.timer_spec id ~seed in
        let env = spec.Ifko_sim.Timer.make_env n in
        let rfs = spec.Ifko_sim.Timer.ret_fsize in
        let ms = Ifko_machine.Memsys.create cfg in
        let timing () =
          Ifko_machine.Memsys.reset ms ~flush:true;
          (cfg, ms)
        in
        (* Memsys.reset clears the profile counters, so coverage is
           accumulated per repetition during the timed threaded phase. *)
        let loads = ref 0 and fast_loads = ref 0 in
        let stores = ref 0 and fast_stores = ref 0 in
        let demand = ref 0 and demand_cy = ref 0.0 and bus_cy = ref 0.0 in
        let sw_pf = ref 0 and sw_drop = ref 0 and hw_pf = ref 0 in
        let timed_threaded () =
          let r = Ifko_sim.Exec.exec ~timing:(timing ()) ~ret_fsize:rfs cf env in
          let p = Memsys.profile ms in
          loads := !loads + p.Memsys.loads;
          fast_loads := !fast_loads + p.Memsys.fast_loads;
          stores := !stores + p.Memsys.stores;
          fast_stores := !fast_stores + p.Memsys.fast_stores;
          demand := !demand + p.Memsys.demand_misses;
          demand_cy := !demand_cy +. p.Memsys.demand_cycles;
          bus_cy := !bus_cy +. p.Memsys.bus_cycles;
          sw_pf := !sw_pf + p.Memsys.sw_pf_issued;
          sw_drop := !sw_drop + p.Memsys.sw_pf_dropped;
          hw_pf := !hw_pf + p.Memsys.hw_pf_issued;
          r.Ifko_sim.Exec.instr_count
        in
        let blocks, fused_instrs = Ifko_sim.Exec.fusion cf in
        let ref_untimed =
          rate (fun () ->
              (Ifko_sim.Exec.run_reference ~ret_fsize:rfs func env)
                .Ifko_sim.Exec.instr_count)
        in
        let new_untimed =
          rate (fun () ->
              (Ifko_sim.Exec.exec ~ret_fsize:rfs cf env).Ifko_sim.Exec.instr_count)
        in
        let ref_timed =
          rate (fun () ->
              (Ifko_sim.Exec.run_reference ~timing:(timing ()) ~ret_fsize:rfs func env)
                .Ifko_sim.Exec.instr_count)
        in
        let new_timed = rate timed_threaded in
        let row =
          {
            sb_kernel = Defs.name id;
            sb_ref_untimed = ref_untimed;
            sb_new_untimed = new_untimed;
            sb_ref_timed = ref_timed;
            sb_new_timed = new_timed;
            sb_loads = !loads;
            sb_fast_loads = !fast_loads;
            sb_stores = !stores;
            sb_fast_stores = !fast_stores;
            sb_blocks = blocks;
            sb_fused_instrs = fused_instrs;
          }
        in
        Printf.printf "  %-7s %14.1f %16.1f %7.1fx %14.1f %14.1f %7.1fx\n" row.sb_kernel
          row.sb_ref_untimed row.sb_new_untimed
          (row.sb_new_untimed /. row.sb_ref_untimed)
          row.sb_ref_timed row.sb_new_timed
          (row.sb_new_timed /. row.sb_ref_timed);
        if !profile_mode then begin
          let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
          Printf.printf
            "          fast-path: loads %.1f%% of %d, stores %.1f%% of %d; fusion: %d \
             bodies / %d instrs\n"
            (pct !fast_loads !loads) !loads (pct !fast_stores !stores) !stores blocks
            fused_instrs;
          Printf.printf
            "          attribution: %d demand misses (%.2e cy), bus %.2e cy, sw-pf \
             %d issued / %d dropped, hw-pf %d\n"
            !demand !demand_cy !bus_cy !sw_pf !sw_drop !hw_pf
        end;
        row)
      (kernels ())
  in
  let geo f = Ifko_util.Stats.geomean (List.map f rows) in
  Printf.printf "  geomean speedup: %.1fx untimed, %.1fx timed\n"
    (geo (fun r -> r.sb_new_untimed /. r.sb_ref_untimed))
    (geo (fun r -> r.sb_new_timed /. r.sb_ref_timed));
  simbench_rows := rows;
  (* sampled-vs-full fidelity: every kernel at its default point,
     out-of-cache N=80000 — the tuning driver's hot measurement.  Each
     kernel gets a fresh checkpoint cache, exactly as Driver.tune
     allocates one per tune; the warm-up therefore amortizes across the
     timed repetitions the same way it amortizes across probe points. *)
  Printf.printf "\n  Sampled vs full fidelity, out-of-cache, N=%d\n" fidelity_n;
  Printf.printf "  %-7s %14s %14s %8s %6s %8s %8s  %s\n" "kernel" "full-cycles"
    "sampled-cycles" "err%" "work" "speedup" "us/meas" "fallback";
  let frows =
    List.map
      (fun id ->
        let compiled = Hil_sources.compile id in
        let report = Ifko_analysis.Report.analyze compiled in
        let params =
          Ifko_transform.Params.default ~line_bytes:cfg.Config.prefetchable_line report
        in
        let func = Ifko_search.Driver.compile_point ~cfg compiled params in
        let cf = Ifko_sim.Exec.compile func in
        let spec = Workload.timer_spec id ~seed in
        let ckpt = Ifko_sim.Ckpt.create ~cfg () in
        let measure fid =
          Ifko_sim.Timer.measure_ext ~fidelity:fid
            ~ckpt:(ckpt, Defs.name id)
            ~cfg ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:fidelity_n cf
        in
        let m_full = measure Ifko_sim.Timer.Full in
        (* prime the checkpoint (warm-up + transient pair), then report
           the steady-state call — what every probe after a tune's
           first sees; cycles are bit-identical either way *)
        ignore (measure Ifko_sim.Timer.Sampled : Ifko_sim.Timer.measurement);
        let m_samp = measure Ifko_sim.Timer.Sampled in
        (* seconds per measurement, steady state: the calls above
           already created the checkpoint *)
        let secs fid =
          let t0 = Unix.gettimeofday () in
          let k = ref 0 and elapsed = ref 0.0 in
          while !elapsed < min_time do
            ignore (measure fid : Ifko_sim.Timer.measurement);
            incr k;
            elapsed := Unix.gettimeofday () -. t0
          done;
          (!elapsed /. float_of_int !k, !k)
        in
        let t_full, _ = secs Ifko_sim.Timer.Full in
        (* the sampled loop runs under the wall-time attribution
           instrument: the setup floor (arena + env + restore per
           measurement) is what the pooling layers exist to shrink,
           and the JSON gate watches it *)
        Ifko_sim.Timer.profile_reset ();
        Ifko_sim.Timer.profile_enable true;
        let t_samp, k_samp = secs Ifko_sim.Timer.Sampled in
        Ifko_sim.Timer.profile_enable false;
        let attr = Ifko_sim.Timer.profile () in
        let per_call s = 1e6 *. s /. float_of_int k_samp in
        let row =
          {
            fd_kernel = Defs.name id;
            fd_full_cycles = m_full.Ifko_sim.Timer.m_cycles;
            fd_sampled_cycles = m_samp.Ifko_sim.Timer.m_cycles;
            fd_err_pct =
              100.0
              *. Float.abs (m_samp.Ifko_sim.Timer.m_cycles -. m_full.Ifko_sim.Timer.m_cycles)
              /. m_full.Ifko_sim.Timer.m_cycles;
            fd_work_ratio =
              float_of_int m_full.Ifko_sim.Timer.m_elems
              /. float_of_int m_samp.Ifko_sim.Timer.m_elems;
            fd_speedup = t_full /. t_samp;
            fd_full_us = t_full *. 1e6;
            fd_samp_us = t_samp *. 1e6;
            fd_floor_us =
              per_call
                (attr.Ifko_sim.Timer.at_arena_s +. attr.Ifko_sim.Timer.at_env_s
               +. attr.Ifko_sim.Timer.at_restore_s);
            fd_fallback = m_samp.Ifko_sim.Timer.m_fallback;
          }
        in
        Printf.printf "  %-7s %14.0f %14.0f %7.3f%% %5.1fx %7.1fx %7.1f  %s\n" row.fd_kernel
          row.fd_full_cycles row.fd_sampled_cycles row.fd_err_pct row.fd_work_ratio
          row.fd_speedup row.fd_samp_us
          (Option.value row.fd_fallback ~default:"-");
        if !profile_mode then
          Printf.printf
            "          attribution: arena %.1f us, env %.1f us, restore %.1f us, exec \
             %.1f us per sampled measure (floor %.1f us)\n"
            (per_call attr.Ifko_sim.Timer.at_arena_s)
            (per_call attr.Ifko_sim.Timer.at_env_s)
            (per_call attr.Ifko_sim.Timer.at_restore_s)
            (per_call attr.Ifko_sim.Timer.at_exec_s)
            row.fd_floor_us;
        row)
      (kernels ())
  in
  let fgeo f = Ifko_util.Stats.geomean (List.map f frows) in
  Printf.printf
    "  geomean: cycle error %.3f%% (budget %.1f%%), work ratio %.2fx, wall speedup %.2fx, \
     %.1f us/measure (floor %.1f us)\n"
    (fgeo (fun r -> r.fd_err_pct))
    error_budget_pct
    (fgeo (fun r -> r.fd_work_ratio))
    (fgeo (fun r -> r.fd_speedup))
    (fgeo (fun r -> r.fd_samp_us))
    (fgeo (fun r -> r.fd_floor_us));
  fidelity_rows := frows

(* ---------- servebench: load generator against the tuning daemon ---------- *)

module Serve_proto = Ifko_serve.Proto
module Serve_server = Ifko_serve.Server
module Serve_client = Ifko_serve.Client

type servebench_summary = {
  sv_clients : int;
  sv_jobs : int;
  sv_workpoints : int;
  sv_requests : int; (* warm phase *)
  sv_throughput : float; (* warm requests per second *)
  sv_p50_ms : float;
  sv_p95_ms : float;
  sv_p99_ms : float;
  sv_hit_rate : float; (* warm phase *)
  sv_cold_seconds : float;
  sv_bit_identical : bool;
}

let servebench : servebench_summary option ref = ref None

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let exp_servebench () =
  (* Hot workpoints occupy the head of the zipf distribution and are all
     tuned during the cold phase; the tail points are reached only
     through the skewed sampler, so the warm phase still sees a few
     genuine misses (a lookup on a never-tuned point, or the one tune
     that first computes it) without dropping under the 90%% bar. *)
  let dk routine = { Defs.routine; prec = Instr.D } in
  let hot_kernels =
    List.map dk
      (if !quick then [ Defs.Dot; Defs.Asum ]
       else [ Defs.Dot; Defs.Asum; Defs.Axpy; Defs.Copy; Defs.Scal ])
  in
  let hot_ns = if !quick then [ 400 ] else [ 400; 800 ] in
  let point id n =
    { (Serve_proto.default_args ~kernel:(Hil_sources.source id)) with
      Serve_proto.n;
      seed;
      flops_per_n = Defs.flops_per_n id.Defs.routine;
    }
  in
  let hot = List.concat_map (fun id -> List.map (point id) hot_ns) hot_kernels in
  let tail =
    List.map
      (fun id -> point id 240)
      (if !quick then [ dk Defs.Dot ] else [ dk Defs.Dot; dk Defs.Asum ])
  in
  let points = Array.of_list (hot @ tail) in
  let clients = if !quick then 3 else 4 in
  let warm_requests = if !quick then 600 else 3000 in
  let daemon_jobs = max 2 !jobs in
  (* zipf(1.1) over workpoint ranks *)
  let weights =
    Array.init (Array.length points) (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) 1.1)
  in
  let cum = Array.make (Array.length weights) 0.0 in
  let _ =
    Array.fold_left
      (fun (i, acc) w ->
        let acc = acc +. w in
        cum.(i) <- acc;
        (i + 1, acc))
      (0, 0.0) weights
  in
  let total_w = cum.(Array.length cum - 1) in
  let pick rng =
    let x = Ifko_util.Rng.float rng total_w in
    let rec find i = if x <= cum.(i) || i = Array.length cum - 1 then i else find (i + 1) in
    points.(find 0)
  in
  (* in-process daemon on a temp Unix socket *)
  let store_dir = Filename.temp_file "ifko_servebench" "" in
  Sys.remove store_dir;
  let sock = store_dir ^ ".sock" in
  let listen = `Unix sock in
  let config =
    { (Serve_server.default_config ~store_dir listen) with
      Serve_server.jobs = daemon_jobs;
      shards = 4;
    }
  in
  let ready_m = Mutex.create () and ready_cv = Condition.create () and up = ref false in
  let daemon =
    Thread.create
      (fun () ->
        Serve_server.run
          ~ready:(fun () ->
            Mutex.lock ready_m;
            up := true;
            Condition.signal ready_cv;
            Mutex.unlock ready_m)
          config)
      ()
  in
  Mutex.lock ready_m;
  while not !up do
    Condition.wait ready_cv ready_m
  done;
  Mutex.unlock ready_m;
  Fun.protect
    ~finally:(fun () ->
      (try Serve_client.with_client listen (fun c -> ignore (Serve_client.shutdown c))
       with _ -> ());
      Thread.join daemon;
      rm_rf store_dir)
    (fun () ->
      Printf.printf "Tuning service: %d clients, %d workpoints, jobs=%d, 4 shards\n%!"
        clients (Array.length points) daemon_jobs;
      (* cold phase: the hot set is tuned once, split across clients *)
      let t0 = Unix.gettimeofday () in
      let cold_threads =
        Array.init clients (fun ci ->
            Thread.create
              (fun () ->
                Serve_client.with_client listen (fun c ->
                    List.iteri
                      (fun i a ->
                        if i mod clients = ci then
                          match Serve_client.tune c a with
                          | Ok _ -> ()
                          | Error e -> failwith ("servebench cold tune: " ^ e))
                      hot))
              ())
      in
      Array.iter Thread.join cold_threads;
      let cold_seconds = Unix.gettimeofday () -. t0 in
      Printf.printf "  cold phase: %d tunes in %.1f s\n%!" (List.length hot) cold_seconds;
      (* bit-identity spot check: the daemon's cached replies for the two
         hottest points must equal a sequential, storeless Driver.tune *)
      let identical =
        List.for_all
          (fun (a : Serve_proto.tune_args) ->
            let compiled =
              a.Serve_proto.kernel |> Ifko_hil.Parser.parse_kernel
              |> Ifko_hil.Typecheck.check |> Ifko_codegen.Lower.lower
            in
            let spec = Ifko_search.Generic.spec ~seed:a.Serve_proto.seed compiled in
            let t =
              Ifko_search.Driver.tune ~seed:a.Serve_proto.seed ~cfg:Config.p4e
                ~context:Ifko_sim.Timer.Out_of_cache ~spec ~n:a.Serve_proto.n
                ~flops_per_n:a.Serve_proto.flops_per_n
                ~test:(Ifko_search.Generic.test compiled spec)
                compiled
            in
            match Serve_client.with_client listen (fun c -> Serve_client.lookup c a) with
            | Ok (Some r) ->
              r.Serve_proto.best
              = Ifko_transform.Params.canonical t.Ifko_search.Driver.best_params
              && Int64.bits_of_float r.Serve_proto.mflops
                 = Int64.bits_of_float t.Ifko_search.Driver.ifko_mflops
              && Int64.bits_of_float r.Serve_proto.fko_mflops
                 = Int64.bits_of_float t.Ifko_search.Driver.fko_mflops
              && r.Serve_proto.evaluations = t.Ifko_search.Driver.evaluations
            | Ok None | Error _ -> false)
          (List.filteri (fun i _ -> i < 2) hot)
      in
      if not identical then begin
        Printf.eprintf "servebench: daemon replies are not bit-identical to Driver.tune\n";
        exit 1
      end;
      Printf.printf "  bit-identity vs sequential Driver.tune: ok\n%!";
      (* warm phase: zipf-skewed mix, 70%% lookups / 30%% tunes *)
      let per_client = warm_requests / clients in
      let lat = Array.init clients (fun _ -> ref []) in
      let hits = Array.make clients 0 and misses = Array.make clients 0 in
      let t1 = Unix.gettimeofday () in
      let warm_threads =
        Array.init clients (fun ci ->
            Thread.create
              (fun () ->
                let rng = Ifko_util.Rng.create (seed + (7919 * (ci + 1))) in
                Serve_client.with_client listen (fun c ->
                    for _ = 1 to per_client do
                      let a = pick rng in
                      let tune = Ifko_util.Rng.uniform rng < 0.3 in
                      let r0 = Unix.gettimeofday () in
                      let hit =
                        if tune then
                          match Serve_client.tune c a with
                          | Ok r -> r.Serve_proto.hit
                          | Error e -> failwith ("servebench warm tune: " ^ e)
                        else
                          match Serve_client.lookup c a with
                          | Ok (Some r) -> r.Serve_proto.hit
                          | Ok None -> false
                          | Error e -> failwith ("servebench warm lookup: " ^ e)
                      in
                      lat.(ci) := (Unix.gettimeofday () -. r0) :: !(lat.(ci));
                      if hit then hits.(ci) <- hits.(ci) + 1
                      else misses.(ci) <- misses.(ci) + 1
                    done))
              ())
      in
      Array.iter Thread.join warm_threads;
      let warm_seconds = Unix.gettimeofday () -. t1 in
      let requests = per_client * clients in
      let all_lat = Array.of_list (List.concat_map ( ! ) (Array.to_list lat)) in
      Array.sort compare all_lat;
      let p50 = 1000.0 *. percentile all_lat 50.0 in
      let p95 = 1000.0 *. percentile all_lat 95.0 in
      let p99 = 1000.0 *. percentile all_lat 99.0 in
      let hit_total = Array.fold_left ( + ) 0 hits in
      let hit_rate = float_of_int hit_total /. float_of_int requests in
      let throughput = float_of_int requests /. warm_seconds in
      Printf.printf
        "  warm phase: %d requests in %.2f s — %.0f req/s, p50 %.2f ms, p95 %.2f ms, \
         p99 %.2f ms, hit rate %.1f%%\n"
        requests warm_seconds throughput p50 p95 p99 (100.0 *. hit_rate);
      if hit_rate < 0.9 then begin
        Printf.eprintf "servebench: warm hit rate %.3f below the 0.90 bar\n" hit_rate;
        exit 1
      end;
      servebench :=
        Some
          {
            sv_clients = clients;
            sv_jobs = daemon_jobs;
            sv_workpoints = Array.length points;
            sv_requests = requests;
            sv_throughput = throughput;
            sv_p50_ms = p50;
            sv_p95_ms = p95;
            sv_p99_ms = p99;
            sv_hit_rate = hit_rate;
            sv_cold_seconds = cold_seconds;
            sv_bit_identical = identical;
          })

(* ---------- searchbench: probes-to-best per search strategy ---------- *)

(* The strategies race on probes-to-best: the 1-based evaluation index
   at which the tune's final winner was first measured.  Three runs per
   kernel at the same workpoint — the paper's line search (the
   baseline), the cold surrogate, and the surrogate warm-started from a
   donor store holding each kernel's own tune at half the problem size
   (the canonical warm scenario: "tuned yesterday at another N").  The
   simulator is deterministic, so every column is exactly reproducible
   and the gates below cannot flake. *)
type searchbench_row = {
  se_kernel : string;
  se_line_probes : int; (* linesearch probes-to-best *)
  se_line_evals : int;
  se_line_best : float; (* MFLOPS *)
  se_surr_probes : int; (* cold surrogate *)
  se_surr_evals : int;
  se_surr_best : float;
  se_warm_probes : int; (* store-warmed surrogate *)
  se_warm_evals : int;
  se_warm_best : float;
}

let searchbench_rows : searchbench_row list ref = ref []
let searchbench_n = 2000
let searchbench_donor_n = 1000

let exp_searchbench () =
  let cfg = Config.p4e in
  let context = Ifko_sim.Timer.Out_of_cache in
  let n = if !quick then 800 else searchbench_n in
  let donor_n = if !quick then 400 else searchbench_donor_n in
  let tune ?strategy ?(warm_start = false) ?donors ?store id ~n =
    let compiled = Hil_sources.compile id in
    let spec = Workload.timer_spec id ~seed in
    Ifko_search.Driver.tune ?strategy ~warm_start ?donors ?store ~jobs:!jobs ~seed ~cfg
      ~context ~spec ~n
      ~flops_per_n:(Defs.flops_per_n id.Defs.routine)
      ~test:(Ifko_eval.Eval.make_test id ~seed) compiled
  in
  (* donor phase: a line-search tune of every kernel at donor_n,
     journaled into a throwaway store — Driver.tune records a
     tune-level entry (winner + analysis fingerprint) for each *)
  let store_file = Filename.temp_file "ifko_searchbench" ".jsonl" in
  let dstore = Ifko_store.Store.open_ ~seed store_file in
  let donors =
    Fun.protect
      ~finally:(fun () ->
        Ifko_store.Store.close dstore;
        Sys.remove store_file)
      (fun () ->
        Printf.printf "Donor store: line-search tunes at N=%d\n%!" donor_n;
        List.iter
          (fun id -> ignore (tune ~store:dstore id ~n:donor_n : Ifko_search.Driver.tuned))
          (kernels ());
        Ifko_search.Warmstart.donors_of_store dstore)
  in
  Printf.printf "Search strategies, P4E out-of-cache, N=%d (%d donors)\n" n
    (List.length donors);
  Printf.printf "  %-7s | %-17s | %-25s | %s\n" "kernel" "linesearch" "surrogate (cold)"
    "surrogate (warm)";
  Printf.printf "  %-7s | %6s %10s | %6s %10s %7s | %6s %10s %7s\n" "" "probes" "mflops"
    "probes" "mflops" "ratio" "probes" "mflops" "ratio";
  let rows =
    List.map
      (fun id ->
        let line = tune id ~n in
        let surr = tune ~strategy:Ifko_search.Driver.Surrogate id ~n in
        let warm =
          tune ~strategy:Ifko_search.Driver.Surrogate ~warm_start:true ~donors id ~n
        in
        let row =
          {
            se_kernel = Defs.name id;
            se_line_probes = line.Ifko_search.Driver.probes_to_best;
            se_line_evals = line.Ifko_search.Driver.evaluations;
            se_line_best = line.Ifko_search.Driver.ifko_mflops;
            se_surr_probes = surr.Ifko_search.Driver.probes_to_best;
            se_surr_evals = surr.Ifko_search.Driver.evaluations;
            se_surr_best = surr.Ifko_search.Driver.ifko_mflops;
            se_warm_probes = warm.Ifko_search.Driver.probes_to_best;
            se_warm_evals = warm.Ifko_search.Driver.evaluations;
            se_warm_best = warm.Ifko_search.Driver.ifko_mflops;
          }
        in
        Printf.printf "  %-7s | %6d %10.1f | %6d %10.1f %6.2fx | %6d %10.1f %6.2fx\n"
          row.se_kernel row.se_line_probes row.se_line_best row.se_surr_probes
          row.se_surr_best
          (float_of_int row.se_surr_probes /. float_of_int row.se_line_probes)
          row.se_warm_probes row.se_warm_best
          (float_of_int row.se_warm_probes /. float_of_int row.se_surr_probes);
        row)
      (kernels ())
  in
  let geo f = Ifko_util.Stats.geomean (List.map f rows) in
  let probe_ratio =
    geo (fun r -> float_of_int r.se_surr_probes /. float_of_int r.se_line_probes)
  in
  let warm_ratio =
    geo (fun r -> float_of_int r.se_warm_probes /. float_of_int r.se_surr_probes)
  in
  let best_ratio = geo (fun r -> r.se_surr_best /. r.se_line_best) in
  Printf.printf
    "  geomean: surrogate %.2fx linesearch probes-to-best at %.3fx its MFLOPS; warm \
     start %.2fx the cold surrogate's probes-to-best\n"
    probe_ratio best_ratio warm_ratio;
  (* the CI gates: the surrogate must reach linesearch-level MFLOPS in
     well under its probes, and warm starts must halve the surrogate's
     own cold probes-to-best *)
  if probe_ratio > 0.6 then begin
    Printf.eprintf
      "searchbench: surrogate probes-to-best geomean %.2fx linesearch exceeds the 0.6x \
       bar\n"
      probe_ratio;
    exit 1
  end;
  if best_ratio < 0.999 then begin
    Printf.eprintf
      "searchbench: surrogate MFLOPS geomean fell to %.4fx of linesearch (same-or-better \
       bar)\n"
      best_ratio;
    exit 1
  end;
  if warm_ratio > 0.5 then begin
    Printf.eprintf
      "searchbench: warm-start probes-to-best geomean %.2fx of cold exceeds the 0.5x bar\n"
      warm_ratio;
    exit 1
  end;
  searchbench_rows := rows

(* ---------- bechamel micro-benchmarks of the harness machinery ---------- *)

let bechamel_tests () =
  let open Bechamel in
  let ddot = { Defs.routine = Defs.Dot; prec = Instr.D } in
  let compiled = Hil_sources.compile ddot in
  let report = Ifko_analysis.Report.analyze compiled in
  let params = Ifko_transform.Params.default ~line_bytes:128 report in
  let func = Ifko_search.Driver.compile_point ~cfg:Config.p4e compiled params in
  let spec = Workload.timer_spec ddot ~seed in
  (* one Test.make per table/figure family, exercising the machinery
     that regenerates it *)
  Test.make_grouped ~name:"ifko" ~fmt:"%s %s"
    [ Test.make ~name:"table1-render"
        (Staged.stage (fun () -> ignore (Ifko_eval.Figures.table1 () : string)));
      Test.make ~name:"fig2-compile-point"
        (Staged.stage (fun () ->
             ignore
               (Ifko_search.Driver.compile_point ~cfg:Config.p4e compiled params : Cfg.func)));
      Test.make ~name:"fig2-oc-timing-n80000"
        (Staged.stage (fun () ->
             ignore
               (Ifko_sim.Timer.measure ~cfg:Config.p4e ~context:Ifko_sim.Timer.Out_of_cache
                  ~spec ~n:80000 func
                 : float)));
      Test.make ~name:"fig4-l2-timing-n1024"
        (Staged.stage (fun () ->
             ignore
               (Ifko_sim.Timer.measure ~cfg:Config.p4e ~context:Ifko_sim.Timer.In_l2 ~spec
                  ~n:1024 func
                 : float)));
      Test.make ~name:"table3-analysis"
        (Staged.stage (fun () ->
             ignore (Ifko_analysis.Report.analyze compiled : Ifko_analysis.Report.t)));
    ]

let run_bechamel () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-45s %14.1f ns/run\n" name est
      | _ -> Printf.printf "%-45s (no estimate)\n" name)
    results

(* ---------- driver ---------- *)

let experiments =
  [ ("table1", exp_table1); ("table2", exp_table2); ("fig2", exp_fig2); ("fig3", exp_fig3);
    ("fig4", exp_fig4); ("fig5a", exp_fig5a); ("fig5b", exp_fig5b); ("table3", exp_table3);
    ("fig7", exp_fig7); ("opteron_l2", exp_opteron_l2); ("ablations", exp_ablations);
    ("simbench", exp_simbench); ("servebench", exp_servebench);
    ("searchbench", exp_searchbench);
  ]

(* Per-experiment record for BENCH_results.json: wall-clock plus the
   store traffic the experiment generated (misses = probes actually
   compiled/verified/timed this run; hits = answered from the journal). *)
type exp_stats = { exp_name : string; seconds : float; exp_hits : int; exp_misses : int }

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_results_json ~path ~total_seconds (stats : exp_stats list) =
  let oc = open_out path in
  let rate h m = if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m) in
  Printf.fprintf oc "{\n  \"schema\": 1,\n  \"quick\": %b,\n  \"jobs\": %d,\n" !quick !jobs;
  Printf.fprintf oc "  \"seed\": %d,\n" seed;
  (match !store with
  | Some st ->
    Printf.fprintf oc "  \"store\": \"%s\",\n" (json_escape (Ifko_store.Store.path st));
    Printf.fprintf oc "  \"store_entries\": %d,\n" (Ifko_store.Store.entries st)
  | None -> Printf.fprintf oc "  \"store\": null,\n");
  (match !simbench_rows with
  | [] -> ()
  | rows ->
    let geo f = Ifko_util.Stats.geomean (List.map f rows) in
    Printf.fprintf oc "  \"simbench\": {\n";
    Printf.fprintf oc "    \"machine\": \"P4E\",\n    \"n\": %d,\n" simbench_n;
    Printf.fprintf oc "    \"geomean_speedup_untimed\": %.2f,\n"
      (geo (fun r -> r.sb_new_untimed /. r.sb_ref_untimed));
    Printf.fprintf oc "    \"geomean_speedup_timed\": %.2f,\n"
      (geo (fun r -> r.sb_new_timed /. r.sb_ref_timed));
    (match !fidelity_rows with
    | [] -> ()
    | frows ->
      let fgeo f = Ifko_util.Stats.geomean (List.map f frows) in
      Printf.fprintf oc "    \"fidelity\": {\n";
      Printf.fprintf oc "      \"n\": %d,\n      \"error_budget_pct\": %.2f,\n" fidelity_n
        error_budget_pct;
      Printf.fprintf oc "      \"geomean_cycle_err_pct\": %.4f,\n"
        (fgeo (fun r -> r.fd_err_pct));
      Printf.fprintf oc "      \"geomean_work_ratio\": %.2f,\n"
        (fgeo (fun r -> r.fd_work_ratio));
      Printf.fprintf oc "      \"geomean_sampled_speedup\": %.2f,\n"
        (fgeo (fun r -> r.fd_speedup));
      Printf.fprintf oc "      \"geomean_full_us_per_measure\": %.2f,\n"
        (fgeo (fun r -> r.fd_full_us));
      Printf.fprintf oc "      \"geomean_sampled_us_per_measure\": %.2f,\n"
        (fgeo (fun r -> r.fd_samp_us));
      Printf.fprintf oc "      \"geomean_floor_us_per_measure\": %.2f,\n"
        (fgeo (fun r -> r.fd_floor_us));
      Printf.fprintf oc "      \"kernels\": [\n";
      List.iteri
        (fun i r ->
          Printf.fprintf oc
            "        {\"fid_kernel\": \"%s\", \"fid_full_cycles\": %.1f, \
             \"fid_sampled_cycles\": %.1f, \"fid_err_pct\": %.4f, \
             \"fid_work_ratio\": %.2f, \"fid_speedup\": %.2f, \"fid_full_us\": %.2f, \
             \"fid_samp_us\": %.2f, \"fid_floor_us\": %.2f, \"fid_fallback\": %s}%s\n"
            (json_escape r.fd_kernel) r.fd_full_cycles r.fd_sampled_cycles r.fd_err_pct
            r.fd_work_ratio r.fd_speedup r.fd_full_us r.fd_samp_us r.fd_floor_us
            (match r.fd_fallback with
            | None -> "null"
            | Some s -> Printf.sprintf "\"%s\"" (json_escape s))
            (if i = List.length frows - 1 then "" else ","))
        frows;
      Printf.fprintf oc "      ]\n    },\n");
    Printf.fprintf oc "    \"kernels\": [\n";
    List.iteri
      (fun i r ->
        let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
        Printf.fprintf oc
          "      {\"kernel\": \"%s\", \"walker_untimed_mips\": %.2f, \
           \"threaded_untimed_mips\": %.2f, \"walker_timed_mips\": %.2f, \
           \"threaded_timed_mips\": %.2f, \"fast_load_frac\": %.4f, \
           \"fast_store_frac\": %.4f, \"fused_blocks\": %d, \"fused_instrs\": %d}%s\n"
          (json_escape r.sb_kernel) r.sb_ref_untimed r.sb_new_untimed r.sb_ref_timed
          r.sb_new_timed
          (frac r.sb_fast_loads r.sb_loads)
          (frac r.sb_fast_stores r.sb_stores)
          r.sb_blocks r.sb_fused_instrs
          (if i = List.length rows - 1 then "" else ","))
      rows;
    Printf.fprintf oc "    ]\n  },\n");
  (match !servebench with
  | None -> ()
  | Some s ->
    Printf.fprintf oc "  \"servebench\": {\n";
    Printf.fprintf oc "    \"clients\": %d,\n    \"jobs\": %d,\n    \"shards\": 4,\n"
      s.sv_clients s.sv_jobs;
    Printf.fprintf oc "    \"workpoints\": %d,\n    \"warm_requests\": %d,\n"
      s.sv_workpoints s.sv_requests;
    Printf.fprintf oc "    \"throughput_rps\": %.1f,\n" s.sv_throughput;
    Printf.fprintf oc "    \"p50_ms\": %.3f,\n    \"p95_ms\": %.3f,\n    \"p99_ms\": %.3f,\n"
      s.sv_p50_ms s.sv_p95_ms s.sv_p99_ms;
    Printf.fprintf oc "    \"hit_rate\": %.4f,\n" s.sv_hit_rate;
    Printf.fprintf oc "    \"cold_seconds\": %.3f,\n" s.sv_cold_seconds;
    Printf.fprintf oc "    \"bit_identical\": %b\n  },\n" s.sv_bit_identical);
  (match !searchbench_rows with
  | [] -> ()
  | rows ->
    let geo f = Ifko_util.Stats.geomean (List.map f rows) in
    Printf.fprintf oc "  \"searchbench\": {\n";
    Printf.fprintf oc "    \"machine\": \"P4E\",\n    \"n\": %d,\n    \"donor_n\": %d,\n"
      (if !quick then 800 else searchbench_n)
      (if !quick then 400 else searchbench_donor_n);
    Printf.fprintf oc "    \"geomean_surrogate_probe_ratio\": %.4f,\n"
      (geo (fun r -> float_of_int r.se_surr_probes /. float_of_int r.se_line_probes));
    Printf.fprintf oc "    \"geomean_surrogate_mflops_ratio\": %.4f,\n"
      (geo (fun r -> r.se_surr_best /. r.se_line_best));
    Printf.fprintf oc "    \"geomean_warm_probe_ratio\": %.4f,\n"
      (geo (fun r -> float_of_int r.se_warm_probes /. float_of_int r.se_surr_probes));
    Printf.fprintf oc "    \"kernels\": [\n";
    List.iteri
      (fun i r ->
        Printf.fprintf oc
          "      {\"kernel\": \"%s\", \"linesearch_probes_to_best\": %d, \
           \"linesearch_evaluations\": %d, \"linesearch_mflops\": %.1f, \
           \"surrogate_probes_to_best\": %d, \"surrogate_evaluations\": %d, \
           \"surrogate_mflops\": %.1f, \"warm_probes_to_best\": %d, \
           \"warm_evaluations\": %d, \"warm_mflops\": %.1f}%s\n"
          (json_escape r.se_kernel) r.se_line_probes r.se_line_evals r.se_line_best
          r.se_surr_probes r.se_surr_evals r.se_surr_best r.se_warm_probes r.se_warm_evals
          r.se_warm_best
          (if i = List.length rows - 1 then "" else ","))
      rows;
    Printf.fprintf oc "    ]\n  },\n");
  Printf.fprintf oc "  \"total_seconds\": %.3f,\n  \"experiments\": [\n" total_seconds;
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"seconds\": %.3f, \"probes_computed\": %d, \
         \"store_hits\": %d, \"hit_rate\": %.4f}%s\n"
        (json_escape s.exp_name) s.seconds s.exp_misses s.exp_hits
        (rate s.exp_hits s.exp_misses)
        (if i = List.length stats - 1 then "" else ","))
    stats;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc

(* Pull the simbench geomeans (and the fidelity block, when present)
   out of a previous results file.  The writer above is the only
   producer, so a targeted scan is enough — no JSON parser in the
   toolchain's stdlib. *)
let read_baseline path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let find_from needle start =
    let rec find i =
      if i + String.length needle > String.length s then None
      else if String.sub s i (String.length needle) = needle then
        Some (i + String.length needle)
      else find (i + 1)
    in
    find start
  in
  let number_at i =
    let j = ref i in
    while !j < String.length s && (s.[!j] = ' ' || s.[!j] = '\n') do incr j done;
    let k = ref !j in
    while
      !k < String.length s
      && (match s.[!k] with '0' .. '9' | '.' | '-' | 'e' | '+' -> true | _ -> false)
    do
      incr k
    done;
    (float_of_string (String.sub s !j (!k - !j)), !k)
  in
  let field_opt key =
    Option.map
      (fun i -> fst (number_at i))
      (find_from (Printf.sprintf "\"%s\":" key) 0)
  in
  let field key =
    match field_opt key with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: no %S field (not a results file?)" path key)
  in
  let full_cycles =
    let rec scan start acc =
      match find_from "\"fid_kernel\": \"" start with
      | None -> List.rev acc
      | Some i -> (
        let j = String.index_from s i '"' in
        let name = String.sub s i (j - i) in
        match find_from "\"fid_full_cycles\":" j with
        | None -> List.rev acc
        | Some k ->
          let v, next = number_at k in
          scan next ((name, v) :: acc))
    in
    scan 0 []
  in
  {
    b_untimed = field "geomean_speedup_untimed";
    b_timed = field "geomean_speedup_timed";
    b_fid_err = field_opt "geomean_cycle_err_pct";
    b_fid_speedup = field_opt "geomean_sampled_speedup";
    b_fid_work = field_opt "geomean_work_ratio";
    b_fid_us = field_opt "geomean_sampled_us_per_measure";
    b_full_us = field_opt "geomean_full_us_per_measure";
    b_full_cycles = full_cycles;
  }

(* Baseline-vs-current table for the CI job summary (--delta-md).
   Written before the gates run, so a failing run still uploads the
   table that explains the failure. *)
let write_delta_md path =
  let oc = open_out path in
  Printf.fprintf oc "### simbench: baseline vs current\n\n";
  Printf.fprintf oc "| metric | baseline | current | delta |\n";
  Printf.fprintf oc "|---|---:|---:|---:|\n";
  let row name fmt base fresh =
    let b = match base with None -> "—" | Some v -> Printf.sprintf fmt v in
    let d =
      match base with
      | Some bv when bv <> 0.0 -> Printf.sprintf "%+.1f%%" (100.0 *. ((fresh /. bv) -. 1.0))
      | _ -> "—"
    in
    Printf.fprintf oc "| %s | %s | %s | %s |\n" name b (Printf.sprintf fmt fresh) d
  in
  (match !simbench_rows with
  | [] -> ()
  | rows ->
    let geo f = Ifko_util.Stats.geomean (List.map f rows) in
    let base = !baseline in
    row "engine speedup, untimed (geomean)" "%.2fx"
      (Option.map (fun b -> b.b_untimed) base)
      (geo (fun r -> r.sb_new_untimed /. r.sb_ref_untimed));
    row "engine speedup, timed (geomean)" "%.2fx"
      (Option.map (fun b -> b.b_timed) base)
      (geo (fun r -> r.sb_new_timed /. r.sb_ref_timed)));
  (match !fidelity_rows with
  | [] -> ()
  | frows ->
    let fgeo f = Ifko_util.Stats.geomean (List.map f frows) in
    let base = !baseline in
    row "sampled cycle error (geomean)" "%.3f%%"
      (Option.bind base (fun b -> b.b_fid_err))
      (fgeo (fun r -> r.fd_err_pct));
    row "sampled wall speedup (geomean)" "%.2fx"
      (Option.bind base (fun b -> b.b_fid_speedup))
      (fgeo (fun r -> r.fd_speedup));
    row "sampled work ratio (geomean)" "%.2fx"
      (Option.bind base (fun b -> b.b_fid_work))
      (fgeo (fun r -> r.fd_work_ratio));
    row "sampled us/measure (geomean)" "%.1f"
      (Option.bind base (fun b -> b.b_fid_us))
      (fgeo (fun r -> r.fd_samp_us));
    row "sampled setup floor us (geomean)" "%.1f" None
      (fgeo (fun r -> r.fd_floor_us)));
  close_out oc

(* The simbench gates, run against the baseline captured at
   argument-parse time (CI points --baseline at the committed results
   file):

   - engine throughput: a >15% geomean drop on either the untimed or
     timed rate fails the run — the threshold rides well above the
     scheduler noise a busy host adds to wall-clock rates;
   - sampled accuracy: the fresh sampled cycles must stay within the
     error budget of full fidelity, both against this run's own full
     measurements and against the committed baseline's per-kernel
     full-fidelity cycles (the simulator is deterministic, so the
     latter only drifts when codegen changed — regenerate the
     baseline in that case);
   - sampled work: the deterministic simulated-elements ratio must
     hold the >=5x bar, so the Amdahl win cannot silently erode;
   - sampled wall clock: the geomean wall speedup must hold the >=3.5x
     bar (full and sampled share the host back to back, so the ratio is
     load-tolerant), and the absolute sampled us/measure must not
     regress >20% against the baseline — the per-measure setup floor
     (arena acquire, env materialize, restore) is what the pooling
     layers bought, and this is the gate that keeps it bought. *)
let check_baseline () =
  Option.iter write_delta_md !delta_md;
  let failed = ref false in
  (match (!baseline, !simbench_rows) with
  | None, _ | _, [] -> ()
  | Some b, rows ->
    let geo f = Ifko_util.Stats.geomean (List.map f rows) in
    let untimed = geo (fun r -> r.sb_new_untimed /. r.sb_ref_untimed) in
    let timed = geo (fun r -> r.sb_new_timed /. r.sb_ref_timed) in
    let check name fresh base =
      Printf.printf "baseline %s: %.2fx now vs %.2fx before (%+.1f%%)\n" name fresh base
        (100.0 *. ((fresh /. base) -. 1.0));
      fresh < 0.85 *. base
    in
    let bad_untimed = check "untimed" untimed b.b_untimed in
    let bad_timed = check "timed" timed b.b_timed in
    if bad_untimed || bad_timed then begin
      Printf.eprintf "simbench geomean regressed by more than 15%% against the baseline\n";
      failed := true
    end);
  (match !fidelity_rows with
  | [] -> ()
  | frows ->
    let fgeo f = Ifko_util.Stats.geomean (List.map f frows) in
    let err = fgeo (fun r -> r.fd_err_pct) in
    let work = fgeo (fun r -> r.fd_work_ratio) in
    let speedup = fgeo (fun r -> r.fd_speedup) in
    let us = fgeo (fun r -> r.fd_samp_us) in
    Printf.printf
      "fidelity: geomean cycle error %.3f%% (budget %.2f%%), work ratio %.2fx, wall \
       speedup %.2fx, %.1f us/measure\n"
      err error_budget_pct work speedup us;
    if err > error_budget_pct then begin
      Printf.eprintf "sampled fidelity exceeds the %.2f%% error budget vs this run's full \
                      simulation\n"
        error_budget_pct;
      failed := true
    end;
    if work < 5.0 then begin
      Printf.eprintf "sampled fidelity work ratio %.2fx fell under the 5x bar\n" work;
      failed := true
    end;
    (* wall-clock, but full and sampled time the same host back to back,
       so the ratio holds the bar with plenty of margin even when the
       host is loaded *)
    if speedup < 3.5 then begin
      Printf.eprintf "sampled wall speedup %.2fx fell under the 3.5x bar\n" speedup;
      failed := true
    end;
    (match !baseline with
    | Some { b_fid_us = Some base_us; b_full_us = Some base_full; _ } ->
      (* normalize by the full-fidelity wall ratio: the full path's
         per-measure time scales with host speed (and legitimate
         simulator-throughput changes, which the engine gates watch
         separately), so what remains is a genuine sampled-path
         regression — the setup floor growing back *)
      let host = fgeo (fun r -> r.fd_full_us) /. base_full in
      let norm = us /. Float.max 1e-9 host in
      Printf.printf
        "fidelity us/measure: %.1f now (%.1f host-normalized) vs %.1f baseline (%+.1f%%)\n"
        us norm base_us
        (100.0 *. ((norm /. base_us) -. 1.0));
      if norm > 1.2 *. base_us then begin
        Printf.eprintf
          "sampled us/measure regressed by more than 20%% against the baseline (the \
           per-measure setup floor grew)\n";
        failed := true
      end
    | _ -> ());
    match !baseline with
    | Some b when b.b_full_cycles <> [] ->
      let matched =
        List.filter_map
          (fun r ->
            Option.map (fun base -> (r, base)) (List.assoc_opt r.fd_kernel b.b_full_cycles))
          frows
      in
      if matched <> [] then begin
        let gm f = Ifko_util.Stats.geomean (List.map f matched) in
        let base_err =
          gm (fun (r, base) -> 100.0 *. Float.abs (r.fd_sampled_cycles -. base) /. base)
        in
        let drift =
          gm (fun (r, base) -> 100.0 *. Float.abs (r.fd_full_cycles -. base) /. base)
        in
        Printf.printf
          "fidelity vs committed baseline: geomean sampled error %.3f%%, full-cycle drift \
           %.3f%% (%d kernels)\n"
          base_err drift (List.length matched);
        if base_err > error_budget_pct then begin
          Printf.eprintf
            "sampled cycles exceed the %.2f%% budget against the committed full-fidelity \
             baseline%s\n"
            error_budget_pct
            (if drift > 0.1 then
               " (full cycles drifted too — codegen changed; regenerate BENCH_results.json)"
             else "");
          failed := true
        end
      end
    | _ -> ());
  if !failed then exit 1

let () =
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--bechamel" :: rest ->
      bechamel_mode := true;
      parse rest
    | "--exp" :: name :: rest ->
      selected := !selected @ [ name ];
      parse rest
    | "--store" :: path :: rest ->
      store_path := Some path;
      parse rest
    | "--no-store" :: rest ->
      store_path := None;
      parse rest
    | "--jobs" :: n :: rest ->
      jobs := int_of_string n;
      parse rest
    | "--json" :: path :: rest ->
      json_path := path;
      parse rest
    | "--profile" :: rest ->
      profile_mode := true;
      parse rest
    | "--baseline" :: path :: rest ->
      baseline := Some (read_baseline path);
      parse rest
    | "--delta-md" :: path :: rest ->
      delta_md := Some path;
      parse rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %S\n" arg;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !bechamel_mode then run_bechamel ()
  else begin
    store := Option.map (Ifko_store.Store.open_ ~seed) !store_path;
    let to_run =
      match !selected with
      | [] | [ "all" ] -> List.map fst experiments
      | l -> l
    in
    let t0 = Unix.gettimeofday () in
    let stats =
      List.map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f ->
            Printf.printf "\n================ %s ================\n%!" name;
            let h0, m0 =
              match !store with
              | Some st -> (Ifko_store.Store.hits st, Ifko_store.Store.misses st)
              | None -> (0, 0)
            in
            let start = Unix.gettimeofday () in
            f ();
            let seconds = Unix.gettimeofday () -. start in
            let h1, m1 =
              match !store with
              | Some st -> (Ifko_store.Store.hits st, Ifko_store.Store.misses st)
              | None -> (0, 0)
            in
            print_newline ();
            { exp_name = name; seconds; exp_hits = h1 - h0; exp_misses = m1 - m0 }
          | None ->
            Printf.eprintf "unknown experiment %S (known: %s)\n" name
              (String.concat ", " (List.map fst experiments));
            exit 2)
        to_run
    in
    let total_seconds = Unix.gettimeofday () -. t0 in
    write_results_json ~path:!json_path ~total_seconds stats;
    (match !store with
    | Some st ->
      Printf.printf "store %s: %d entries, %d hits / %d computed this run\n"
        (Ifko_store.Store.path st) (Ifko_store.Store.entries st) (Ifko_store.Store.hits st)
        (Ifko_store.Store.misses st);
      Ifko_store.Store.close st
    | None -> ());
    Printf.printf "results written to %s (%.1f s total)\n" !json_path total_seconds;
    check_baseline ()
  end
