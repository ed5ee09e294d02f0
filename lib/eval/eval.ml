open Ifko_blas
open Ifko_machine

type method_id = Gcc_ref | Icc_ref | Icc_prof | Atlas | Fko | Ifko

let method_name = function
  | Gcc_ref -> "gcc+ref"
  | Icc_ref -> "icc+ref"
  | Icc_prof -> "icc+prof"
  | Atlas -> "ATLAS"
  | Fko -> "FKO"
  | Ifko -> "ifko"

let methods = [ Gcc_ref; Icc_ref; Icc_prof; Atlas; Fko; Ifko ]

type kernel_result = {
  kernel : Defs.kernel_id;
  display_name : string;
  mflops : (method_id * float) list;
  atlas_candidate : string;
  tuned : Ifko_search.Driver.tuned;
  verified : bool;
}

type study = {
  cfg : Config.t;
  context : Ifko_sim.Timer.context;
  n : int;
  seed : int;
  results : kernel_result list;
}

(* The tester used for every method: exact-ish comparison against the
   reference implementation on sizes that exercise remainder loops.
   Each size's expectation and pristine environment master are built
   once per tester, on first use; candidates run in environments
   materialized from the master and released afterwards. *)
let make_test id ~seed =
  let sizes = [ 0; 1; 5; 63; 64; 257 ] in
  let references = Ifko_util.Memo.create () in
  let reference n =
    Ifko_util.Memo.find_or_compute references n (fun () ->
        let env = Workload.make_env id ~seed:(seed + 1) n in
        let master = Ifko_sim.Env.capture env in
        Ifko_sim.Env.release env;
        (master, Workload.expectation id ~seed:(seed + 1) n))
  in
  fun func ->
    let cf = Ifko_sim.Exec.compile func in
    List.for_all
      (fun n ->
        let master, expect = reference n in
        let tol = Workload.tolerance id ~n in
        let env = Ifko_sim.Env.materialize master in
        Fun.protect
          ~finally:(fun () -> Ifko_sim.Env.release env)
          (fun () ->
            Ifko_sim.Verify.check_compiled ~tol ~ret_fsize:id.Defs.prec cf env expect
            = Ok ()))
      sizes

let time_func ?store ~kind ~prov ~seed ~cfg ~context ~spec ~n ~flops_per_n func =
  match
    Ifko_store.Store.cached ?store
      ~key:
        (Ifko_store.Store.timing_key ~kind ~func:(Cfg.to_string func)
           ~machine:cfg.Config.name
           ~context:(Ifko_sim.Timer.context_name context)
           ~n ~seed)
      ~params:kind ~prov
      (fun () ->
        let cycles = Ifko_sim.Timer.measure ~cfg ~context ~spec ~n func in
        Ifko_store.Store.Timed
          { cycles; mflops = Ifko_sim.Timer.mflops ~cfg ~flops_per_n ~n ~cycles })
  with
  | Ifko_store.Store.Timed { mflops; _ } -> mflops
  | Ifko_store.Store.Test_failed | Ifko_store.Store.Illegal -> neg_infinity

let run_kernel ?store ?jobs ~cfg ~context ~n ~seed id =
  let compiled = Hil_sources.compile id in
  (* per the paper (§3.2.1), the native compilers get the
     straightforward scoped-if formulation of iamax *)
  let compiled_for_cc =
    if id.Defs.routine = Defs.Iamax then Hil_sources.compile_straightforward id
    else compiled
  in
  let spec = Workload.timer_spec id ~seed in
  let flops_per_n = Defs.flops_per_n id.Defs.routine in
  let test = make_test id ~seed in
  let prov =
    Printf.sprintf "%s@%s/%s/n=%d" (Defs.name id) cfg.Config.name
      (Ifko_sim.Timer.context_name context) n
  in
  let time ~kind = time_func ?store ~kind ~prov ~seed ~cfg ~context ~spec ~n ~flops_per_n in
  let verified = ref true in
  let check func = if not (test func) then verified := false in
  (* native-compiler models *)
  let compiler_models =
    List.map
      (fun (m : Ifko_baselines.Compiler_model.t) ->
        let func = Ifko_baselines.Compiler_model.compile m ~cfg ~context compiled_for_cc in
        check func;
        ( m.Ifko_baselines.Compiler_model.name,
          time ~kind:("model:" ^ m.Ifko_baselines.Compiler_model.name) func ))
      Ifko_baselines.Compiler_model.all
  in
  let of_model name = List.assoc name compiler_models in
  (* ATLAS's own empirical search over its hand-tuned collection *)
  let atlas = Ifko_baselines.Atlas_search.select ?store ~cfg ~context ~n ~seed id in
  check atlas.Ifko_baselines.Atlas_search.func;
  (* the iterative and empirical compilation *)
  let tuned =
    Ifko_search.Driver.tune ?store ?jobs ~seed ~cfg ~context ~spec ~n ~flops_per_n ~test
      compiled
  in
  check tuned.Ifko_search.Driver.best_func;
  {
    kernel = id;
    display_name = atlas.Ifko_baselines.Atlas_search.kernel_name;
    mflops =
      [ (Gcc_ref, of_model "gcc");
        (Icc_ref, of_model "icc");
        (Icc_prof, of_model "icc+prof");
        (Atlas, atlas.Ifko_baselines.Atlas_search.mflops);
        (Fko, tuned.Ifko_search.Driver.fko_mflops);
        (Ifko, tuned.Ifko_search.Driver.ifko_mflops);
      ];
    atlas_candidate = atlas.Ifko_baselines.Atlas_search.candidate;
    tuned;
    verified = !verified;
  }

let run_study ?(kernels = Defs.all) ?(progress = fun _ -> ()) ?store ?jobs ~cfg ~context
    ~n ~seed () =
  let results =
    List.map
      (fun id ->
        let r = run_kernel ?store ?jobs ~cfg ~context ~n ~seed id in
        progress
          (Printf.sprintf "%s/%s %-8s best=%s ifko=%.0f MFLOPS%s" cfg.Config.name
             (Ifko_sim.Timer.context_name context)
             r.display_name
             (method_name
                (fst
                   (List.fold_left
                      (fun (bm, bv) (m, v) -> if v > bv then (m, v) else (bm, bv))
                      (Gcc_ref, neg_infinity) r.mflops)))
             (List.assoc Ifko r.mflops)
             (if r.verified then "" else "  [VERIFY FAILED]"))
        |> fun () -> r)
      kernels
  in
  { cfg; context; n; seed; results }

(* Start from neg_infinity, matching run_study's best-method fold: a
   kernel whose every method failed timing yields neg_infinity, which
   Stats.percent_of guards (rather than a silent divide by 0.0). *)
let best_mflops r = List.fold_left (fun acc (_, v) -> Float.max acc v) neg_infinity r.mflops

let percent r m =
  Ifko_util.Stats.percent_of ~best:(best_mflops r) (List.assoc m r.mflops)

let average_percent study m =
  Ifko_util.Stats.mean (List.map (fun r -> percent r m) study.results)

let vector_average_percent study m =
  let vec =
    List.filter (fun r -> r.kernel.Defs.routine <> Defs.Iamax) study.results
  in
  if vec = [] then 0.0 else Ifko_util.Stats.mean (List.map (fun r -> percent r m) vec)
