(* Compiled probe candidates.

   Producing a runnable candidate is three expensive steps — transform
   pipeline ([Pipeline.apply]), semantic test (reference-vs-candidate
   execution over several sizes), and decode ([Exec.compile]) — and
   the tuner repeats them for identical (kernel, params) pairs: the
   calibration point is recompiled by the first probe, a multi-size
   sweep recompiles every shared point per size, `--compare-fidelity`
   compiles each candidate once per fidelity, and concurrent serve
   tunes of one kernel compile the whole search trajectory once per
   tune.  The decoded closures are immutable (per-run state lives
   inside [Exec.exec]), so one compilation is safely shared across
   domains and across tunes.

   Keys must capture everything the outcome depends on: the kernel
   fingerprint, the machine (the pipeline consumes its line size), the
   canonical params, the per-pass-check flag, and the workload seed
   (the semantic test runs seeded workloads). *)

type result =
  | Illegal
  | Test_failed
  | Compiled of Cfg.func * Ifko_sim.Exec.compiled

type t = (string, result) Ifko_util.Memo.t

let key ~kernel ~machine ~params ~check ~seed =
  Ifko_store.Store.digest
    [
      "codecache";
      kernel;
      machine;
      params;
      (if check then "check" else "nocheck");
      string_of_int seed;
    ]
