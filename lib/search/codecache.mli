(** Compiled probe candidates, memoized in an {!Ifko_util.Memo}.

    [Driver.tune] produces each candidate by transform pipeline +
    semantic test + decode; the memo keys the finished product by
    (kernel fingerprint, machine, canonical params, check flag, seed)
    so calibration points, multi-size sweeps, fidelity comparisons and
    concurrent serve tunes stop re-doing identical work.  Decoded
    closures are immutable — per-run register/memory state is
    allocated inside [Exec.exec] — so sharing them across domains and
    tunes is safe.  Exceptions from the compute (notably
    [Passcheck.Pass_failed], which must fail the tune) are never
    cached. *)

type result =
  | Illegal  (** the transform pipeline rejected the point *)
  | Test_failed  (** compiled, but the semantic test failed *)
  | Compiled of Cfg.func * Ifko_sim.Exec.compiled
      (** transformed function plus its decoded form, ready to time *)

type t = (string, result) Ifko_util.Memo.t
(** Filled with {!Ifko_util.Memo.find_or_compute}. *)

val key : kernel:string -> machine:string -> params:string -> check:bool -> seed:int -> string
(** Digest of everything a candidate's compilation outcome depends
    on.  [params] must be the canonical rendering
    ([Params.canonical]). *)
