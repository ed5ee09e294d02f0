(* Result checks.  A tuned kernel is compared two ways: bit for bit
   against a committed reference result (best point, MFLOPS bits,
   evaluation count), and numerically against the independent
   reference semantics of [Ifko_blas.Ref_impl]. *)

type result = { kernel : string; best : string; mflops_bits : int64; evaluations : int }

let of_tuned kernel (t : Ifko_search.Driver.tuned) =
  {
    kernel;
    best = Ifko_transform.Params.canonical t.Ifko_search.Driver.best_params;
    mflops_bits = Int64.bits_of_float t.Ifko_search.Driver.ifko_mflops;
    evaluations = t.Ifko_search.Driver.evaluations;
  }

let same a b =
  a.kernel = b.kernel && a.best = b.best
  && Int64.equal a.mflops_bits b.mflops_bits
  && a.evaluations = b.evaluations

let describe r =
  Printf.sprintf "%s best=%s mflops=%h evals=%d" r.kernel r.best
    (Int64.float_of_bits r.mflops_bits) r.evaluations

(* One reference line per (workload, kernel).  [invariant] records that
   the kernel's result was identical at two different seeds when the
   file was written, so it is checked at every seed; the others are
   checked only at the file's own seed. *)
type entry = { workload : string; result : result; invariant : bool }

type reference = { seed : int; entries : entry list }

let save path { seed; entries } =
  let oc = open_out path in
  Printf.fprintf oc
    "# tunebench reference results: workload kernel best mflops-bits evaluations \
     seed-invariant\n";
  Printf.fprintf oc "seed %d\n" seed;
  List.iter
    (fun e ->
      Printf.fprintf oc "%s %s %s %016Lx %d %d\n" e.workload e.result.kernel e.result.best
        e.result.mflops_bits e.result.evaluations
        (if e.invariant then 1 else 0))
    entries;
  close_out oc

let load path =
  let ic = open_in path in
  let rec go seed acc =
    match input_line ic with
    | exception End_of_file -> { seed; entries = List.rev acc }
    | line when String.length line = 0 || line.[0] = '#' -> go seed acc
    | line -> (
      match String.split_on_char ' ' line with
      | [ "seed"; s ] -> go (int_of_string s) acc
      | [ workload; kernel; best; bits; evals; inv ] ->
        let result =
          { kernel; best; mflops_bits = Int64.of_string ("0x" ^ bits);
            evaluations = int_of_string evals }
        in
        go seed ({ workload; result; invariant = inv = "1" } :: acc)
      | _ -> failwith (Printf.sprintf "%s: malformed line %S" path line))
  in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go 0 [])

(* The kernels of [results] that contradict the reference for
   [workload] at [seed], each with a message.  A kernel the reference
   does not cover at this seed is not checked. *)
let mismatches reference ~workload ~seed results =
  List.filter_map
    (fun r ->
      match
        List.find_opt
          (fun e -> e.workload = workload && e.result.kernel = r.kernel)
          reference.entries
      with
      | Some e when (e.invariant || seed = reference.seed) && not (same e.result r) ->
        Some
          ( r.kernel,
            Printf.sprintf "reference %s, got %s" (describe e.result) (describe r) )
      | _ -> None)
    results

(* Remainder-exercising sizes: none is a multiple of any vector length
   times unroll factor the search can pick. *)
let check_sizes = [ 0; 1; 7; 31; 133; 1031 ]

(* Run [func] (kernel [id] tuned under any workload) on the BLAS
   workload and compare with [Ref_impl]'s answer. *)
let against_ref_impl (id : Ifko_blas.Defs.kernel_id) ~seed func =
  let cf = Ifko_sim.Exec.compile func in
  List.fold_left
    (fun acc n ->
      match acc with
      | Error _ -> acc
      | Ok () -> (
        let env = Ifko_blas.Workload.make_env id ~seed n in
        match
          Ifko_sim.Verify.check_compiled
            ~tol:(Ifko_blas.Workload.tolerance id ~n)
            ~ret_fsize:id.Ifko_blas.Defs.prec cf env
            (Ifko_blas.Workload.expectation id ~seed n)
        with
        | Ok () -> Ok ()
        | Error e -> Error (Printf.sprintf "n=%d: %s" n e)
        | exception e -> Error (Printf.sprintf "n=%d: %s" n (Printexc.to_string e))))
    (Ok ()) check_sizes
