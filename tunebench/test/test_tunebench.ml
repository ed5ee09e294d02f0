(* Tests of the benchmark's own machinery: stream generation,
   percentile reporting, metric naming and the reference check. *)

open Tunebench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let stream seed = Reqstream.generate ~seed ~length:2000

let test_stream () =
  let a = stream 7 and b = stream 7 and c = stream 8 in
  check "same seed, same stream" (a = b);
  check "different seeds, different streams" (a.Reqstream.requests <> c.Reqstream.requests);
  check "one new workpoint per block"
    (Array.length a.Reqstream.workpoints = 2000 / Reqstream.block);
  check "the first workpoints visit every kernel once"
    (List.sort compare
       (List.init 14 (fun i -> a.Reqstream.workpoints.(i).Reqstream.kernel))
    = List.sort compare Ifko_blas.Defs.all);
  check "repeats only name earlier workpoints"
    (Array.for_all Fun.id
       (Array.mapi (fun i r -> a.Reqstream.first.(r.Reqstream.wp) <= i) a.Reqstream.requests));
  let first_done = Array.make (Array.length a.Reqstream.workpoints) false in
  let r = a.Reqstream.requests.(1) in
  check "request 0 is a first request" (Reqstream.classify a ~first_done 0 = Reqstream.First);
  check "a repeat before the first reply is coalesced"
    (Reqstream.classify a ~first_done 1 = Reqstream.Coalesced);
  first_done.(r.Reqstream.wp) <- true;
  check "a repeat after the first reply is a hit" (Reqstream.classify a ~first_done 1 = Reqstream.Hit)

let test_percentile () =
  let xs n = List.init n float_of_int in
  check "p50 needs 20 samples" (Pct.percentile 0.5 (xs 19) = None);
  check "p50 of 20 samples" (Pct.percentile 0.5 (xs 20) = Some 9.0);
  check "p95 needs 200 samples" (Pct.percentile 0.95 (xs 199) = None);
  check "p95 of 200 samples" (Pct.percentile 0.95 (xs 200) = Some 189.0);
  check "median of an even count" (Pct.median [ 1.0; 4.0; 2.0; 3.0 ] = 2.5)

let benchmark_names key =
  (* the test runs in _build/default/tunebench/test *)
  let ic = open_in "../../BENCHMARK.json" in
  let text = In_channel.input_all ic in
  close_in ic;
  let flat = String.map (fun c -> if c = '\n' then ' ' else c) text in
  match List.assoc_opt key (Ifko_store.Store.Json.parse flat) with
  | Some (Ifko_store.Store.Json.A ms) ->
    List.filter_map
      (function Ifko_store.Store.Json.O f -> Ifko_store.Store.Json.str f "name" | _ -> None)
      ms
  | _ -> []

let test_metric_names () =
  let lat = List.init 200 (fun i -> float_of_int i /. 1000.0) in
  let e2e =
    Tunes.end_to_end ~scale:1.0 ~setup_s:1.0 ~suite_s:1.0 ~mflops:[ 1.0 ] ~req_per_s:1.0 ~hits:lat
      ~misses:lat ~rss_mb:1.0
  in
  let trace =
    { Tunes.spans = Spans.create (); replays = [];
      prof = Ifko_sim.Timer.profile ();
      arena = { Ifko_machine.Arena.acquires = 0; creates = 0; pooled = 0 }; gap_s = 0.0 }
  in
  let layers = Tunes.layer_metrics trace Tunes.no_serve in
  let valid n =
    n <> ""
    && String.for_all
         (fun c ->
           match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
         n
  in
  List.iter
    (fun (m : Tunes.metric) -> check ("metric name " ^ m.Tunes.name) (valid m.Tunes.name))
    (e2e @ layers);
  let names ms = List.map (fun (m : Tunes.metric) -> m.Tunes.name) ms in
  check "end-to-end metrics match BENCHMARK.json" (names e2e = benchmark_names "end_to_end");
  check "per-layer metrics match BENCHMARK.json" (names layers = benchmark_names "per_layer")

let test_reference_check () =
  let r k = { Refcheck.kernel = k; best = "sv=1;ur=4"; mflops_bits = 0x4070000000000000L; evaluations = 40 } in
  let reference =
    { Refcheck.seed = 1;
      entries =
        [ { Refcheck.workload = "w"; result = r "a"; invariant = true };
          { Refcheck.workload = "w"; result = r "b"; invariant = false } ] }
  in
  let count ~seed results = List.length (Refcheck.mismatches reference ~workload:"w" ~seed results) in
  check "identical results pass" (count ~seed:1 [ r "a"; r "b" ] = 0);
  check "a perturbed MFLOPS bit counts one failure"
    (count ~seed:1 [ { (r "a") with Refcheck.mflops_bits = 0x4070000000000001L }; r "b" ] = 1);
  check "a perturbed best point counts one failure"
    (count ~seed:1 [ r "a"; { (r "b") with Refcheck.best = "sv=1;ur=8" } ] = 1);
  check "seed-dependent entries are checked only at the reference seed"
    (count ~seed:2 [ r "a"; { (r "b") with Refcheck.best = "sv=1;ur=8" } ] = 0)

let () =
  test_stream ();
  test_percentile ();
  test_metric_names ();
  test_reference_check ();
  if !failures > 0 then exit 1;
  print_endline "tunebench tests: ok"
