(* tunebench: one seeded run of one workload.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--ifko PATH] [--reference FILE]
     main.exe --write-reference FILE

   Prints a human-readable report on stderr and, as the last line of
   stdout, one JSON object: {"correct", "attempted", "failed",
   "metrics"}.  With --trace 0 the metrics are the end-to-end ones,
   measured with no spans; with --trace 1 they are the per-layer ones
   of the traced run.  README.md describes both. *)

open Tunebench

let workdir = ".tunebench"
let default_seed = 1

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun (m : Tunes.metric) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.Tunes.name m.Tunes.value
           m.Tunes.unit_)
       ms)

(* [extra] metrics are printed on stderr only, outside the result. *)
let report ?(extra = []) ~workload t ms =
  Printf.eprintf "tunebench %s\n" workload;
  List.iter
    (fun (m : Tunes.metric) ->
      Printf.eprintf "  %-26s %14.6g %s\n" m.Tunes.name m.Tunes.value m.Tunes.unit_)
    (ms @ extra);
  Printf.eprintf "  %-26s %14.6g ratio (%d of %d operations)\n%!" "error_rate"
    (float_of_int (Tunes.failed t) /. float_of_int (max 1 t.Tunes.attempted))
    (Tunes.failed t) t.Tunes.attempted;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (Tunes.failed t = 0) t.Tunes.attempted (Tunes.failed t) (json_metrics ms)

let write_chrome workload sp =
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat workdir ("trace-" ^ workload ^ ".json") in
  Spans.write_chrome sp path;
  Printf.eprintf "tunebench: trace written to %s\n" path

let run_tune ~workload ~conf ~seed ~seconds ~trace ~reference =
  let t = Tunes.tally () in
  if trace then begin
    let tr = Tunes.run_traced t ~workload ~conf ~seed ~reference in
    write_chrome workload tr.Tunes.spans;
    report ~workload t (Tunes.layer_metrics tr Tunes.no_serve)
  end
  else begin
    let setup_s, suite_s, misses, hits, mflops =
      Tunes.run_timed t ~workload ~conf ~seed ~seconds ~reference
    in
    Printf.eprintf "tunebench: %d cold tunes, %d hit tunes\n" (List.length misses)
      (List.length hits);
    report ~workload t ~extra:[ Tunes.hit_tail hits ]
      (Tunes.end_to_end ~scale:(Hostref.scale ()) ~setup_s ~suite_s ~mflops
         ~req_per_s:(float_of_int (List.length misses) /. List.fold_left ( +. ) 0.0 misses)
         ~hits ~misses
         ~rss_mb:(Tunes.peak_rss_mb "self"))
  end

let run_serve ~ifko ~seed ~seconds ~trace =
  let t = Tunes.tally () in
  (try Unix.mkdir workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let r = Servemix.run t ~ifko ~workdir ~seed ~seconds ~traced:trace in
  let s = Reqstream.generate ~seed ~length:Servemix.stream_length in
  match r.Servemix.trace with
  | Some tr ->
    write_chrome "serve-mix" tr.Tunes.spans;
    report ~workload:"serve-mix" t (Tunes.layer_metrics tr (Servemix.serve_layers s r))
  | None ->
    let sorted = Pct.sorted (Servemix.latencies s Reqstream.Hit r.Servemix.log) in
    let at p = 1000.0 *. sorted.(int_of_float (p *. float_of_int (Array.length sorted - 1))) in
    Printf.eprintf "tunebench: %d hits; wall ms at p10..p90 by 10:%s\n" (Array.length sorted)
      (String.concat ""
         (List.map (fun p -> Printf.sprintf " %.3g" (at p))
            [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]));
    let cpu cls = Servemix.cpu_times s cls r.Servemix.log in
    report ~workload:"serve-mix" t
      ~extra:[ { Tunes.name = "daemon_peak_rss_mb"; unit_ = "MB"; value = r.Servemix.daemon_rss_mb } ]
      (Tunes.end_to_end ~scale:(Hostref.scale ()) ~setup_s:r.Servemix.setup_s
         ~suite_s:r.Servemix.suite_s
         ~mflops:r.Servemix.mflops
         ~req_per_s:(float_of_int (List.length r.Servemix.log) /. r.Servemix.stream_cpu)
         ~hits:(cpu Reqstream.Hit) ~misses:(cpu Reqstream.First)
         ~rss_mb:r.Servemix.rss_mb)

(* Tune every tune-* workload at [default_seed] and at one other seed;
   a kernel whose result agrees at both is marked seed-invariant. *)
let write_reference path =
  let results workload (conf : Tunes.conf) seed =
    let t = Tunes.tally () in
    let ks = Tunes.build (Tunes.points conf ~seed) in
    let tuned =
      Tunes.tune_suite t ~label:workload ~fidelity:conf.Tunes.fidelity
        ~context:conf.Tunes.context ks
    in
    if Tunes.failed t > 0 then failwith (workload ^ ": a tune failed");
    List.map (fun (k, tu, _) -> Refcheck.of_tuned k.Tunes.name tu) tuned
  in
  let entries =
    List.concat_map
      (fun workload ->
        let conf = Option.get (Tunes.conf_of_workload workload) in
        let a = results workload conf default_seed in
        let b = results workload conf (default_seed + 1) in
        List.map2
          (fun ra rb -> { Refcheck.workload; result = ra; invariant = Refcheck.same ra rb })
          a b)
      [ "tune-oc"; "tune-l2"; "tune-oc-sampled" ]
  in
  Refcheck.save path { Refcheck.seed = default_seed; entries }

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 20.0
  and trace = ref 0 and ifko = ref "_build/default/bin/ifko_cli.exe"
  and reference = ref "tunebench/reference.txt" and write_ref = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME tune-oc | tune-l2 | tune-oc-sampled | serve-mix");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run or traced per-layer run");
      ("--ifko", Arg.Set_string ifko, "PATH the ifko CLI (serve-mix's daemon)");
      ("--reference", Arg.Set_string reference, "FILE committed reference results");
      ("--write-reference", Arg.Set_string write_ref, "FILE regenerate the reference results");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "tunebench --workload NAME --seed N --seconds S --trace 0|1";
  if !write_ref <> "" then write_reference !write_ref
  else begin
    if !trace <> 0 && !trace <> 1 then failwith "--trace takes 0 or 1";
    let trace = !trace = 1 in
    match (!workload, Tunes.conf_of_workload !workload) with
    | "serve-mix", _ -> run_serve ~ifko:!ifko ~seed:!seed ~seconds:!seconds ~trace
    | workload, Some conf ->
      let reference = Some (Refcheck.load !reference) in
      run_tune ~workload ~conf ~seed:!seed ~seconds:!seconds ~trace ~reference
    | w, None -> failwith (Printf.sprintf "unknown workload %S" w)
  end
