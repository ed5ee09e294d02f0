(* Compile-path golden: the digest of every fully compiled BLAS kernel
   at its default point and at each one-axis neighbour of it in the
   search space, against the committed compile_golden.txt.  Changes to
   the transforms that are meant to be pure speedups must leave every
   line unchanged.  After an intentional change to generated code,
   regenerate with
     dune exec test/test_main.exe -- --write-compile-golden $PWD/test/compile_golden.txt *)
open Ifko_blas
module Params = Ifko_transform.Params

let cfg = Ifko_machine.Config.p4e
let golden_file = "compile_golden.txt"

(* The default point, then every value of every axis with the other
   axes held at the default, skipping points already listed. *)
let points report =
  let init = Params.default ~line_bytes:cfg.Ifko_machine.Config.prefetchable_line report in
  let seen = Hashtbl.create 64 in
  let keep (label, p) =
    let key = Params.canonical p in
    if Hashtbl.mem seen key then None
    else begin
      Hashtbl.replace seen key ();
      Some (label, p)
    end
  in
  List.filter_map keep
    (("default", init)
    :: List.concat_map
         (fun (ax : Ifko_search.Space.axis) ->
           List.map
             (fun v -> (Printf.sprintf "%s=%g" ax.Ifko_search.Space.ax_name v, ax.ax_set init v))
             ax.Ifko_search.Space.ax_values)
         (Ifko_search.Space.axes ~cfg ~report ()))

let lines () =
  List.concat_map
    (fun id ->
      let compiled = Hil_sources.compile id in
      let report = Ifko_analysis.Report.analyze compiled in
      List.map
        (fun (label, p) ->
          let digest =
            match Ifko_search.Driver.compile_point ~cfg compiled p with
            | func -> Digest.to_hex (Digest.string (Cfg.to_string func))
            | exception _ -> "illegal"
          in
          Printf.sprintf "%s %s %s" (Defs.name id) label digest)
        (points report))
    Defs.all

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) (lines ()))

let read_golden () =
  In_channel.with_open_text golden_file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_compile_golden () =
  let expected = read_golden () in
  let got = lines () in
  Alcotest.(check int) "point count" (List.length expected) (List.length got);
  List.iter2 (fun e g -> Alcotest.(check string) "compiled digest" e g) expected got

let suite =
  [ Alcotest.test_case "compile path matches golden digests" `Quick test_compile_golden ]
