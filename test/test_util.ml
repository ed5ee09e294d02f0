(* Unit and property tests for Ifko_util. *)
open Ifko_util

let test_ids () =
  let g = Ids.create () in
  Alcotest.(check int) "first" 0 (Ids.next g);
  Alcotest.(check int) "second" 1 (Ids.next g);
  Alcotest.(check int) "peek does not advance" 2 (Ids.peek g);
  Alcotest.(check int) "peek stable" 2 (Ids.peek g);
  Ids.reserve g 10;
  Alcotest.(check int) "reserve raises floor" 10 (Ids.next g);
  Ids.reserve g 5;
  Alcotest.(check int) "reserve never lowers" 11 (Ids.next g);
  let g2 = Ids.create ~start:42 () in
  Alcotest.(check int) "custom start" 42 (Ids.next g2)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done;
  let c = Rng.create 8 in
  Alcotest.(check bool) "different seed differs" true (Rng.int64 a <> Rng.int64 c)

let test_rng_split () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let xs = List.init 20 (fun _ -> Rng.int64 a) in
  let ys = List.init 20 (fun _ -> Rng.int64 b) in
  Alcotest.(check bool) "split streams are independent" true (xs <> ys)

let prop_rng_int_range =
  QCheck.Test.make ~name:"Rng.int within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Rng.create seed in
      let v = Rng.int g bound in
      v >= 0 && v < bound)

let prop_rng_uniform_range =
  QCheck.Test.make ~name:"Rng.uniform in [0,1)" ~count:500 QCheck.small_int (fun seed ->
      let g = Rng.create seed in
      let v = Rng.uniform g in
      v >= 0.0 && v < 1.0)

let prop_sign_float =
  QCheck.Test.make ~name:"Rng.sign_float both signs and bounded" ~count:200
    QCheck.small_int
    (fun seed ->
      let g = Rng.create seed in
      let vs = List.init 200 (fun _ -> Rng.sign_float g 1.0) in
      List.for_all (fun v -> Float.abs v < 1.0) vs
      && List.exists (fun v -> v < 0.0) vs
      && List.exists (fun v -> v > 0.0) vs)

let test_stats () =
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_float_list [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-6)) "mflops" 1000.0
    (Stats.mflops ~flops:1000.0 ~cycles:1000.0 ~ghz:1.0);
  Alcotest.(check (float 1e-9)) "percent" 50.0 (Stats.percent_of ~best:10.0 5.0);
  (* failed timings report neg_infinity; percent_of must not divide by
     them or leak NaN into the figures *)
  Alcotest.(check (float 1e-9)) "percent of failed best" 0.0
    (Stats.percent_of ~best:neg_infinity 5.0);
  Alcotest.(check (float 1e-9)) "percent of failed value" 0.0
    (Stats.percent_of ~best:10.0 neg_infinity);
  Alcotest.(check (float 1e-9)) "percent all failed" 0.0
    (Stats.percent_of ~best:neg_infinity neg_infinity);
  Alcotest.(check (float 1e-9)) "percent of zero best" 0.0 (Stats.percent_of ~best:0.0 5.0);
  Alcotest.(check (float 1e-9)) "round1" 1.2 (Stats.round1 1.24);
  Alcotest.check_raises "empty min" (Invalid_argument "Stats.min_float_list: empty")
    (fun () -> ignore (Stats.min_float_list [] : float))

(* naive substring test, used across the suites *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_table () =
  let t = Table.create ~title:"T" [ "a"; "bb" ] in
  Table.add_row t [ "x"; "1" ];
  Table.add_sep t;
  Table.add_row t [ "yy"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "title present" true (String.length s > 0 && String.sub s 0 1 = "T");
  Alcotest.(check bool) "contains cell" true (contains s "22");
  Alcotest.(check bool) "has separators" true (contains s "+--")

let test_table_mismatch () =
  let t = Table.create [ "a" ] in
  Alcotest.check_raises "bad row" (Invalid_argument "Table.add_row: cell count mismatch")
    (fun () -> Table.add_row t [ "x"; "y" ])

let test_bar () =
  Alcotest.(check string) "empty" "          " (Table.bar ~width:10 ~frac:0.0);
  Alcotest.(check string) "full" "##########" (Table.bar ~width:10 ~frac:1.0);
  Alcotest.(check string) "clamped" "##########" (Table.bar ~width:10 ~frac:3.0);
  Alcotest.(check string) "half" "#####     " (Table.bar ~width:10 ~frac:0.5)

(* ---- Memo: the single-flight memo behind every in-process cache ---- *)

(* Run [f i] on [n] threads released together, so their calls overlap
   a computation that sleeps for a few tens of milliseconds. *)
let race n f =
  let started = Atomic.make 0 in
  let results = Array.make n None in
  let threads =
    Array.init n (fun i ->
        Thread.create
          (fun () ->
            Atomic.incr started;
            while Atomic.get started < n do
              Thread.yield ()
            done;
            results.(i) <- Some (try Ok (f i) with e -> Error e))
          ())
  in
  Array.iter Thread.join threads;
  Array.map Option.get results

let test_memo_raising_leader () =
  let m = Memo.create () in
  let computes = Atomic.make 0 in
  let compute () =
    if Atomic.fetch_and_add computes 1 = 0 then begin
      Thread.delay 0.05;
      failwith "leader"
    end
    else begin
      Thread.delay 0.02;
      42
    end
  in
  let results = race 4 (fun _ -> Memo.find_or_compute m "k" compute) in
  let raised = Array.to_list results |> List.filter Result.is_error |> List.length in
  Alcotest.(check int) "only the leader sees the exception" 1 raised;
  Array.iter
    (function
      | Ok v -> Alcotest.(check int) "waiters get the retry's value" 42 v
      | Error _ -> ())
    results;
  Alcotest.(check int) "exactly one waiter computed afresh" 2 (Atomic.get computes);
  Alcotest.(check int) "the retry's value is kept" 42
    (Memo.find_or_compute m "k" (fun () -> Alcotest.fail "recomputed a kept value"));
  (* the exception itself is never cached *)
  (match Memo.find_or_compute m "e" (fun () -> failwith "once") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception must propagate");
  Alcotest.(check int) "a raise leaves nothing behind" 7
    (Memo.find_or_compute m "e" (fun () -> 7));
  let s = Memo.stats m in
  Alcotest.(check int) "misses count every computation" 4 s.Memo.misses;
  Alcotest.(check int) "hits: two waiters and one kept lookup" 3 s.Memo.hits;
  Alcotest.(check int) "no flight left running" 0 s.Memo.running

let test_memo_coalesce_error () =
  let m = Memo.create () in
  let computes = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    Thread.delay 0.05;
    Error "no such kernel"
  in
  let results = race 4 (fun _ -> Memo.coalesce m "k" compute) in
  Array.iter
    (function
      | Ok r -> Alcotest.(check (result int string)) "every waiter gets the Error" (Error "no such kernel") r
      | Error e -> raise e)
    results;
  Alcotest.(check int) "computed once" 1 (Atomic.get computes);
  let s = Memo.stats m in
  Alcotest.(check int) "three joins" 3 s.Memo.joins;
  Alcotest.(check int) "joins are hits" 3 s.Memo.hits;
  Alcotest.(check (result int string)) "a landed flight is not kept" (Ok 1)
    (Memo.coalesce m "k" (fun () -> Ok 1))

let test_memo_bound_spares_flights () =
  let m = Memo.create () in
  let go = Atomic.make false in
  let leader =
    Thread.create
      (fun () ->
        Memo.find_or_compute m (-1) (fun () ->
            while not (Atomic.get go) do
              Thread.delay 0.001
            done;
            "leader"))
      ()
  in
  while (Memo.stats m).Memo.running = 0 do
    Thread.delay 0.001
  done;
  (* fill the table past the bound: completed entries are dropped
     wholesale, the running one must survive *)
  for i = 0 to Memo.bound do
    ignore (Memo.find_or_compute m i (fun () -> "filler"))
  done;
  let refills = ref 0 in
  ignore (Memo.find_or_compute m 0 (fun () -> incr refills; "filler"));
  Alcotest.(check int) "completed entries were dropped" 1 !refills;
  let release = Thread.create (fun () -> Thread.delay 0.05; Atomic.set go true) () in
  Alcotest.(check string) "a late caller still joins the flight" "leader"
    (Memo.find_or_compute m (-1) (fun () -> "recomputed"));
  Thread.join release;
  Thread.join leader

let suite =
  [ Alcotest.test_case "ids" `Quick test_ids;
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng split" `Quick test_rng_split;
    QCheck_alcotest.to_alcotest prop_rng_int_range;
    QCheck_alcotest.to_alcotest prop_rng_uniform_range;
    QCheck_alcotest.to_alcotest prop_sign_float;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table render" `Quick test_table;
    Alcotest.test_case "table mismatch" `Quick test_table_mismatch;
    Alcotest.test_case "bar" `Quick test_bar;
    Alcotest.test_case "memo raising leader" `Quick test_memo_raising_leader;
    Alcotest.test_case "memo coalesce shares Error" `Quick test_memo_coalesce_error;
    Alcotest.test_case "memo bound spares flights" `Quick test_memo_bound_spares_flights;
  ]
