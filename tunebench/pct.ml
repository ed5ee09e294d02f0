(* Order statistics the benchmark reports with.  A tail percentile is
   reported only when at least [min_beyond] samples lie beyond it, so a
   "p95" never rests on a handful of observations. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the sample of 1-based rank ceil(p * n); the
   samples beyond it are the n - rank above that rank. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  if n = 0 || n - rank < min_beyond then None else Some a.(rank - 1)

(* Plain median, for per-run aggregates (a few suite walls) where no
   tail is claimed. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pct.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let geomean xs =
  match xs with
  | [] -> invalid_arg "Pct.geomean: no samples"
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))
