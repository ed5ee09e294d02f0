(* The seeded serve-mix request stream.  [generate] is a pure function
   of the seed and builds the whole request list before any timing.
   Each new workpoint is a BLAS-1 kernel at a small out-of-cache N with
   its own workload seed, so its first request is a cold tune; repeats
   pick earlier workpoints by a zipf law over recency and split evenly
   between [tune] and [lookup].

   The cold share is stratified so that every prefix of the stream
   costs about the same whatever the seed: each block of [block]
   requests introduces exactly one workpoint (at a seeded position), and
   workpoints walk through rounds of the 14 kernels, one round per size,
   alternating N = 256 and N = 512.  The first round is the daemon's
   suite: the kernels in [Defs.all] order, as the tune-* workloads tune
   them, so that what the daemon holds after it does not follow the
   seed's kernel order.  Every later round is a seeded shuffle. *)

type op = Tune | Lookup

type workpoint = { kernel : Ifko_blas.Defs.kernel_id; n : int; wseed : int }

type request = { wp : int; op : op }

type t = {
  workpoints : workpoint array;
  requests : request array;
  first : int array;  (** index of each workpoint's first request *)
}

let block = 10
let sizes = [| 256; 512 |]

(* Workpoint [i]'s workload seed: distinct within a stream, so no two
   workpoints share a result-cache key. *)
let wseed ~seed i = ((seed land 0xFFFF) lsl 20) + i

(* Zipf weight of recency rank [r] (1 = newest).  The exponent is below
   1 so that the newest workpoint, usually still in flight, does not
   absorb most repeats: a repeat of it is a coalesced wait. *)
let zipf_s = 0.5
let zipf r = Float.pow (float_of_int r) (-.zipf_s)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Ifko_util.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let generate ~seed ~length =
  let rng = Ifko_util.Rng.create seed in
  let kernels = Array.of_list Ifko_blas.Defs.all in
  let nk = Array.length kernels in
  let order = ref [||] in
  let wps = ref [] and nwp = ref 0 and first = ref [] in
  let new_at = ref 0 in
  let requests =
    Array.init length (fun i ->
        if i mod block = 0 && i > 0 then new_at := i + Ifko_util.Rng.int rng block;
        if i = !new_at then begin
          if !nwp = 0 then order := kernels
          else if !nwp mod nk = 0 then order := shuffle rng kernels;
          let n = sizes.(!nwp / nk mod Array.length sizes) in
          wps := { kernel = !order.(!nwp mod nk); n; wseed = wseed ~seed !nwp } :: !wps;
          first := i :: !first;
          incr nwp;
          { wp = !nwp - 1; op = Tune }
        end
        else begin
          let total = ref 0.0 in
          for r = 1 to !nwp do
            total := !total +. zipf r
          done;
          let u = Ifko_util.Rng.float rng !total in
          let rec pick r acc =
            let acc = acc +. zipf r in
            if u < acc || r = !nwp then r else pick (r + 1) acc
          in
          let rank = pick 1 0.0 in
          let op = if Ifko_util.Rng.int rng 2 = 0 then Tune else Lookup in
          { wp = !nwp - rank; op }
        end)
  in
  {
    workpoints = Array.of_list (List.rev !wps);
    requests;
    first = Array.of_list (List.rev !first);
  }

(* How a request relates to its workpoint's first reply, decided when
   the request is sent from the generator's own completion log (not
   from the reply's [hit] flag, which the daemon also sets for
   coalesced waits). *)
type cls = First | Coalesced | Hit

let classify t ~first_done i =
  let r = t.requests.(i) in
  if t.first.(r.wp) = i then First else if first_done.(r.wp) then Hit else Coalesced

let args_of (w : workpoint) =
  {
    (Ifko_serve.Proto.default_args ~kernel:(Ifko_blas.Hil_sources.source w.kernel)) with
    Ifko_serve.Proto.machine = "p4e";
    context = "oc";
    n = w.n;
    seed = w.wseed;
    flops_per_n = Ifko_blas.Defs.flops_per_n w.kernel.Ifko_blas.Defs.routine;
  }
