(* The host's speed, by which every time metric is scaled.

   CPU time already leaves out the time a shared host did not give the
   benchmark, but not how fast the host ran while it did: whatever the
   cause (a busy neighbour on the same core or cache, a frequency
   change), the same tune can take 1.7 times the CPU time, for seconds
   to minutes at a time.  So every run also times a fixed
   reference loop (benchmark code that calls nothing in the library) at
   points spread through the run, and a time metric is reported as its
   CPU time times [nominal / median loop time].  A drift of the host
   slows the program and the loop alike and cancels; a change to the
   program leaves the loop alone and shows in full. *)

(* About the loop's CPU time on the 2-vCPU VM the baseline was measured
   on, so that scaled times read as seconds there. *)
let nominal = 0.020

(* CPU seconds (user + system) this process has used: every time metric
   is a CPU time, which leaves out time stolen by other guests.  Unlike
   a thread's own /proc schedstat, which advances only at scheduler
   ticks, this counts the running thread's time up to the call.  The
   serve-mix clients' other thread, if any, is blocked on its socket
   meanwhile. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The loop reads two buffers at pseudo-random places, each read's
   place depending on the last value read: 256 KB, inside the per-core
   L2, like the compile path's pointer chasing, and 8 MB, past it, like
   the simulator's state at an out-of-cache N.  Each read also feeds a square root.  Bytes are never
   scanned by the GC and the loop allocates nothing, so its time does
   not follow the program's heap. *)
let near = Bytes.make (256 * 1024) '\001'
let far = Bytes.make (8 * 1024 * 1024) '\001'

let walk buf n =
  let mask = Bytes.length buf - 1 in
  let j = ref 0 and acc = ref 0.0 in
  for _ = 1 to n do
    let v = Char.code (Bytes.unsafe_get buf !j) in
    j := ((!j * 1103515245) + 12345 + v) land mask;
    acc := !acc +. sqrt (float_of_int !j)
  done;
  !acc

(* About 10 ms in each buffer. *)
let loop () = ignore (Sys.opaque_identity (walk near 1_000_000 +. walk far 80_000))

let mu = Mutex.create ()
let samples = ref []

(* Time the loop once. *)
let sample () =
  let t0 = cpu () in
  loop ();
  let dt = cpu () -. t0 in
  Mutex.protect mu (fun () -> samples := dt :: !samples)

(* [nominal] over the median loop time of the run so far: the factor
   that turns this run's CPU seconds into nominal seconds. *)
let scale () =
  match Mutex.protect mu (fun () -> !samples) with
  | [] -> invalid_arg "Hostref.scale: the loop was never timed"
  | xs ->
    let m = Pct.median xs in
    Printf.eprintf "tunebench: reference loop %.3f ms (median of %d); times scaled by %.4f\n%!"
      (m *. 1000.0) (List.length xs) (nominal /. m);
    nominal /. m
