(* The traced run's span recorder.  Spans are taken in the benchmark's
   own code, around calls into each layer's public functions; nothing
   inside the library is instrumented.  A layer's self time is its
   spans' duration minus the part covered by child spans. *)

type event = { name : string; tag : string; t0 : float; t1 : float }

type t = {
  origin : float;
  mutable events : event list;
  mutable stack : float ref list;  (** child time of each open span *)
  mutable tag : string;  (** kernel the spans belong to *)
  total : (string, float) Hashtbl.t;
  self : (string, float) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
}

let create () =
  {
    origin = Unix.gettimeofday ();
    events = [];
    stack = [];
    tag = "";
    total = Hashtbl.create 16;
    self = Hashtbl.create 16;
    counts = Hashtbl.create 16;
  }

let add tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

let span t name f =
  let child = ref 0.0 in
  t.stack <- child :: t.stack;
  let t0 = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let t1 = Unix.gettimeofday () in
      let d = t1 -. t0 in
      t.stack <- List.tl t.stack;
      (match t.stack with parent :: _ -> parent := !parent +. d | [] -> ());
      add t.total name d;
      add t.self name (d -. !child);
      t.events <- { name; tag = t.tag; t0; t1 } :: t.events)

let count t name k =
  Hashtbl.replace t.counts name (k + Option.value ~default:0 (Hashtbl.find_opt t.counts name))

let total t name = Option.value ~default:0.0 (Hashtbl.find_opt t.total name)
let self t name = Option.value ~default:0.0 (Hashtbl.find_opt t.self name)
let counted t name = Option.value ~default:0 (Hashtbl.find_opt t.counts name)

(* Chrome trace-event JSON (complete events, microseconds). *)
let write_chrome t path =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i e ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"kernel\":%S}}"
        (if i = 0 then "" else ",")
        e.name
        ((e.t0 -. t.origin) *. 1e6)
        ((e.t1 -. e.t0) *. 1e6)
        e.tag)
    (List.rev t.events);
  output_string oc "\n]}\n";
  close_out oc
