(* Single-flight memo tables.

   One mutex and one condition variable per table guard everything:
   the cells, the counters, and every flight's outcome.  A waiter holds
   on to the flight record it found, so it still receives the value
   when the leader drops the cell on landing (coalesce mode) or a
   bound sweep drops it later (the sweep never touches running cells
   anyway).  A leader that raises marks its flight failed and removes
   the cell; the waiters then go back through the table, where the
   first one to re-acquire the lock leads a fresh flight and the rest
   join it. *)

type 'v flight = { mutable landed : 'v option; mutable failed : bool }
type 'v cell = Done of 'v | Running of 'v flight

type ('k, 'v) t = {
  cells : ('k, 'v cell) Hashtbl.t;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable hits : int;
  mutable misses : int;
  mutable joins : int;
  mutable running : int;
}

type stats = { hits : int; misses : int; joins : int; running : int }

(* Far above one tune's candidate count or a run's distinct workload
   vectors; a backstop for daemon lifetimes. *)
let bound = 4096

let create () =
  {
    cells = Hashtbl.create 64;
    mutex = Mutex.create ();
    cond = Condition.create ();
    hits = 0;
    misses = 0;
    joins = 0;
    running = 0;
  }

let drop_done t =
  Hashtbl.filter_map_inplace
    (fun _ c -> match c with Done _ -> None | Running _ -> Some c)
    t.cells

let run ~keep t key f =
  Mutex.lock t.mutex;
  let rec claim () =
    match Hashtbl.find_opt t.cells key with
    | Some (Done v) ->
      t.hits <- t.hits + 1;
      `Value v
    | Some (Running fl) -> wait fl
    | None ->
      if Hashtbl.length t.cells >= bound then drop_done t;
      let fl = { landed = None; failed = false } in
      Hashtbl.replace t.cells key (Running fl);
      t.misses <- t.misses + 1;
      t.running <- t.running + 1;
      `Lead fl
  and wait fl =
    match fl.landed with
    | Some v ->
      t.hits <- t.hits + 1;
      t.joins <- t.joins + 1;
      `Value v
    | None when fl.failed -> claim ()
    | None ->
      Condition.wait t.cond t.mutex;
      wait fl
  in
  match claim () with
  | `Value v ->
    Mutex.unlock t.mutex;
    v
  | `Lead fl ->
    Mutex.unlock t.mutex;
    let finish outcome =
      Mutex.lock t.mutex;
      t.running <- t.running - 1;
      (match outcome with
      | Some v ->
        fl.landed <- outcome;
        if keep then Hashtbl.replace t.cells key (Done v) else Hashtbl.remove t.cells key
      | None ->
        fl.failed <- true;
        Hashtbl.remove t.cells key);
      Condition.broadcast t.cond;
      Mutex.unlock t.mutex
    in
    (match f () with
    | v ->
      finish (Some v);
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish None;
      Printexc.raise_with_backtrace e bt)

let find_or_compute t key f = run ~keep:true t key f
let coalesce t key f = run ~keep:false t key f

let stats (t : (_, _) t) =
  Mutex.lock t.mutex;
  let s = { hits = t.hits; misses = t.misses; joins = t.joins; running = t.running } in
  Mutex.unlock t.mutex;
  s
