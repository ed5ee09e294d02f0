(* Key-prefix-sharded probe store: N independent Store journals in one
   directory, each with its own mutex, so the daemon's concurrent
   in-flight tunes never contend on a single journal.  Keys are hex MD5
   digests, so the first byte is uniform and `first_byte mod shards`
   balances the shards.

   On top of the shards sits a single-flight memo: when several
   concurrent tunes miss on the *same* key, one computes and the rest
   wait for its result instead of duplicating the (expensive) probe.

   Layout of a store directory:
     store.meta       {"ifko_shard_store":1,"shards":N}
     shard-00.jsonl   Store journals (header + entries)
     ...
   The shard count is fixed at creation and read back from store.meta —
   opening with a different ?shards simply follows the directory, so
   keys keep hashing to the journal that holds them. *)

module Store = Ifko_store.Store
module Json = Store.Json

type t = {
  dir : string;
  shards : Store.t array;
  flight : (string, Store.outcome) Ifko_util.Memo.t;
      (* [cached] calls that missed the journal; the journal keeps the
         outcome, so the memo only coalesces overlapping misses *)
  lookup_hits : int Atomic.t;  (* journal hits, by [find_entry] or [cached] *)
  lookup_misses : int Atomic.t;  (* [find_entry] misses *)
}

let meta_file dir = Filename.concat dir "store.meta"
let shard_file dir i = Filename.concat dir (Printf.sprintf "shard-%02d.jsonl" i)

let read_meta dir =
  let path = meta_file dir in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let line = try input_line ic with End_of_file -> "" in
    close_in_noerr ic;
    match Json.parse line with
    | exception Json.Bad -> None
    | fields ->
      (match (Json.num fields "ifko_shard_store", Json.num fields "shards") with
      | Some _, Some n when n >= 1.0 -> Some (int_of_float n)
      | _ -> None)
  end

let write_meta dir ~shards =
  let oc = open_out_bin (meta_file dir) in
  output_string oc
    (Json.render
       [ ("ifko_shard_store", Json.N 1.0); ("shards", Json.N (float_of_int shards)) ]
    ^ "\n");
  close_out oc

let open_ ?seed ?(shards = 8) ?clock dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Shard_store.open_: %s exists and is not a directory" dir);
  let shards =
    match read_meta dir with
    | Some n -> n (* the directory knows its own geometry *)
    | None ->
      let shards = max 1 (min shards 256) in
      write_meta dir ~shards;
      shards
  in
  {
    dir;
    shards = Array.init shards (fun i -> Store.open_ ?seed ?clock (shard_file dir i));
    flight = Ifko_util.Memo.create ();
    lookup_hits = Atomic.make 0;
    lookup_misses = Atomic.make 0;
  }

let close t = Array.iter Store.close t.shards
let dir t = t.dir
let shard_count t = Array.length t.shards

(* Keys are hex MD5; fall back to a generic hash for foreign keys. *)
let shard_index t key =
  let b =
    if String.length key >= 2 then
      match int_of_string_opt ("0x" ^ String.sub key 0 2) with
      | Some b -> b
      | None -> Hashtbl.hash key land 0xff
    else Hashtbl.hash key land 0xff
  in
  b mod Array.length t.shards

let shard t key = t.shards.(shard_index t key)

let find_entry t ~key =
  let r = Store.find_entry (shard t key) ~key in
  Atomic.incr (if Option.is_some r then t.lookup_hits else t.lookup_misses);
  r

let find t ~key = Option.map (fun (o, _, _) -> o) (find_entry t ~key)

let add t ~key ~params ~prov outcome = Store.add (shard t key) ~key ~params ~prov outcome

(* Read-only fold over every shard in index order (each shard folds in
   sorted-key order), so the scan is deterministic for a given set of
   entries regardless of append order. *)
let fold_entries t ~init ~f =
  Array.fold_left (fun acc sh -> Store.fold_entries sh ~init:acc ~f) init t.shards

(* The first misser of a key computes and journals it; concurrent
   missers of the same key share its outcome (Memo.coalesce), and if it
   raises, one of them takes over.  This is what makes N clients tuning
   the same cold kernel cost one tune. *)
let cached t ~key ~params ~prov f =
  match Store.find_entry (shard t key) ~key with
  | Some (o, _, _) ->
    Atomic.incr t.lookup_hits;
    o
  | None ->
    Ifko_util.Memo.coalesce t.flight key (fun () ->
        let o = f () in
        add t ~key ~params ~prov o;
        o)

let entries t = Array.fold_left (fun acc sh -> acc + Store.entries sh) 0 t.shards

let compact t = Array.iter Store.compact t.shards

(* Size budget splits evenly across shards — hex-digest keys spread
   uniformly, so per-shard budgets approximate the global one without
   any cross-shard coordination (each shard evicts under its own
   mutex). *)
let evict ?max_bytes ?max_age ~now t =
  let per_shard = Option.map (fun b -> max 1 (b / Array.length t.shards)) max_bytes in
  Array.fold_left
    (fun acc sh -> acc + Store.evict ?max_bytes:per_shard ?max_age ~now sh)
    0 t.shards

type ckpt_stat = { ck_machine : string; ck_snapshots : int; ck_transients : int }

type stat = {
  sh_dir : string;
  sh_shards : Store.stat list;
  sh_entries : int;
  sh_bytes : int;
  sh_corrupt : int;
  sh_torn : int;
  sh_hits : int;
  sh_misses : int;
  sh_joins : int;
  sh_ckpts : ckpt_stat list;
}

(* The serve daemon persists warm-state checkpoints next to the shards
   (one ckpt-<machine> directory each: <key>.ckpt blobs plus a
   transients.jsonl of resume-transient scalars).  Counting them here
   makes `ifko store stat` show how much warm-up/transient work a
   daemon restart will be able to skip. *)
let ckpt_stats_of_dir dir =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list entries
  |> List.filter_map (fun name ->
         let path = Filename.concat dir name in
         if String.length name > 5 && String.sub name 0 5 = "ckpt-" && Sys.is_directory path
         then begin
           let files = try Sys.readdir path with Sys_error _ -> [||] in
           let snapshots =
             Array.fold_left
               (fun acc f -> if Filename.check_suffix f ".ckpt" then acc + 1 else acc)
               0 files
           in
           let transients =
             match open_in (Filename.concat path "transients.jsonl") with
             | exception Sys_error _ -> 0
             | ic ->
               let n = ref 0 in
               (try
                  while true do
                    ignore (input_line ic);
                    incr n
                  done
                with End_of_file -> ());
               close_in ic;
               !n
           in
           Some
             { ck_machine = String.sub name 5 (String.length name - 5);
               ck_snapshots = snapshots; ck_transients = transients }
         end
         else None)
  |> List.sort (fun a b -> compare a.ck_machine b.ck_machine)

let stat t =
  let shards = Array.to_list (Array.map Store.stat t.shards) in
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 shards in
  (* a join counts as a hit, a flight leader as a miss *)
  let fl = Ifko_util.Memo.stats t.flight in
  {
    sh_dir = t.dir;
    sh_shards = shards;
    sh_entries = sum (fun s -> s.Store.st_entries);
    sh_bytes = sum (fun s -> s.Store.st_bytes);
    sh_corrupt = sum (fun s -> s.Store.st_corrupt);
    sh_torn = sum (fun s -> s.Store.st_torn);
    sh_hits = Atomic.get t.lookup_hits + fl.Ifko_util.Memo.hits;
    sh_misses = Atomic.get t.lookup_misses + fl.Ifko_util.Memo.misses;
    sh_joins = fl.Ifko_util.Memo.joins;
    sh_ckpts = ckpt_stats_of_dir t.dir;
  }

(* Same conventions as Store.stat_json / Diag.to_json: every field
   always present, one object (here with a per-shard array inside). *)
let stat_fields s =
  [ ("dir", Json.S s.sh_dir);
    ("shards", Json.N (float_of_int (List.length s.sh_shards)));
    ("entries", Json.N (float_of_int s.sh_entries));
    ("bytes", Json.N (float_of_int s.sh_bytes));
    ("corrupt_lines", Json.N (float_of_int s.sh_corrupt));
    ("torn_lines", Json.N (float_of_int s.sh_torn));
    ("hits", Json.N (float_of_int s.sh_hits));
    ("misses", Json.N (float_of_int s.sh_misses));
    ("inflight_joins", Json.N (float_of_int s.sh_joins));
    ("per_shard", Json.A (List.map (fun st -> Json.O (Store.stat_fields st)) s.sh_shards));
    ( "ckpt_dirs",
      Json.A
        (List.map
           (fun c ->
             Json.O
               [ ("machine", Json.S c.ck_machine);
                 ("snapshots", Json.N (float_of_int c.ck_snapshots));
                 ("transients", Json.N (float_of_int c.ck_transients));
               ])
           s.sh_ckpts) );
  ]

let stat_json s = Json.render (stat_fields s)

(* Directory-level summary without a live daemon (for `ifko store stat`
   on a shard directory). *)
let stat_of_dir dir =
  match read_meta dir with
  | None -> None
  | Some _ ->
    let t = open_ dir in
    let s = stat t in
    close t;
    Some s
