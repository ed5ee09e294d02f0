type outcome =
  | Timed of { mflops : float; cycles : float }
  | Test_failed
  | Illegal

(* ---------------------------------------------------------------- *)
(* Minimal JSON for the journal and the serve protocol.  The writer
   side of journal records only ever emits flat objects of string /
   number / bool fields; the parser accepts full nesting so protocol
   responses (e.g. shard-store statistics) can embed objects and
   arrays.  Self-contained so the store adds no dependency. *)

module Json = struct
  type value =
    | S of string
    | N of float
    | B of bool
    | Null
    | O of (string * value) list
    | A of value list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* %.17g round-trips every finite double, so reloaded MFLOPS compare
     bit-identically with freshly computed ones. *)
  let number f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let rec add_value buf = function
    | S s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | N f -> Buffer.add_string buf (number f)
    | B b -> Buffer.add_string buf (if b then "true" else "false")
    | Null -> Buffer.add_string buf "null"
    | O fields -> add_object buf fields
    | A items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          add_value buf v)
        items;
      Buffer.add_char buf ']'

  and add_object buf fields =
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\":";
        add_value buf v)
      fields;
    Buffer.add_char buf '}'

  let render fields =
    let buf = Buffer.create 128 in
    add_object buf fields;
    Buffer.contents buf

  let render_value v =
    let buf = Buffer.create 128 in
    add_value buf v;
    Buffer.contents buf

  exception Bad

  (* One-line parser for the subset [render]/[render_value] produce
     (plus whitespace).  Any deviation raises [Bad]; the journal loader
     maps that to "corrupt", the protocol maps it to an error reply. *)
  let parse_value_at line pos =
    let n = String.length line in
    let peek () = if !pos >= n then raise Bad else line.[!pos] in
    let next () =
      let c = peek () in
      incr pos;
      c
    in
    let skip_ws () =
      while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false) do
        incr pos
      done
    in
    let expect c = if next () <> c then raise Bad in
    let literal word =
      let l = String.length word in
      if n - !pos >= l && String.sub line !pos l = word then pos := !pos + l else raise Bad
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 32 in
      let rec go () =
        match next () with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (match next () with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            let hex = Bytes.create 4 in
            for i = 0 to 3 do
              Bytes.set hex i (next ())
            done;
            let code = try int_of_string ("0x" ^ Bytes.to_string hex) with _ -> raise Bad in
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else raise Bad (* the writer only escapes control chars *)
          | _ -> raise Bad);
          go ()
        | c -> Buffer.add_char buf c; go ()
      in
      go ()
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | '"' -> S (parse_string ())
      | 't' -> literal "true"; B true
      | 'f' -> literal "false"; B false
      | 'n' -> literal "null"; Null
      | '{' -> O (parse_object ())
      | '[' ->
        ignore (next ());
        skip_ws ();
        if peek () = ']' then (ignore (next ()); A [])
        else begin
          let items = ref [] in
          let rec elements () =
            items := parse_value () :: !items;
            skip_ws ();
            match next () with
            | ',' -> elements ()
            | ']' -> ()
            | _ -> raise Bad
          in
          elements ();
          A (List.rev !items)
        end
      | _ ->
        let start = !pos in
        while
          !pos < n
          && match line.[!pos] with
             | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
             | _ -> false
        do
          incr pos
        done;
        if !pos = start then raise Bad;
        (try N (float_of_string (String.sub line start (!pos - start)))
         with _ -> raise Bad)
    and parse_object () =
      skip_ws ();
      expect '{';
      skip_ws ();
      if peek () = '}' then (ignore (next ()); [])
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match next () with
          | ',' -> members ()
          | '}' -> ()
          | _ -> raise Bad
        in
        members ();
        List.rev !fields
      end
    in
    parse_value ()

  let parse line =
    let pos = ref 0 in
    let v = match parse_value_at line pos with O fields -> fields | _ -> raise Bad in
    let n = String.length line in
    while !pos < n && (match line.[!pos] with ' ' | '\t' -> true | _ -> false) do
      incr pos
    done;
    if !pos <> n then raise Bad;
    v

  let str fields k = match List.assoc_opt k fields with Some (S s) -> Some s | _ -> None
  let num fields k = match List.assoc_opt k fields with Some (N f) -> Some f | _ -> None
  let bool fields k = match List.assoc_opt k fields with Some (B b) -> Some b | _ -> None
end

(* ---------------------------------------------------------------- *)

(* [e_ts] is the wall-clock insertion time from the store's [clock]
   (0. under the default clock, in which case it is not journaled, so
   offline journals stay byte-deterministic); [e_seq] is the in-memory
   load/insert order, the tie-breaker that makes eviction ordering
   total. *)
type entry = { outcome : outcome; params : string; prov : string; e_ts : float; e_seq : int }

type t = {
  store_path : string;
  clock : unit -> float;
  mutex : Mutex.t;
  table : (string, entry) Hashtbl.t;
  mutable oc : out_channel option;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable corrupt_count : int;  (** unparseable complete lines *)
  mutable torn_count : int;  (** unparseable, newline-less trailing line *)
  mutable next_seq : int;
  mutable header_seed : int option;
  mutable saw_header : bool;  (** a header line (even seedless) was loaded *)
}

let schema_version = 1

let header_line ~seed =
  Json.render
    ([ ("ifko_store", Json.N (float_of_int schema_version)) ]
    @ match seed with None -> [] | Some s -> [ ("seed", Json.N (float_of_int s)) ])

let entry_line key e =
  let outcome_fields =
    match e.outcome with
    | Timed { mflops; cycles } ->
      [ ("o", Json.S "timed"); ("mflops", Json.N mflops); ("cycles", Json.N cycles) ]
    | Test_failed -> [ ("o", Json.S "test_failed") ]
    | Illegal -> [ ("o", Json.S "illegal") ]
  in
  Json.render
    ((("k", Json.S key) :: outcome_fields)
    @ [ ("params", Json.S e.params); ("prov", Json.S e.prov) ]
    @ if e.e_ts > 0.0 then [ ("ts", Json.N e.e_ts) ] else [])

let parse_entry ~seq fields =
  let str k = Json.str fields k in
  let num k = Json.num fields k in
  match str "k" with
  | None -> None
  | Some key ->
    let params = Option.value ~default:"" (str "params") in
    let prov = Option.value ~default:"" (str "prov") in
    let e_ts = Option.value ~default:0.0 (num "ts") in
    let mk outcome = Some (key, { outcome; params; prov; e_ts; e_seq = seq }) in
    (match str "o" with
    | Some "timed" ->
      (match (num "mflops", num "cycles") with
      | Some mflops, Some cycles -> mk (Timed { mflops; cycles })
      | _ -> None)
    | Some "test_failed" -> mk Test_failed
    | Some "illegal" -> mk Illegal
    | _ -> None)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Fold the journal into the table.  Complete lines that do not parse
   are counted corrupt; a trailing newline-less fragment that does not
   parse — what a crash mid-append leaves — is counted torn. *)
let load_journal t =
  let s = read_file t.store_path in
  let n = String.length s in
  let pos = ref 0 in
  let take line =
    if String.trim line <> "" then begin
      match Json.parse line with
      | exception Json.Bad -> t.corrupt_count <- t.corrupt_count + 1
      | fields ->
        (match List.assoc_opt "ifko_store" fields with
        | Some (Json.N _) ->
          t.saw_header <- true;
          (match List.assoc_opt "seed" fields with
          | Some (Json.N s) when t.header_seed = None ->
            t.header_seed <- Some (int_of_float s)
          | _ -> ())
        | _ ->
          let seq = t.next_seq in
          t.next_seq <- t.next_seq + 1;
          (match parse_entry ~seq fields with
          | Some (key, e) -> Hashtbl.replace t.table key e
          | None -> t.corrupt_count <- t.corrupt_count + 1))
    end
  in
  while !pos < n do
    match String.index_from_opt s !pos '\n' with
    | Some nl ->
      take (String.sub s !pos (nl - !pos));
      pos := nl + 1
    | None ->
      (* newline-less tail *)
      let tail = String.sub s !pos (n - !pos) in
      if String.trim tail <> "" then begin
        match Json.parse tail with
        | exception Json.Bad -> t.torn_count <- t.torn_count + 1
        | _ -> take tail (* complete record, the crash only ate the newline *)
      end;
      pos := n
  done

(* A crash mid-append can leave a torn line with no trailing newline;
   appending straight after it would glue the next record onto the torn
   one.  Start a fresh line whenever the journal does not end in \n. *)
let ends_in_newline path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let ok =
    len = 0
    ||
    (seek_in ic (len - 1);
     input_char ic = '\n')
  in
  close_in_noerr ic;
  ok

let append_channel t =
  match t.oc with
  | Some oc -> oc
  | None ->
    let needs_nl = Sys.file_exists t.store_path && not (ends_in_newline t.store_path) in
    let oc = open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 t.store_path in
    if needs_nl then output_char oc '\n';
    t.oc <- Some oc;
    oc

let open_ ?seed ?(clock = fun () -> 0.0) path =
  let t =
    {
      store_path = path;
      clock;
      mutex = Mutex.create ();
      table = Hashtbl.create 256;
      oc = None;
      hit_count = 0;
      miss_count = 0;
      corrupt_count = 0;
      torn_count = 0;
      next_seq = 0;
      header_seed = None;
      saw_header = false;
    }
  in
  let existed = Sys.file_exists path in
  if existed then load_journal t;
  if (not existed) || (not t.saw_header && Hashtbl.length t.table = 0) then begin
    let oc = append_channel t in
    output_string oc (header_line ~seed ^ "\n");
    flush oc;
    t.header_seed <- seed;
    t.saw_header <- true
  end;
  t

let close t =
  Mutex.lock t.mutex;
  (match t.oc with
  | Some oc ->
    flush oc;
    close_out_noerr oc;
    t.oc <- None
  | None -> ());
  Mutex.unlock t.mutex

let path t = t.store_path
let seed t = t.header_seed

let find t ~key =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.table key in
  (match r with
  | Some _ -> t.hit_count <- t.hit_count + 1
  | None -> t.miss_count <- t.miss_count + 1);
  Mutex.unlock t.mutex;
  Option.map (fun e -> e.outcome) r

let find_entry t ~key =
  Mutex.lock t.mutex;
  let r = Hashtbl.find_opt t.table key in
  Mutex.unlock t.mutex;
  Option.map (fun e -> (e.outcome, e.params, e.prov)) r

(* Tune-level entries (whole-search results journaled by the driver and
   the serve daemon) are distinguished from per-probe entries purely by
   their provenance prefix — the journal format is unchanged. *)
let is_tune_prov prov = String.length prov >= 5 && String.sub prov 0 5 = "tune "

(* Snapshot under the mutex, fold outside it, so [f] is free to use the
   store itself (journaling a derived entry, say) without deadlocking.
   Sorted-key order makes the fold deterministic regardless of append
   order — warm-start donor selection depends on that. *)
let fold_entries t ~init ~f =
  Mutex.lock t.mutex;
  let snap = Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.table [] in
  Mutex.unlock t.mutex;
  let snap = List.sort (fun (a, _) (b, _) -> compare a b) snap in
  List.fold_left
    (fun acc (key, e) -> f acc ~key ~params:e.params ~prov:e.prov e.outcome)
    init snap

let iter_tunes t ~f =
  fold_entries t ~init:() ~f:(fun () ~key ~params ~prov outcome ->
      match outcome with
      | Timed tm when is_tune_prov prov ->
        f ~key ~params ~prov ~mflops:tm.mflops
      | Timed _ | Test_failed | Illegal -> ())

let add t ~key ~params ~prov outcome =
  Mutex.lock t.mutex;
  let e = { outcome; params; prov; e_ts = t.clock (); e_seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  Hashtbl.replace t.table key e;
  let oc = append_channel t in
  (* one write of one complete line through an O_APPEND descriptor: a
     crash can tear at most this trailing line *)
  output_string oc (entry_line key e ^ "\n");
  flush oc;
  Mutex.unlock t.mutex

let cached ?store ~key ~params ~prov f =
  match store with
  | None -> f ()
  | Some t ->
    (match find t ~key with
    | Some o -> o
    | None ->
      let o = f () in
      add t ~key ~params ~prov o;
      o)

let hits t = t.hit_count
let misses t = t.miss_count
let entries t = Hashtbl.length t.table
let corrupt t = t.corrupt_count + t.torn_count
let torn t = t.torn_count

let file_bytes path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    close_in_noerr ic;
    n
  end

let bytes t = file_bytes t.store_path

let compact_locked t =
  (match t.oc with
  | Some oc ->
    flush oc;
    close_out_noerr oc;
    t.oc <- None
  | None -> ());
  let tmp = t.store_path ^ ".compact.tmp" in
  let oc = open_out_bin tmp in
  output_string oc (header_line ~seed:t.header_seed ^ "\n");
  let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.table []) in
  List.iter
    (fun k -> output_string oc (entry_line k (Hashtbl.find t.table k) ^ "\n"))
    keys;
  close_out oc;
  Sys.rename tmp t.store_path

let compact t =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) (fun () -> compact_locked t)

let evict ?max_bytes ?max_age ~now t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let removed = ref 0 in
      let remove k =
        Hashtbl.remove t.table k;
        incr removed
      in
      (* Age bound: entries journaled without a timestamp (e_ts = 0,
         e.g. by offline tooling under the default clock) have unknown
         age and are treated as arbitrarily old. *)
      (match max_age with
      | None -> ()
      | Some age ->
        let dead =
          Hashtbl.fold
            (fun k e acc -> if e.e_ts < now -. age then k :: acc else acc)
            t.table []
        in
        List.iter remove dead);
      (* Size bound on the *compacted* journal: oldest (ts, then load
         order) entries go first until the live set fits. *)
      (match max_bytes with
      | None -> ()
      | Some budget ->
        let header = String.length (header_line ~seed:t.header_seed) + 1 in
        let live = ref header in
        let all =
          Hashtbl.fold
            (fun k e acc ->
              let len = String.length (entry_line k e) + 1 in
              live := !live + len;
              (e.e_ts, e.e_seq, k, len) :: acc)
            t.table []
        in
        if !live > budget then begin
          let oldest_first = List.sort compare all in
          List.iter
            (fun (_, _, k, len) ->
              if !live > budget then begin
                remove k;
                live := !live - len
              end)
            oldest_first
        end);
      if !removed > 0 then compact_locked t;
      !removed)

(* ---------------------------------------------------------------- *)
(* Keys: hex MD5 of length-prefixed fields (no boundary aliasing). *)

let digest fields =
  let buf = Buffer.create 256 in
  List.iter
    (fun f ->
      Buffer.add_string buf (string_of_int (String.length f));
      Buffer.add_char buf ':';
      Buffer.add_string buf f)
    fields;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* [fidelity] is appended only when present, so every key minted before
   the fidelity axis existed is unchanged (the digest is length-prefixed
   per field, so appending a field can never alias an old key either). *)
let probe_key ~kernel ~machine ~context ~n ~seed ~check ?fidelity ~params () =
  let base =
    [ "probe"; kernel; machine; context; string_of_int n; string_of_int seed;
      (if check then "check" else "nocheck"); params ]
  in
  digest (match fidelity with None -> base | Some f -> base @ [ "fidelity:" ^ f ])

let timing_key ~kind ~func ~machine ~context ~n ~seed =
  digest [ "timing"; kind; func; machine; context; string_of_int n; string_of_int seed ]

(* [strategy] is appended only when present, so every key minted before
   the strategy axis existed is unchanged (same convention as
   [probe_key]'s fidelity field). *)
let tune_key ?strategy ~kernel ~machine ~context ~n ~seed ~check ~flops_per_n () =
  let base =
    [ "tune"; kernel; machine; context; string_of_int n; string_of_int seed;
      (if check then "check" else "nocheck"); Printf.sprintf "%.17g" flops_per_n ]
  in
  digest (match strategy with None -> base | Some s -> base @ [ "strategy:" ^ s ])

(* ---------------------------------------------------------------- *)

type stat = {
  st_path : string;
  st_entries : int;
  st_tunes : int;
  st_probes : int;
  st_timed : int;
  st_failed : int;
  st_illegal : int;
  st_corrupt : int;
  st_torn : int;
  st_bytes : int;
  st_seed : int option;
  st_hits : int;
  st_misses : int;
}

let stat t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
      let timed = ref 0 and failed = ref 0 and illegal = ref 0 in
      let tunes = ref 0 in
      Hashtbl.iter
        (fun _ e ->
          if is_tune_prov e.prov then incr tunes;
          match e.outcome with
          | Timed _ -> incr timed
          | Test_failed -> incr failed
          | Illegal -> incr illegal)
        t.table;
      {
        st_path = t.store_path;
        st_entries = Hashtbl.length t.table;
        st_tunes = !tunes;
        st_probes = Hashtbl.length t.table - !tunes;
        st_timed = !timed;
        st_failed = !failed;
        st_illegal = !illegal;
        st_corrupt = t.corrupt_count;
        st_torn = t.torn_count;
        st_bytes = file_bytes t.store_path;
        st_seed = t.header_seed;
        st_hits = t.hit_count;
        st_misses = t.miss_count;
      })

(* Follows the [Diag.to_json] conventions: one flat object, every field
   always present, [null] for absent values. *)
let stat_fields s =
  [ ("path", Json.S s.st_path);
    ("entries", Json.N (float_of_int s.st_entries));
    ("tune_entries", Json.N (float_of_int s.st_tunes));
    ("probe_entries", Json.N (float_of_int s.st_probes));
    ("timed", Json.N (float_of_int s.st_timed));
    ("test_failed", Json.N (float_of_int s.st_failed));
    ("illegal", Json.N (float_of_int s.st_illegal));
    ("corrupt_lines", Json.N (float_of_int s.st_corrupt));
    ("torn_lines", Json.N (float_of_int s.st_torn));
    ("bytes", Json.N (float_of_int s.st_bytes));
    ("seed", match s.st_seed with Some v -> Json.N (float_of_int v) | None -> Json.Null);
    ("hits", Json.N (float_of_int s.st_hits));
    ("misses", Json.N (float_of_int s.st_misses));
  ]

let stat_json s = Json.render (stat_fields s)

let stat_to_string s =
  Printf.sprintf
    "%s: %d entries (%d probes + %d tunes; %d timed, %d test-failed, %d illegal), %d \
     corrupt + %d torn line%s skipped, %d bytes%s\n"
    s.st_path s.st_entries s.st_probes s.st_tunes s.st_timed s.st_failed s.st_illegal
    s.st_corrupt s.st_torn
    (if s.st_corrupt + s.st_torn = 1 then "" else "s")
    s.st_bytes
    (match s.st_seed with
    | Some v -> Printf.sprintf ", seed %d" v
    | None -> "")

let stat_string p =
  if not (Sys.file_exists p) then Printf.sprintf "%s: no store\n" p
  else begin
    let t = open_ p in
    close t;
    stat_to_string (stat t)
  end

let clear p = if Sys.file_exists p then Sys.remove p
