(** A probe store sharded across N journal files by key prefix.

    Each shard is an ordinary {!Ifko_store.Store.t} (its own journal,
    its own internal mutex), picked by the first byte of the hex-digest
    key modulo the shard count — MD5 keys spread uniformly, so shards
    stay balanced and concurrent writers to different keys rarely touch
    the same journal.  A [store.meta] file in the directory persists the
    shard count; re-opening follows the directory's geometry regardless
    of the [?shards] argument, so keys keep hashing to the journal that
    holds them.

    On top of the shards sits an {!Ifko_util.Memo}: concurrent
    {!cached} misses on the same key coalesce into one computation
    whose outcome all callers share, and the journal keeps it. *)

module Store = Ifko_store.Store

type t

val open_ :
  ?seed:int -> ?shards:int -> ?clock:(unit -> float) -> string -> t
(** [open_ dir] creates [dir] if needed.  [shards] (default 8, clamped
    to 1..256) only matters when the directory is new; an existing
    [store.meta] wins.  [clock] stamps new entries for age-bounded
    eviction (default: the constant 0, which keeps journals
    byte-deterministic and marks entries "arbitrarily old").
    @raise Invalid_argument if [dir] exists and is not a directory. *)

val close : t -> unit
val dir : t -> string
val shard_count : t -> int

val find : t -> key:string -> Store.outcome option
val find_entry : t -> key:string -> (Store.outcome * string * string) option
(** Outcome, params, provenance.  Both count one hit or miss. *)

val add : t -> key:string -> params:string -> prov:string -> Store.outcome -> unit

val fold_entries :
  t ->
  init:'a ->
  f:('a -> key:string -> params:string -> prov:string -> Store.outcome -> 'a) ->
  'a
(** Read-only fold over every live entry: shards in index order, each
    shard in sorted-key order ({!Store.fold_entries}) — deterministic
    for a given entry set.  Used by the daemon's warm-start donor
    scan. *)

val cached :
  t -> key:string -> params:string -> prov:string ->
  (unit -> Store.outcome) -> Store.outcome
(** Memoize through the store with single-flight semantics
    ({!Ifko_util.Memo.coalesce}): a hit returns the stored outcome; the
    first misser runs [f], journals the outcome, and hands it to every
    caller that missed meanwhile (a join, counted as a hit).  If the
    leader raises, the exception propagates to it alone and one waiter
    takes over the computation. *)

val entries : t -> int

val compact : t -> unit
(** Rewrite every shard's journal to one line per live key. *)

val evict : ?max_bytes:int -> ?max_age:float -> now:float -> t -> int
(** Apply {!Store.evict} shard by shard; [max_bytes] is a whole-store
    budget split evenly across shards.  Returns entries dropped. *)

type ckpt_stat = {
  ck_machine : string;  (** from the [ckpt-<machine>] directory name *)
  ck_snapshots : int;  (** persisted [<key>.ckpt] warm-state blobs *)
  ck_transients : int;  (** lines in [transients.jsonl] *)
}
(** Persisted warm-state checkpoints the serve daemon keeps next to the
    shards — the state a restart reloads instead of re-warming. *)

type stat = {
  sh_dir : string;
  sh_shards : Store.stat list;  (** in shard order *)
  sh_entries : int;
  sh_bytes : int;
  sh_corrupt : int;
  sh_torn : int;
  sh_hits : int;  (** journal hits plus {!cached} joins *)
  sh_misses : int;  (** {!find_entry} misses plus {!cached} computations *)
  sh_joins : int;
  sh_ckpts : ckpt_stat list;  (** sorted by machine name *)
}

val stat : t -> stat

val stat_fields : stat -> (string * Store.Json.value) list
(** Flat summary fields plus a ["per_shard"] array of per-shard
    {!Store.stat_fields} objects and a ["ckpt_dirs"] array of persisted
    checkpoint summaries — same always-present-fields convention as
    [Diag.to_json]. *)

val stat_json : stat -> string

val stat_of_dir : string -> stat option
(** Offline statistics for a shard directory (opens, reads, closes);
    [None] if [dir] has no valid [store.meta]. *)
