(** Single-flight memo tables, safe to share across domains and
    threads.

    Concurrent misses on one key run the computation once: the first
    caller (the leader) computes while the others block and then
    receive the value it returned, whatever that value is ([Error _]
    included).  If the computation raises, only the leader sees the
    exception; nothing is recorded, and one waiter computes afresh.

    Two entry points differ only in what happens after the flight
    lands.  {!find_or_compute} keeps the value for later callers;
    {!coalesce} shares it only with the callers that overlapped the
    computation, for call sites whose own storage (a journal) keeps
    results.

    Kept values live until the table holds {!bound} entries; the next
    miss then drops every completed entry at once.  In-flight entries
    are never dropped, so their waiters are never orphaned. *)

type ('k, 'v) t

type stats = {
  hits : int;  (** calls answered without computing: kept value or joined flight *)
  misses : int;  (** computations run (including ones that raised) *)
  joins : int;  (** the subset of [hits] that waited on another caller's flight *)
  running : int;  (** flights in progress right now *)
}

val create : unit -> ('k, 'v) t

val bound : int
(** Entry count at which completed entries are dropped wholesale. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The kept value for the key, or the value of a single-flight
    computation, which is then kept.  [f] must be a pure function of
    the key. *)

val coalesce : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Like {!find_or_compute}, but the value is handed only to callers
    that arrive while it is being computed; the next call after the
    flight lands computes again. *)

val stats : ('k, 'v) t -> stats
