(** Append-only JSONL result store — the campaign checkpoint (format v2).

    Every finished task appends one self-contained JSON line keyed by
    its {!Task.id} and sealed with a CRC32 of its own bytes. Lines are
    written whole (single buffered write + flush under a mutex, with
    optional fsync), so concurrent workers never interleave; a kill, a
    torn write, or on-disk bit rot leaves lines that fail their checksum
    or don't parse, and {!load_verified} {e quarantines} those —
    anywhere in the file, not just a torn tail — instead of trusting or
    silently skipping them. Restarting with the same store therefore
    resumes exactly the undamaged result set, and re-runs exactly the
    damaged tasks.

    Line schema (the [crc] member is always last, over the bytes of the
    line without it; v1 lines without [crc] are still accepted):
    {v
    {"id":"…/sabre/…","status":"ok","swaps":12,"seconds":0.41,"attempts":1,
     "crc":"9a3b0c12"}
    {"id":"…","status":"degraded","via":"sabre","swaps":14,"seconds":0.2,
     "fb_attempts":1,"eclass":"timeout","esite":"runner.exec",
     "error":"timeout after 5s","attempts":2,"crc":"…"}
    {"id":"…","status":"failed","eclass":"permanent","esite":"runner.exec",
     "error":"…","attempts":1,"crc":"…"}
    v}

    On an ok line ["attempts"] is the runner attempt count that produced
    the outcome; on a degraded line ["attempts"] belongs to the original
    error and the fallback outcome's count is ["fb_attempts"] (the flat
    object cannot hold the key twice). v2 lines lacking either key load
    with the count defaulted to 1, so resuming an old store is
    bit-compatible.

    Fault-injection sites: ["store.append"] mangles the sealed outgoing
    bytes (torn writes, bit flips); ["store.load"] mangles each line as
    it is read back. Both are no-ops unless a {!Qls_faults} plan is
    installed. *)

type entry = { task_id : string; status : Task.status }

type corrupt = { line_no : int; reason : string; text : string }
(** One quarantined line: where it was, why it was rejected (parse error
    or ["crc mismatch"]), and its (mangled) bytes. *)

type compact_stats = {
  kept : int;  (** live entries written to the compacted file *)
  superseded : int;  (** older duplicate lines dropped *)
  quarantined : int;  (** corrupt lines moved to [<path>.quarantine] *)
}

type t
(** An open store handle (append mode). *)

val load_verified : string -> entry list * corrupt list
(** Parse an existing store in file order; a missing file is an empty
    store. Entries that parse and pass their checksum are returned;
    every other non-blank line is reported corrupt, never silently
    dropped. *)

val load : string -> entry list
(** [fst (load_verified path)] — when the caller doesn't need the
    corruption report. *)

val completed : entry list -> (string, Task.status) Hashtbl.t
(** Index entries by task id; when a task appears more than once (e.g. a
    retried campaign) the last line wins. *)

val open_append : ?fsync:bool -> string -> t
(** Open for appending, creating the file if needed. With [fsync] every
    append is forced to disk before returning — survives power loss, at
    a per-task latency cost (default [false]: flush only). *)

val append : t -> entry -> unit
(** Atomically append one sealed result line and flush (and fsync when
    the store was opened with it). Thread- and domain-safe. *)

val compact : ?fsync:bool -> string -> compact_stats
(** Rewrite the store keeping one line per task (last status wins, first
    appearance order), dropping superseded duplicates and corrupt lines.
    Corrupt lines are appended to [<path>.quarantine] first, then the
    rewrite is published with an atomic rename — a crash mid-compact
    leaves the original store untouched. *)

val close : t -> unit
