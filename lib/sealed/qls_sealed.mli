(** CRC-sealed JSONL framing, shared by every append-only line sink.

    One line = one flat JSON object carrying a ["crc"] member over the
    bytes of the {e unsealed} object. The framing gives each sink the
    same crash contract: a whole line is written in one buffered write
    and flushed, so a kill can only ever truncate the final line, and
    the seal catches exactly that (plus any later bit rot) at load time.

    This module is the single implementation of the seal and of the
    line loops around it: the result {!Qls_harness.Store}, the
    {!Qls_obs} trace sink and the serve daemon's request log all write
    their lines through {!Log.append} and read them back through
    {!Log.load}, each passing only its own payload decoder. It is
    deliberately dependency-free: callers that want fault injection
    pass their mangle hook in. *)

(** {1 Checksum and framing} *)

val crc32 : string -> string
(** CRC32 (IEEE 802.3, the zlib polynomial) of the payload, as 8 lowercase
    hex digits. *)

val seal : string -> string
(** [seal payload] splices [,"crc":"<crc32>"] in front of the closing
    brace of a serialised flat JSON object. Byte-level on purpose: the
    checksum covers the exact serialisation, not a re-encoding. The
    payload must end in ['}']. *)

val unseal_ok : string -> string option
(** The payload iff the line carries a valid seal. *)

(** {1 Flat JSON} *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslash, control bytes). *)

exception Malformed of string

val fields_of_line : string -> (string * string) list
(** Parse one flat JSON object (string, number, and [true]/[false]/[null]
    members only — all any sealed sink writes) into an association list;
    string values are unescaped, numbers and literals returned as raw
    text.
    @raise Malformed on anything else. *)

(** {1 Quarantine} *)

type corrupt = { line_no : int; reason : string; text : string }
(** One damaged line as read: 1-based position, why it was rejected, and
    the raw bytes (preserved for forensics, never surfaced as data). *)

val quarantine_append : path:string -> corrupt list -> unit
(** Append damaged lines to [path] in the store's quarantine format
    (["# line N: reason"] followed by the raw bytes). No-op on []. *)

(** {1 Sealed log} *)

(** An append-only sealed JSONL sink: one sealed, flushed line per
    append under a mutex, so concurrent domains never interleave within
    a line and a kill can only truncate the final one. *)
module Log : sig
  type t

  val open_append :
    ?fsync:bool -> ?mangle:(key:string -> string -> string) -> string -> t
  (** Open (creating if needed) for appending. [mangle] is applied to
      the sealed bytes of every line, newline included — the fault
      injection hook; default identity. [fsync] syncs after every
      append. *)

  val append : t -> key:string -> string -> unit
  (** [append t ~key payload] seals the flat-JSON [payload] and writes
      it as one line. [key] is handed to the mangle hook (a task or
      request id), it does not reach the file. *)

  val close : t -> unit

  val load :
    ?strict:bool ->
    ?mangle:(line_no:int -> string -> string) ->
    parse:(string -> ('a, string) result) ->
    string ->
    'a list * corrupt list
  (** Read a sealed log back in file order: the [parse]d payload of
      every line that passes, plus the quarantine list. A line is
      quarantined, with its raw bytes, when its seal fails (["crc
      mismatch"]), when it carries no seal and [strict] holds
      (["missing seal"]; default [true] — a reader of pre-seal lines
      passes [~strict:false], and [parse] then sees the whole line), or
      when [parse] returns [Error reason]. Blank lines are skipped; a
      missing file is [([], [])]. [mangle] is the load-side fault hook,
      applied to each raw line first. *)
end
