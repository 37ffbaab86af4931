(** One static-analysis finding: a rule firing at a source location. *)

type severity = Error | Warning

type t = {
  file : string;  (** path relative to the lint root *)
  line : int;     (** 1-based *)
  col : int;      (** 0-based *)
  rule : string;  (** rule name, e.g. ["poly-compare"] *)
  severity : severity;
  message : string;
}

val v :
  file:string -> line:int -> col:int -> rule:string -> severity:severity ->
  string -> t

val of_location : file:string -> rule:string -> severity:severity ->
  Location.t -> string -> t
(** Finding anchored at the start of a compiler-libs location. *)

val order : t -> t -> int
(** File, then line, then column, then rule — all monomorphic. *)

val to_human : t -> string
(** [file:line:col: severity [rule] message] — one line, no trailing
    newline. *)

val json_escape : string -> string
(** Minimal JSON string escaping (quotes, backslashes, control chars),
    for the SARIF sink. *)
