(** In-source suppression comments.

    A finding is suppressed by a comment of the form

    {v (* lint: <rule>[, <rule>...] — <reason> *) v}

    placed either on the flagged line itself, or alone on the line
    immediately above it. The rule name [all] suppresses every rule.
    The reason (after an em dash or ["--"]) is free text; it is not
    interpreted but the convention is mandatory in review. *)

type t

val scan : string -> t
(** Collect the suppression comments of a whole source file. *)

val suppressed : t -> line:int -> rule:string -> bool
(** Is [rule] suppressed at [line] — by a same-line comment, or by a
    comment-only line directly above? *)

val unused :
  t -> raw:(int * string) list -> ran:(string -> bool) -> (int * string) list
(** [unused t ~raw ~ran] is the [(line, rule)] of every rule named by a
    comment of [t] that covers none of [raw], the file's findings as
    [(line, rule)] before suppression, in line order. Only rules for
    which [ran] holds count, so a run of a rule subset does not call
    the other rules' comments unused; [ran "all"] says whether [all]
    counts. *)

val count : t -> int
(** Number of suppression comments found (for reporting). *)
