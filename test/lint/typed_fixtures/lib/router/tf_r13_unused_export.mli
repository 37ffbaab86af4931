(* R13 fixture: three exports. The directory path puts this interface in
   the rule's lib/ scope. *)

(* ok: Tf_r13_caller uses it *)
val used_outside : int -> int

(* bad: only this module's own .ml uses it *)
val used_inside : int -> int

(* bad: nothing uses it *)
val unused : int -> int
