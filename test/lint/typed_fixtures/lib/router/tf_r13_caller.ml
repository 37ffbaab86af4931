(* R13 fixture: the one caller of Tf_r13_unused_export from outside it. *)

let twice x = Tf_r13_unused_export.used_outside x
