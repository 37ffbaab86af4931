(* R12 fixture: recursions nested in a function. The rule once checked
   structure-level groups only, so [bad_nested] passed unseen. Every
   nested function here is named [go] on purpose: a polling [go] must
   not vouch for another function of the same name. *)

(* bad: a nested recursion with no poll *)
let bad_nested n =
  let rec go i = if i < n then go (i + 1) in
  go 0

(* ok: a nested recursion that polls *)
let good_nested n =
  let rec go i =
    Qls_cancel.poll ();
    if i < n then go (i + 1)
  in
  go 0

(* ok: a nested recursion that polls through a file-local helper *)
let poll_helper () = Qls_cancel.poll ()

let good_nested_transitive n =
  let rec go i =
    poll_helper ();
    if i < n then go (i + 1)
  in
  go 0

(* ok: nested, not recursive *)
let not_recursive n =
  let go i = i + 1 in
  go n
