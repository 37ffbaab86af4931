(* One suppression that silences nothing: nothing below crosses a
   domain, so [domain-escape] never fires on the line under the
   comment. The linter reports it, and fails under --check when
   domain-escape ran. The live suppression above it is not reported. *)

let live xs = List.sort compare xs (* lint: poly-compare — fixture: live *)

(* lint: domain-escape — fixture: unused, nothing here is spawned *)
let unused xs = List.length xs
