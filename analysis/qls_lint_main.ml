(* qls_lint, the one lint front end: lint lib/, bin/ and bench/ (or
   explicit paths) on the Typedtree of each file's .cmt or .cmti, apply
   in-source suppressions, print the survivors, exit non-zero when any
   remain or a file has no .cmt. [dune build @lint]
   runs it over the source tree after @check; run it by hand with
   [dune exec analysis/qls_lint_main.exe -- ...]. See Qls_lint.Driver
   for the flags. *)

let () = exit (Qls_lint.Driver.main ~prog:"qls_lint_main" Sys.argv)
