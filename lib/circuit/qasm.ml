(* Decimal digits of a non-negative int: [Circuit] keeps every qubit
   index and width non-negative. *)
let rec add_digits buf i =
  if i >= 10 then add_digits buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + (i mod 10)))

let add_qubit buf prefix q =
  Buffer.add_string buf prefix;
  add_digits buf q;
  Buffer.add_char buf ']'

let to_string c =
  let n = Circuit.length c in
  let buf = Buffer.create (64 + (24 * n)) in
  add_qubit buf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" (Circuit.n_qubits c);
  for i = 0 to n - 1 do
    Buffer.add_string buf ";\n";
    match Circuit.gate c i with
    | Gate.G1 { name; q } ->
        Buffer.add_string buf name;
        add_qubit buf " q[" q
    | Gate.G2 { name; a; b } ->
        Buffer.add_string buf name;
        add_qubit buf " q[" a;
        add_qubit buf ",q[" b
  done;
  Buffer.add_string buf ";\n";
  Buffer.contents buf

type error = { line : int; message : string }

exception Parse_error of error

let error_to_string e =
  if e.line > 0 then Printf.sprintf "line %d: %s" e.line e.message
  else e.message

let fail line message = raise (Parse_error { line; message })
let failf line fmt = Printf.ksprintf (fail line) fmt

(* The reader works on index ranges [a, b) of the text, in place;
   whitespace is [String.trim]'s. *)
let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'
let rec trim_left s a b = if a < b && is_space s.[a] then trim_left s (a + 1) b else a
let rec trim_right s a b = if b > a && is_space s.[b - 1] then trim_right s a (b - 1) else b

(* First index of [c] in [a, b), or [b]; [comment] finds the first "//". *)
let rec index s c a b = if a >= b || s.[a] = c then a else index s c (a + 1) b

let rec comment s a b =
  if a + 1 >= b then b else if s.[a] = '/' && s.[a + 1] = '/' then a else comment s (a + 1) b

let sub s a b = String.sub s a (b - a)

let rec equal_from s a p i =
  i = String.length p || (s.[a + i] = p.[i] && equal_from s a p (i + 1))

let range_equal s a b p = b - a = String.length p && equal_from s a p 0
let has_prefix s a b p = b - a >= String.length p && equal_from s a p 0

let rec skipped s a b = function
  | [] -> false
  | p :: ps -> has_prefix s a b p || skipped s a b ps

let rec decimal s i b acc =
  if i = b then acc
  else if s.[i] < '0' || s.[i] > '9' then -1
  else decimal s (i + 1) b ((acc * 10) + Char.code s.[i] - Char.code '0')

(* [int_of_string_opt] of the trimmed range: up to 18 plain digits are
   read in place, anything else (a sign, 0x, _, overflow) by the stdlib. *)
let int_in s a b =
  let a = trim_left s a b in
  let b = trim_right s a b in
  let n = if b > a && b - a <= 18 then decimal s a b 0 else -1 in
  if n >= 0 then Some n else int_of_string_opt (sub s a b)

let of_string text =
  let n_qubits = ref (-1) and reg = ref "" and gates = ref [] and name = ref "" in
  (* The widest qubit used and the line of its first use, checked against
     the qreg at the end: a gate may precede the declaration. *)
  let widest = ref (-1) and widest_line = ref 0 in
  (* "q[3]" -> 3, checking the register name. *)
  let operand line a b =
    let a = trim_left text a b in
    let b = trim_right text a b in
    let l = index text '[' a b and r = index text ']' a b in
    if not (r < b && l < r) then failf line "bad operand %S" (sub text a b);
    if !reg <> "" && not (range_equal text a l !reg) then
      failf line "unknown register %S (expected %S)" (sub text a l) !reg;
    match int_in text (l + 1) r with
    | Some i -> i
    | None -> failf line "bad qubit index %S" (sub text (l + 1) r)
  in
  let use line q =
    if q < 0 then failf line "negative qubit index %d" q;
    if q > !widest then (widest := q; widest_line := line)
  in
  (* "<name[(params)]> <op>[, <op>]": every operand is read before the
     count is checked, so the first bad one is the error. Consecutive
     gates of one name share its string. *)
  let gate line a b =
    let sp = index text ' ' a b in
    if sp = b then failf line "unsupported statement %S" (sub text a b);
    let paren = index text '(' a sp in
    if paren < sp && index text ')' a sp = sp then fail line "unterminated parameter list";
    let e = trim_right text a paren in
    if not (range_equal text a e !name) then name := sub text a e;
    let name = !name in
    let q0 = ref 0 and q1 = ref 0 and n_ops = ref 0 and s = ref (sp + 1) in
    while !s <= b do
      let e = index text ',' !s b in
      let q = operand line !s e in
      if !n_ops = 0 then q0 := q else q1 := q;
      incr n_ops;
      s := e + 1
    done;
    match !n_ops with
    | 1 ->
        use line !q0;
        gates := Gate.G1 { name; q = !q0 } :: !gates
    | 2 ->
        use line !q0;
        use line !q1;
        if !q0 = !q1 then failf line "gate %S repeats qubit %d" name !q0;
        gates := Gate.G2 { name; a = !q0; b = !q1 } :: !gates
    | k -> failf line "gate %S with %d operands (max 2)" name k
  in
  let statement line a b =
    let a = trim_left text a b in
    let b = trim_right text a b in
    if a = b || skipped text a b [ "OPENQASM"; "include"; "creg"; "barrier"; "measure" ]
    then ()
    else if not (has_prefix text a b "qreg") then gate line a b
    else if !n_qubits >= 0 then fail line "multiple qreg declarations"
    else begin
      let a = trim_left text (a + 4) b in
      let l = index text '[' a b and r = index text ']' a b in
      if not (r < b && l < r) then fail line "malformed qreg";
      reg := sub text a (trim_right text a l);
      match int_in text (l + 1) r with
      | Some n -> n_qubits := n
      | None -> fail line "bad qreg size"
    end
  in
  let len = String.length text and line = ref 0 and pos = ref 0 in
  while !pos <= len do
    incr line;
    let stop = index text '\n' !pos len in
    let cut = comment text !pos stop and s = ref !pos in
    while !s <= cut do
      let e = index text ';' !s cut in
      statement !line !s e;
      s := e + 1
    done;
    pos := stop + 1
  done;
  if !n_qubits < 0 then fail 0 "missing qreg declaration";
  if !widest >= !n_qubits then
    failf !widest_line "qubit %d outside qreg %s[%d]" !widest !reg !n_qubits;
  Circuit.create ~n_qubits:!n_qubits (List.rev !gates)

let of_string_result text =
  match of_string text with
  | circuit -> Ok circuit
  | exception Parse_error e -> Error e

let write_file path c =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string c))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))

let read_file_result path =
  match read_file path with
  | circuit -> Ok circuit
  | exception Parse_error e -> Error e
  | exception Sys_error message -> Error { line = 0; message }
