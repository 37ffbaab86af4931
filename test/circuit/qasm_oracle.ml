(* Frozen reference copy of the line-splitting OpenQASM parser and the
   Printf-based writer that [Qasm] replaced. Test-only: the properties in
   test_qls_circuit.ml check the one-pass reader and the digit-loop
   writer against it. Do not edit it to match a change in [Qasm]; a
   difference is what the properties exist to find. *)

module Circuit = Qls_circuit.Circuit
module Gate = Qls_circuit.Gate
module Qasm = Qls_circuit.Qasm

let to_string c =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "OPENQASM 2.0;\n";
  Buffer.add_string buf "include \"qelib1.inc\";\n";
  Buffer.add_string buf (Printf.sprintf "qreg q[%d];\n" (Circuit.n_qubits c));
  Array.iter
    (fun g ->
      match g with
      | Gate.G1 { name; q } -> Buffer.add_string buf (Printf.sprintf "%s q[%d];\n" name q)
      | Gate.G2 { name; a; b } ->
          Buffer.add_string buf (Printf.sprintf "%s q[%d],q[%d];\n" name a b))
    (Circuit.gates c);
  Buffer.contents buf

let fail line message = raise (Qasm.Parse_error { Qasm.line; message })
let failf line fmt = Printf.ksprintf (fail line) fmt

(* Split a line into statements on ';', dropping comments. *)
let statements_of_line line =
  let line =
    match String.index_opt line '/' with
    | Some i when i + 1 < String.length line && line.[i + 1] = '/' ->
        String.sub line 0 i
    | Some _ | None -> line
  in
  String.split_on_char ';' line |> List.map String.trim
  |> List.filter (fun s -> s <> "")

let parse_operand line_no reg s =
  (* "q[3]" -> 3, checking the register name. *)
  let s = String.trim s in
  match (String.index_opt s '[', String.index_opt s ']') with
  | Some l, Some r when l < r ->
      let name = String.sub s 0 l in
      if reg <> "" && name <> reg then
        failf line_no "unknown register %S (expected %S)" name reg;
      let idx = String.sub s (l + 1) (r - l - 1) in
      (match int_of_string_opt (String.trim idx) with
      | Some i -> i
      | None -> failf line_no "bad qubit index %S" idx)
  | _ -> failf line_no "bad operand %S" s

let strip_params line_no name_and_params =
  (* "rz(pi/4)" -> "rz"; parameters are irrelevant to layout synthesis. *)
  match String.index_opt name_and_params '(' with
  | None -> String.trim name_and_params
  | Some i ->
      if not (String.contains name_and_params ')') then
        fail line_no "unterminated parameter list";
      String.trim (String.sub name_and_params 0 i)

let of_string text =
  let lines = String.split_on_char '\n' text in
  let n_qubits = ref (-1) in
  let reg = ref "" in
  let gates = ref [] in
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      List.iter
        (fun stmt ->
          let prefix p = String.length stmt >= String.length p
                         && String.sub stmt 0 (String.length p) = p in
          if prefix "OPENQASM" || prefix "include" || prefix "creg"
             || prefix "barrier" || prefix "measure" then ()
          else if prefix "qreg" then begin
            if !n_qubits >= 0 then fail line_no "multiple qreg declarations";
            let rest = String.trim (String.sub stmt 4 (String.length stmt - 4)) in
            match (String.index_opt rest '[', String.index_opt rest ']') with
            | Some l, Some r when l < r ->
                reg := String.trim (String.sub rest 0 l);
                let idx = String.sub rest (l + 1) (r - l - 1) in
                (match int_of_string_opt (String.trim idx) with
                | Some n -> n_qubits := n
                | None -> fail line_no "bad qreg size")
            | _ -> fail line_no "malformed qreg"
          end
          else begin
            (* A gate application: "<name[(params)]> <op>[, <op>]". *)
            match String.index_opt stmt ' ' with
            | None -> failf line_no "unsupported statement %S" stmt
            | Some sp ->
                let head = String.sub stmt 0 sp in
                let name = strip_params line_no head in
                let args = String.sub stmt (sp + 1) (String.length stmt - sp - 1) in
                let ops =
                  String.split_on_char ',' args
                  |> List.map (parse_operand line_no !reg)
                in
                (match ops with
                | [ q ] -> gates := Gate.g1 name q :: !gates
                | [ a; b ] -> gates := Gate.g2 name a b :: !gates
                | _ ->
                    failf line_no "gate %S with %d operands (max 2)" name
                      (List.length ops))
          end)
        (statements_of_line line))
    lines;
  if !n_qubits < 0 then fail 0 "missing qreg declaration";
  Circuit.create ~n_qubits:!n_qubits (List.rev !gates)
