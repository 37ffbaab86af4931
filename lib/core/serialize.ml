module Circuit = Qls_circuit.Circuit
module Qasm = Qls_circuit.Qasm
module Device = Qls_arch.Device
module Topologies = Qls_arch.Topologies
module Mapping = Qls_layout.Mapping
module Transpiled = Qls_layout.Transpiled

let version = 2

let ints xs = String.concat " " (List.map string_of_int xs)

let ops_line ops =
  let token = function
    | Transpiled.Gate i -> Printf.sprintf "G%d" i
    | Transpiled.Swap (p, p') -> Printf.sprintf "S%d:%d" p p'
  in
  "ops " ^ String.concat " " (List.map token ops)

let to_string bench =
  let device = bench.Benchmark.device in
  (match Topologies.by_name (Device.name device) with
  | Some d
    when Device.n_qubits d = Device.n_qubits device
         && Device.edges d = Device.edges device ->
      ()
  | Some _ | None ->
      invalid_arg
        (Printf.sprintf
           "Serialize: device %S is not resolvable through the registry"
           (Device.name device)));
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "QUBIKOS %d" version;
  line "device %s" (Device.name device);
  line "seed %d" bench.Benchmark.seed;
  line "optimal_swaps %d" bench.Benchmark.optimal_swaps;
  line "initial %s"
    (ints (Array.to_list (Mapping.to_array bench.Benchmark.initial_mapping)));
  line "%s" (ops_line (Transpiled.ops bench.Benchmark.designed));
  List.iter
    (fun s ->
      line "section %d special %d" s.Benchmark.index
        s.Benchmark.special_circuit_index;
      line "backbone %s" (ints s.Benchmark.backbone_circuit_indices))
    bench.Benchmark.sections;
  line "BEGIN QASM";
  Buffer.add_string buf (Qasm.to_string bench.Benchmark.circuit);
  line "END QASM";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let fail ln msg = failwith (Printf.sprintf "Serialize: line %d: %s" ln msg)

let parse_int ln s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail ln (Printf.sprintf "expected an integer, got %S" s)

let parse_ints ln parts = List.map (parse_int ln) parts

let parse_pair ln s =
  match String.split_on_char ':' s with
  | [ a; b ] -> (parse_int ln a, parse_int ln b)
  | _ -> fail ln (Printf.sprintf "expected u:v, got %S" s)

let of_string text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n_lines = Array.length lines in
  let pos = ref 0 in
  let peek () = if !pos < n_lines then Some lines.(!pos) else None in
  let next () =
    match peek () with
    | Some l ->
        incr pos;
        (l, !pos)
    | None -> failwith "Serialize: unexpected end of input"
  in
  let expect_fields key =
    let l, ln = next () in
    match String.split_on_char ' ' (String.trim l) with
    | k :: rest when k = key -> (rest, ln)
    | _ -> fail ln (Printf.sprintf "expected a %S record, got %S" key l)
  in
  (* header *)
  let v, ln = expect_fields "QUBIKOS" in
  (match v with
  | [ n ] when parse_int ln n = version -> ()
  | _ ->
      fail ln
        (Printf.sprintf
           "format version %s is not supported (this build reads version \
            %d); regenerate the instance with `qubikos generate --save`"
           (String.concat " " v) version));
  let dev_fields, ln = expect_fields "device" in
  let device =
    match dev_fields with
    | [ name ] -> (
        match Topologies.by_name name with
        | Some d -> d
        | None -> fail ln (Printf.sprintf "unknown device %S" name))
    | _ -> fail ln "malformed device record"
  in
  let seed =
    let fields, ln = expect_fields "seed" in
    match fields with [ s ] -> parse_int ln s | _ -> fail ln "malformed seed"
  in
  let optimal_swaps =
    let fields, ln = expect_fields "optimal_swaps" in
    match fields with [ s ] -> parse_int ln s | _ -> fail ln "malformed optimal_swaps"
  in
  let positions, initial_ln =
    let fields, ln = expect_fields "initial" in
    (Array.of_list (parse_ints ln fields), ln)
  in
  let ops, ops_ln =
    let fields, ln = expect_fields "ops" in
    let op tok =
      if String.length tok < 2 then fail ln (Printf.sprintf "bad op %S" tok)
      else if tok.[0] = 'G' then
        Transpiled.Gate (parse_int ln (String.sub tok 1 (String.length tok - 1)))
      else if tok.[0] = 'S' then begin
        let p, p' = parse_pair ln (String.sub tok 1 (String.length tok - 1)) in
        Transpiled.Swap (p, p')
      end
      else fail ln (Printf.sprintf "bad op %S" tok)
    in
    (List.map op fields, ln)
  in
  (* sections until BEGIN QASM *)
  let sections = ref [] in
  let rec read_sections () =
    match peek () with
    | Some l when String.trim l = "BEGIN QASM" ->
        ignore (next ())
    | Some _ ->
        let fields, ln = expect_fields "section" in
        let index, special =
          match fields with
          | [ i; "special"; ci ] -> (parse_int ln i, parse_int ln ci)
          | _ -> fail ln "malformed section record"
        in
        let backbone, ln = expect_fields "backbone" in
        sections :=
          {
            Benchmark.index;
            special_circuit_index = special;
            backbone_circuit_indices = parse_ints ln backbone;
          }
          :: !sections;
        read_sections ()
    | None -> failwith "Serialize: missing QASM block"
  in
  read_sections ();
  let qasm_start = !pos in
  (* QASM until END QASM *)
  let qasm = Buffer.create 1024 in
  let rec read_qasm () =
    let l, _ = next () in
    if String.trim l = "END QASM" then ()
    else begin
      Buffer.add_string qasm (l ^ "\n");
      read_qasm ()
    end
  in
  read_qasm ();
  let circuit =
    match Qasm.of_string_result (Buffer.contents qasm) with
    | Ok c -> c
    | Error e -> fail (qasm_start + e.Qasm.line) e.Qasm.message
  in
  (* The initial mapping and the ops index into the circuit and the
     device, so they are checked once both are known. *)
  let n_physical = Device.n_qubits device in
  let initial =
    match Mapping.of_array ~n_physical positions with
    | m when Mapping.n_program m = Circuit.n_qubits circuit -> m
    | _ -> fail initial_ln "expected one position per program qubit"
    | exception Invalid_argument msg -> fail initial_ln msg
  in
  let n_gates = Circuit.length circuit in
  let off_device p = p < 0 || p >= n_physical in
  List.iter
    (function
      | Transpiled.Gate i when i < 0 || i >= n_gates ->
          fail ops_ln (Printf.sprintf "G%d names no gate of the circuit" i)
      | Transpiled.Swap (p, p') when p = p' || off_device p || off_device p' ->
          fail ops_ln
            (Printf.sprintf "S%d:%d must swap two distinct device qubits" p p')
      | Transpiled.Gate _ | Transpiled.Swap _ -> ())
    ops;
  let designed = Transpiled.create ~source:circuit ~device ~initial ops in
  {
    Benchmark.device;
    circuit;
    optimal_swaps;
    initial_mapping = initial;
    designed;
    sections = List.rev !sections;
    seed;
  }

let save path bench =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string bench))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))
