type severity = Error | Warning

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
}

let v ~file ~line ~col ~rule ~severity message =
  { file; line; col; rule; severity; message }

let of_location ~file ~rule ~severity (loc : Location.t) message =
  let p = loc.Location.loc_start in
  {
    file;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    rule;
    severity;
    message;
  }

let order a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let severity_name = function Error -> "error" | Warning -> "warning"

let to_human t =
  Printf.sprintf "%s:%d:%d: %s [%s] %s" t.file t.line t.col
    (severity_name t.severity) t.rule t.message

(* Minimal JSON string escaping for the SARIF sink: the messages are
   ASCII prose assembled by the rules themselves, so only quotes,
   backslashes and control characters need care. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b
