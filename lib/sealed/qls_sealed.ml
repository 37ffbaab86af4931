(* The one implementation of the CRC-sealed JSONL framing and of the
   line loops that write and read it (see the mli). The harness store,
   the obs trace sink and the serve daemon's request log each keep only
   a payload codec: [Log.append] writes their lines, [Log.load] reads
   them back and quarantines the damaged ones. *)

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, the zlib polynomial) over the unsealed payload.  *)
(* ------------------------------------------------------------------ *)

(* Built at module initialisation, not lazily: forcing a lazy value on
   two domains at once raises [CamlinternalLazy.Undefined] on one, which
   two serve workers sealing their first request-log lines can do. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let crc32 s =
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      c :=
        Int32.logxor
          (Int32.shift_right_logical !c 8)
          crc_table.(Int32.to_int
                       (Int32.logand
                          (Int32.logxor !c (Int32.of_int (Char.code ch)))
                          0xffl)))
    s;
  Printf.sprintf "%08lx" (Int32.logxor !c 0xFFFFFFFFl)

(* Seal a JSON object line by splicing a ["crc"] member (over the bytes
   of the {e unsealed} object) in front of the closing brace; [unseal]
   reverses it. Byte-level on purpose: the checksum must cover the exact
   serialisation, not a re-encoding. *)
let crc_marker = {|,"crc":"|}

let seal payload =
  Printf.sprintf "%s%s%s\"}"
    (String.sub payload 0 (String.length payload - 1))
    crc_marker (crc32 payload)

type unsealed = No_crc | Crc_ok | Crc_mismatch

let unseal line =
  let n = String.length line and m = String.length crc_marker in
  (* The crc member is always the one spliced last: 8 hex digits and a
     closing quote+brace at the very end of the line. *)
  let tail_len = m + 8 + 2 in
  if
    n >= tail_len
    && String.sub line (n - tail_len) m = crc_marker
    && line.[n - 2] = '"'
    && line.[n - 1] = '}'
  then
    let declared = String.sub line (n - 10) 8 in
    let payload = String.sub line 0 (n - tail_len) ^ "}" in
    if String.equal (crc32 payload) declared then (payload, Crc_ok)
    else (payload, Crc_mismatch)
  else (line, No_crc)

let unseal_ok line =
  match unseal line with payload, Crc_ok -> Some payload | _ -> None

(* ------------------------------------------------------------------ *)
(* Flat JSON: the escape and the object codec every sealed sink uses.  *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

exception Malformed of string

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

(* Parse one flat JSON object into an association list; string values are
   unescaped, numbers returned as raw text. Raises [Malformed] on
   anything else — loaders quarantine such lines. *)
let fields_of_line line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then Some line.[!pos] else None in
  let skip_ws () =
    while !pos < n && (line.[!pos] = ' ' || line.[!pos] = '\t') do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some d when Char.equal d c -> incr pos
    | Some _ | None -> malformed "expected %C at byte %d" c !pos
  in
  let hex_digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> malformed "bad hex digit %C in \\u escape" c
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then malformed "unterminated string";
      match line.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          if !pos + 1 >= n then malformed "dangling backslash";
          (match line.[!pos + 1] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              (* Strict: exactly four hex digits, no signs/underscores,
                 no surrogate halves; the code point is emitted as
                 UTF-8, not truncated to its low byte. *)
              if !pos + 5 >= n then malformed "truncated \\u escape";
              let code =
                (hex_digit line.[!pos + 2] lsl 12)
                lor (hex_digit line.[!pos + 3] lsl 8)
                lor (hex_digit line.[!pos + 4] lsl 4)
                lor hex_digit line.[!pos + 5]
              in
              if code >= 0xD800 && code <= 0xDFFF then
                malformed "surrogate code point \\u%04x" code;
              Buffer.add_utf_8_uchar b (Uchar.of_int code);
              pos := !pos + 4
          | c -> malformed "unknown escape \\%C" c);
          pos := !pos + 2;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && (match line.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then malformed "expected a value at byte %d" !pos;
    String.sub line start (!pos - start)
  in
  let parse_literal () =
    (* true / false / null — returned as raw text like numbers *)
    let try_word w =
      let len = String.length w in
      if !pos + len <= n && String.equal (String.sub line !pos len) w then begin
        pos := !pos + len;
        Some w
      end
      else None
    in
    match List.find_map try_word [ "true"; "false"; "null" ] with
    | Some w -> w
    | None -> malformed "expected a value at byte %d" !pos
  in
  expect '{';
  let rec members acc =
    skip_ws ();
    match peek () with
    | Some '}' ->
        incr pos;
        skip_ws ();
        if !pos <> n then malformed "trailing bytes after object";
        List.rev acc
    | _ ->
        let key = parse_string () in
        expect ':';
        skip_ws ();
        let value =
          match peek () with
          | Some '"' -> parse_string ()
          | Some ('t' | 'f' | 'n') -> parse_literal ()
          | Some _ -> parse_number ()
          | None -> malformed "truncated object"
        in
        skip_ws ();
        (match peek () with Some ',' -> incr pos | Some _ | None -> ());
        members ((key, value) :: acc)
  in
  members []

(* ------------------------------------------------------------------ *)
(* Quarantine                                                          *)
(* ------------------------------------------------------------------ *)

type corrupt = { line_no : int; reason : string; text : string }

let quarantine_append ~path bad =
  if not (List.is_empty bad) then begin
    let qc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
    in
    List.iter
      (fun c ->
        Printf.fprintf qc "# line %d: %s\n%s\n" c.line_no c.reason c.text)
      bad;
    close_out qc
  end

(* ------------------------------------------------------------------ *)
(* Sealed log                                                          *)
(* ------------------------------------------------------------------ *)

module Log = struct
  type t = {
    oc : out_channel;
    fsync : bool;
    mangle : key:string -> string -> string;
    mutex : Mutex.t;
  }

  let open_append ?(fsync = false) ?(mangle = fun ~key:_ s -> s) path =
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
    in
    { oc; fsync; mangle; mutex = Mutex.create () }

  let append t ~key payload =
    (* One buffered write of the whole line then a flush, under the
       mutex: concurrent writers never interleave within a line, and a
       kill can only ever truncate the final line (which loading
       quarantines). The mangle hook sees the sealed bytes, newline
       included, so an injected torn write really does splice into the
       next line. *)
    let line = seal payload ^ "\n" in
    Mutex.protect t.mutex (fun () ->
        output_string t.oc (t.mangle ~key line);
        flush t.oc;
        if t.fsync then Unix.fsync (Unix.descr_of_out_channel t.oc))

  let close t = Mutex.protect t.mutex (fun () -> close_out t.oc)

  (* The one read loop over a sealed file: the seal verdict, the line
     numbers, the raw bytes of a quarantined line and the load-side
     fault hook live here; the caller's [parse] sees payloads only. *)
  let load ?(strict = true) ?(mangle = fun ~line_no:_ s -> s) ~parse path =
    if not (Sys.file_exists path) then ([], [])
    else
      In_channel.with_open_text path (fun ic ->
          let rec go line_no values bad =
            match In_channel.input_line ic with
            | None -> (List.rev values, List.rev bad)
            | Some raw -> (
                let raw = mangle ~line_no raw in
                let reject reason =
                  go (line_no + 1) values ({ line_no; reason; text = raw } :: bad)
                in
                if String.trim raw = "" then go (line_no + 1) values bad
                else
                  match unseal raw with
                  | _, Crc_mismatch -> reject "crc mismatch"
                  | _, No_crc when strict -> reject "missing seal"
                  | payload, (Crc_ok | No_crc) -> (
                      match parse payload with
                      | Ok v -> go (line_no + 1) (v :: values) bad
                      | Error reason -> reject reason))
          in
          go 1 [] [])
end
