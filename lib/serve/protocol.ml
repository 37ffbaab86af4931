type gen_params = {
  arch : string;
  n_swaps : int;
  gates : int option;
  seed : int;
}

type route_params = {
  gen : gen_params;
  tool : string;
  trials : int;
  qasm : string option;
  deadline_ms : int option;
}

type request =
  | Route of route_params
  | Evaluate of route_params
  | Certify of { gen : gen_params; deadline_ms : int option }
  | Stats
  | Health

exception Bad_request of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let max_frame = 16 * 1024 * 1024

let read_frame ic =
  match input_line ic with
  | exception End_of_file -> None
  | header -> (
      (* Strict decimal only: a stray HTTP request or random bytes on
         the socket become one clean Bad_request, not a huge alloc. *)
      let header =
        (* tolerate a CRLF client *)
        if String.length header > 0 && header.[String.length header - 1] = '\r'
        then String.sub header 0 (String.length header - 1)
        else header
      in
      if header = "" then bad "empty frame header";
      String.iter
        (fun c -> if c < '0' || c > '9' then bad "bad frame length %S" header)
        header;
      match int_of_string_opt header with
      | None -> bad "bad frame length %S" header
      | Some len ->
          if len > max_frame then bad "frame of %d bytes exceeds limit" len;
          let payload = really_input_string ic len in
          (match input_char ic with
          | '\n' -> ()
          | _ -> bad "missing frame terminator"
          | exception End_of_file -> bad "truncated frame");
          Some payload)

let write_frame oc payload =
  (* One buffered write then a flush, mirroring the sealed-log contract:
     the peer never sees a frame split across flush boundaries. *)
  output_string oc (Printf.sprintf "%d\n%s\n" (String.length payload) payload);
  flush oc

(* ------------------------------------------------------------------ *)
(* Timeout-aware framing over a raw fd                                  *)
(* ------------------------------------------------------------------ *)

(* The server cannot use [read_frame]: a buffered [in_channel] blocks
   with no timeout, so one slow-loris client (a byte of header, then
   silence) pins a reader thread forever. This reader owns its buffer
   over [Unix.read]/[Unix.select] and distinguishes the two silences:

   - {e between} frames, silence is just an idle keep-alive connection —
     bounded by [idle_timeout], reported as [Idle] so the server can
     reap quietly;
   - {e inside} a frame, the whole frame must arrive within [io_timeout]
     of its first byte (an absolute budget — trickling one byte per
     second buys a client nothing), otherwise [Bad_request]. *)

type reader = {
  r_fd : Unix.file_descr;
  r_buf : Bytes.t;
  mutable r_pos : int;
  mutable r_len : int;
  r_idle_timeout : float option;
  r_io_timeout : float option;
  r_read_hook : (int -> int) option;
}

type frame = Frame of string | Eof | Idle

let reader ?idle_timeout ?io_timeout ?read_hook fd =
  let check = function
    | Some t when t <= 0.0 -> invalid_arg "Protocol.reader: timeout <= 0"
    | _ -> ()
  in
  check idle_timeout;
  check io_timeout;
  {
    r_fd = fd;
    r_buf = Bytes.create 65536;
    r_pos = 0;
    r_len = 0;
    r_idle_timeout = idle_timeout;
    r_io_timeout = io_timeout;
    r_read_hook = read_hook;
  }

(* [deadline]: [None] between frames, [Some abs] while one is in
   flight. Returns [false] on EOF, [`Idle] only when [deadline = None]. *)
let refill r ~deadline =
  let rec wait () =
    let timeout =
      match deadline with
      | Some d ->
          (* lint: nondet-source — wall clock enforces the frame I/O budget *)
          let remaining = d -. Unix.gettimeofday () in
          if remaining <= 0.0 then bad "frame read timed out mid-frame";
          remaining
      | None -> (
          match r.r_idle_timeout with Some t -> t | None -> -1.0 (* forever *))
    in
    match Unix.select [ r.r_fd ] [] [] timeout with
    | [], _, _ ->
        if Option.is_some deadline then bad "frame read timed out mid-frame"
        else `Idle
    | _ :: _, _, _ -> `Ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  match wait () with
  | `Idle -> `Idle
  | `Ready -> (
      let want = Bytes.length r.r_buf in
      let want =
        match r.r_read_hook with
        | None -> want
        | Some hook -> max 1 (min want (hook want))
      in
      let rec rd () =
        match Unix.read r.r_fd r.r_buf 0 want with
        | n -> n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> rd ()
      in
      match rd () with
      | 0 -> `Eof
      | n ->
          r.r_pos <- 0;
          r.r_len <- n;
          `Data)

let next_byte r ~deadline =
  if r.r_pos < r.r_len then begin
    let c = Bytes.get r.r_buf r.r_pos in
    r.r_pos <- r.r_pos + 1;
    `Byte c
  end
  else
    match refill r ~deadline with
    | `Idle -> `Idle
    | `Eof -> `Eof
    | `Data ->
        let c = Bytes.get r.r_buf r.r_pos in
        r.r_pos <- r.r_pos + 1;
        `Byte c

let read_frame_fd r =
  (* The first header byte is read under the idle policy: silence there
     is a quiet connection, not a stuck frame. *)
  match next_byte r ~deadline:None with
  | `Idle -> Idle
  | `Eof -> Eof
  | `Byte first ->
      let deadline =
        match r.r_io_timeout with
        | None -> None
        | Some t ->
            (* lint: nondet-source — wall clock enforces the frame I/O budget *)
            Some (Unix.gettimeofday () +. t)
      in
      let hdr = Buffer.create 16 in
      let rec header c =
        if c = '\n' then ()
        else begin
          (* [max_frame] has 8 digits; 32 bytes of header is garbage. *)
          if Buffer.length hdr >= 32 then bad "bad frame length %S" (Buffer.contents hdr);
          Buffer.add_char hdr c;
          match next_byte r ~deadline with
          | `Byte c -> header c
          | `Eof -> bad "truncated frame"
          | `Idle -> assert false (* deadline <> idle policy mid-frame *)
        end
      in
      header first;
      let header =
        let raw = Buffer.contents hdr in
        (* tolerate a CRLF client *)
        if String.length raw > 0 && raw.[String.length raw - 1] = '\r' then
          String.sub raw 0 (String.length raw - 1)
        else raw
      in
      if header = "" then bad "empty frame header";
      String.iter
        (fun c -> if c < '0' || c > '9' then bad "bad frame length %S" header)
        header;
      (match int_of_string_opt header with
      | None -> bad "bad frame length %S" header
      | Some len ->
          if len > max_frame then bad "frame of %d bytes exceeds limit" len;
          let payload = Bytes.create len in
          let filled = ref 0 in
          while !filled < len do
            if r.r_pos < r.r_len then begin
              let k = min (r.r_len - r.r_pos) (len - !filled) in
              Bytes.blit r.r_buf r.r_pos payload !filled k;
              r.r_pos <- r.r_pos + k;
              filled := !filled + k
            end
            else
              match refill r ~deadline with
              | `Eof -> bad "truncated frame"
              | `Data -> ()
              | `Idle -> assert false
          done;
          (match next_byte r ~deadline with
          | `Byte '\n' -> ()
          | `Byte _ -> bad "missing frame terminator"
          | `Eof -> bad "truncated frame"
          | `Idle -> assert false);
          Frame (Bytes.to_string payload))

(* ------------------------------------------------------------------ *)
(* Request payloads                                                    *)
(* ------------------------------------------------------------------ *)

let fields_of_payload payload =
  match Qls_sealed.fields_of_line payload with
  | fields -> fields
  | exception Qls_sealed.Malformed m -> bad "malformed request: %s" m

let str_field fields key default =
  Option.value ~default (List.assoc_opt key fields)

let int_field fields key default =
  match List.assoc_opt key fields with
  | None -> default
  | Some raw -> (
      match int_of_string_opt raw with
      | Some n -> n
      | None -> bad "field %S is not an integer: %S" key raw)

let gen_of_fields fields =
  {
    arch = str_field fields "arch" "aspen4";
    n_swaps = int_field fields "swaps" 5;
    gates =
      (match List.assoc_opt "gates" fields with
      | None -> None
      | Some raw -> (
          match int_of_string_opt raw with
          | Some n -> Some n
          | None -> bad "field \"gates\" is not an integer: %S" raw));
    seed = int_field fields "seed" 0;
  }

(* Deadlines bound wall-clock, not work identity: the field is kept out
   of every cache key so a deadlined request that completes in time is
   byte-identical to (and shares cache entries with) the same request
   without one. *)
let deadline_of_fields fields =
  match List.assoc_opt "deadline_ms" fields with
  | None -> None
  | Some raw -> (
      match int_of_string_opt raw with
      | None -> bad "field \"deadline_ms\" is not an integer: %S" raw
      | Some n when n < 1 -> bad "field \"deadline_ms\" must be >= 1: %d" n
      | Some n -> Some n)

let route_of_fields fields =
  {
    gen = gen_of_fields fields;
    tool = str_field fields "tool" "sabre";
    trials = int_field fields "trials" 20;
    qasm = List.assoc_opt "qasm" fields;
    deadline_ms = deadline_of_fields fields;
  }

let request_of_fields fields =
  match List.assoc_opt "verb" fields with
  | None -> bad "request without a \"verb\""
  | Some "route" -> Route (route_of_fields fields)
  | Some "evaluate" ->
      let p = route_of_fields fields in
      if Option.is_some p.qasm then
        bad "evaluate compares against a certified optimum; inline \"qasm\" \
             has none (use \"route\")";
      Evaluate p
  | Some "certify" ->
      Certify
        {
          gen = gen_of_fields fields;
          deadline_ms = deadline_of_fields fields;
        }
  | Some "stats" -> Stats
  | Some "health" -> Health
  | Some verb -> bad "unknown verb %S" verb

let request_of_payload payload =
  match fields_of_payload payload with
  | exception Bad_request m -> (None, Error m)
  | fields ->
      ( List.assoc_opt "id" fields,
        try Ok (request_of_fields fields) with Bad_request m -> Error m )

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)
(* ------------------------------------------------------------------ *)

(* FNV-1a, 64-bit. Content addressing only — collision resistance in
   the cryptographic sense is not required (a collision serves a wrong
   cached answer to a request hand-crafted to collide with another; the
   daemon trusts its clients). *)
let circuit_hash text =
  (* A local ref in a [for] loop stays an unboxed Int64; a closure over
     it would box one per byte. *)
  let h = ref (-3750763034362895579L) (* 0xcbf29ce484222325 *) in
  for i = 0 to String.length text - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code text.[i]))) 1099511628211L
  done;
  Printf.sprintf "%016Lx" !h

(* Length-prefix every component so the key is injective whatever bytes
   the components contain — the property the QCheck suite pins down. *)
let joined parts =
  String.concat "|"
    (List.map (fun s -> Printf.sprintf "%d:%s" (String.length s) s) parts)

let gen_key g =
  joined
    [
      g.arch;
      string_of_int g.n_swaps;
      (match g.gates with None -> "paper" | Some n -> string_of_int n);
      string_of_int g.seed;
    ]

let route_key ~device ~circuit ~tool ~trials ~seed =
  joined [ device; circuit; tool; string_of_int trials; string_of_int seed ]
