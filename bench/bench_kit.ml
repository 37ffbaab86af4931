(* The shared half of the checked benches: file format, gates, command
   line, clock. See the interface for the format. *)

(* ------------------------------------------------------------------ *)
(* Entries                                                             *)
(* ------------------------------------------------------------------ *)

type value =
  | Int of int
  | Float of int * float
  | String of string
  | Bool of bool

type entry = (string * value) list
type file = { bench : string; mode : string; entries : entry list }

(* How a value's text reads back. The writer refuses what this would
   misread, so a written file always reads back to itself. *)
let value_of_text s =
  let n = String.length s in
  let digits i j =
    i < j
    && String.for_all
         (function '0' .. '9' -> true | _ -> false)
         (String.sub s i (j - i))
  in
  let sign = if n > 0 && Char.equal s.[0] '-' then 1 else 0 in
  match (s, String.index_opt s '.') with
  | "true", _ -> Bool true
  | "false", _ -> Bool false
  | _, None when digits sign n -> (
      match int_of_string_opt s with Some i -> Int i | None -> String s)
  | _, Some p when digits sign p && digits (p + 1) n ->
      Float (n - p - 1, float_of_string s)
  | _ -> String s

let quoted s = "\"" ^ Qls_sealed.escape s ^ "\""

let value_to_json = function
  | Int i -> string_of_int i
  | Float (d, x) when d >= 1 && Float.is_finite x -> Printf.sprintf "%.*f" d x
  | Float _ -> invalid_arg "Bench_kit: a float needs decimals and a value"
  | String s -> (
      match value_of_text s with
      | String _ -> quoted s
      | _ -> invalid_arg ("Bench_kit: string " ^ s ^ " reads back retyped"))
  | Bool b -> string_of_bool b

let entry_to_json e =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> quoted k ^ ":" ^ value_to_json v) e)
  ^ "}"

let to_json f =
  let buf = Buffer.create 4096 in
  Printf.bprintf buf
    "{\n  \"schema\": 1,\n  \"bench\": %s,\n  \"mode\": %s,\n  \"entries\": [\n"
    (quoted f.bench) (quoted f.mode);
  let last = List.length f.entries - 1 in
  List.iteri
    (fun i e ->
      Printf.bprintf buf "    %s%s\n" (entry_to_json e)
        (if i < last then "," else ""))
    f.entries;
  Buffer.add_string buf "  ]\n}\n";
  Buffer.contents buf

let write path f =
  Out_channel.with_open_bin path (fun oc -> output_string oc (to_json f))

let entry_of_json text =
  match Qls_sealed.fields_of_line text with
  | fields -> List.map (fun (k, v) -> (k, value_of_text v)) fields
  | exception Qls_sealed.Malformed why -> failwith why

(* Each line, less its separator comma, is structure, a header member
   or one entry object; anything else is an error naming the line. *)
let read_lines path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let fail no fmt =
    Printf.ksprintf
      (fun s -> failwith (Printf.sprintf "%s:%d: %s" path no s))
      fmt
  in
  let parse no t = try entry_of_json t with Failure why -> fail no "%s" why in
  let header = ref [] and entries = ref [] in
  List.iteri
    (fun i line ->
      let no = i + 1 and t = String.trim line in
      match
        if String.ends_with ~suffix:"," t then
          String.sub t 0 (String.length t - 1)
        else t
      with
      | "" | "{" | "}" | "]" | "\"entries\": [" -> ()
      | t when String.starts_with ~prefix:"{" t ->
          entries := (no, parse no t) :: !entries
      | t when String.starts_with ~prefix:"\"" t ->
          header := parse no ("{" ^ t ^ "}") @ !header
      | _ -> fail no "not a line of a bench file")
    (String.split_on_char '\n' text);
  let head key = List.assoc_opt key !header in
  match (head "schema", head "bench", head "mode") with
  | Some (Int 1), Some (String bench), Some (String mode) ->
      ((bench, mode), List.rev !entries)
  | _ -> failwith (path ^ ": no schema 1 header with a bench and a mode")

let read path =
  let (bench, mode), entries = read_lines path in
  { bench; mode; entries = List.map snd entries }

let load path decode =
  List.map
    (fun (no, e) ->
      try decode e
      with Failure why -> failwith (Printf.sprintf "%s:%d: %s" path no why))
    (snd (read_lines path))

let field kind get e key =
  match Option.bind (List.assoc_opt key e) get with
  | Some v -> v
  | None -> failwith (Printf.sprintf "no %s field %S" kind key)

let int = field "int" (function Int i -> Some i | _ -> None)
let float = field "float" (function Float (_, x) -> Some x | _ -> None)
let string = field "string" (function String s -> Some s | _ -> None)
let bool = field "bool" (function Bool b -> Some b | _ -> None)

(* ------------------------------------------------------------------ *)
(* Gates                                                               *)
(* ------------------------------------------------------------------ *)

type gate = {
  baseline : string;
  mutable found : string list;  (** newest first *)
}

let gate ~baseline = { baseline; found = [] }
let fail g fmt = Printf.ksprintf (fun s -> g.found <- s :: g.found) fmt
let problems g = List.rev g.found

let pair g ~key ~base fresh =
  List.filter_map
    (fun e ->
      let k = key e in
      match List.find_opt (fun b -> String.equal (key b) k) base with
      | Some b -> Some (e, b)
      | None ->
          fail g "%s: no baseline entry in %s (regenerate it with --update)" k
            g.baseline;
          None)
    fresh

let exact g id name ~expected v =
  if v <> expected then fail g "%s: %s is %d, expected %d" id name v expected

let no_rise g id ?(quantum = 0.0) name ~base v =
  if v > base +. quantum then
    fail g "%s: %s rose to %g from the baseline's %g" id name v base

(* Compared in log space, so a geomean of exactly 1 + tolerance passes. *)
let geomean g id name ~tolerance pairs =
  let logs =
    List.filter_map
      (fun (v, base) -> if base > 0.0 then Some (log (v /. base)) else None)
      pairs
  in
  let n = List.length logs in
  let mean = List.fold_left ( +. ) 0.0 logs /. float_of_int (max 1 n) in
  if mean > log (1.0 +. tolerance) then
    fail g
      "%s: %s geomean ratio %.3f over %d entries exceeds the baseline by \
       more than %.0f%%"
      id name (exp mean) n (tolerance *. 100.0)

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

type scale = Quick | Default | Full

let string_of_scale = function
  | Quick -> "quick"
  | Default -> "default"
  | Full -> "full"

type cli = { scale : scale; check : string option; update : bool }

let cli ~bench ~default ?(full = true) ?(extra = []) () =
  let scale = ref None and check = ref None and update = ref false in
  let set s = Arg.Unit (fun () -> scale := Some s) in
  let specs =
    (("--quick", set Quick, " CI scale")
    :: (if full then [ ("--full", set Full, " Largest scale") ] else []))
    @ [
        ( "--check",
          Arg.String (fun f -> check := Some f),
          "FILE Exit 1 on a regression against this baseline" );
        ( "--update",
          Arg.Set update,
          Printf.sprintf " Write BENCH_%s.json (quick unless a scale is given)"
            bench );
      ]
    @ extra
  in
  Arg.parse (Arg.align specs)
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    (Printf.sprintf "%s_bench [options]; a run writes BENCH_%s.fresh.json"
       bench bench);
  let scale =
    match !scale with Some s -> s | None -> if !update then Quick else default
  in
  { scale; check = !check; update = !update }

let finish ~bench cli entries check =
  let path =
    if cli.update then Printf.sprintf "BENCH_%s.json" bench
    else Printf.sprintf "BENCH_%s.fresh.json" bench
  in
  write path { bench; mode = string_of_scale cli.scale; entries };
  Printf.eprintf "%s_bench: wrote %s (%d entries)\n%!" bench path
    (List.length entries);
  Option.iter
    (fun baseline ->
      match check baseline with
      | [] ->
          Printf.eprintf "%s_bench: no regression against %s\n%!" bench
            baseline
      | ps ->
          List.iter (Printf.eprintf "%s_bench: REGRESSION: %s\n%!" bench) ps;
          exit 1)
    cli.check

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

(* lint: nondet-source — the benches' one clock; timing never gates exactly *)
let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let best_of ~runs f =
  let r, first = timed f in
  let best = ref first in
  for _ = 2 to runs do
    let _, t = timed f in
    if t < !best then best := t
  done;
  (r, !best)
