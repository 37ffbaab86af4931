type entry = { task_id : string; status : Task.status }
type corrupt = Qls_sealed.corrupt = { line_no : int; reason : string; text : string }
type compact_stats = { kept : int; superseded : int; quarantined : int }

type t = { log : Qls_sealed.Log.t }

let site_append = "store.append"
let site_load = "store.load"

(* The CRC framing, the flat-JSON codec and the line loops all live in
   Qls_sealed — this module keeps only the entry codec and the store
   policy (v1/v2/v3 compatibility, quarantine, compaction). *)
let escape = Qls_sealed.escape

exception Malformed = Qls_sealed.Malformed

let malformed fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt
let fields_of_line = Qls_sealed.fields_of_line

(* ------------------------------------------------------------------ *)
(* Entry codec (format v2: status ok | degraded | failed, crc-sealed)  *)
(* ------------------------------------------------------------------ *)

let error_fields (e : Herror.t) =
  Printf.sprintf {|"eclass":"%s","esite":"%s","error":"%s","attempts":%d|}
    (Herror.klass_name e.Herror.klass)
    (escape e.Herror.site) (escape e.Herror.message) e.Herror.attempts

(* Ok lines carry the runner's attempt count under ["attempts"]; on a
   degraded line that key already belongs to the original error (via
   [error_fields]), so the fallback outcome's count is ["fb_attempts"]
   to keep the flat object collision-free. v2 lines predate both keys
   and load with the count defaulted to 1. *)
let payload_of_entry e =
  match e.status with
  | Task.Done o ->
      Printf.sprintf
        {|{"id":"%s","status":"ok","swaps":%d,"seconds":%.6f,"attempts":%d}|}
        (escape e.task_id) o.Task.swaps o.Task.seconds o.Task.attempts
  | Task.Degraded d ->
      Printf.sprintf
        {|{"id":"%s","status":"degraded","via":"%s","swaps":%d,"seconds":%.6f,"fb_attempts":%d,%s}|}
        (escape e.task_id) (escape d.Task.via) d.Task.outcome.Task.swaps
        d.Task.outcome.Task.seconds d.Task.outcome.Task.attempts
        (error_fields d.Task.error)
  | Task.Failed err ->
      Printf.sprintf {|{"id":"%s","status":"failed",%s}|} (escape e.task_id)
        (error_fields err)

let error_of_fields fields =
  let klass =
    match List.assoc_opt "eclass" fields with
    | Some name -> (
        match Herror.klass_of_name name with
        | Some k -> k
        | None -> malformed "unknown error class %S" name)
    | None -> Herror.Permanent (* v1 line: untyped error string *)
  in
  {
    Herror.klass;
    site = Option.value ~default:"legacy" (List.assoc_opt "esite" fields);
    message = Option.value ~default:"" (List.assoc_opt "error" fields);
    attempts =
      (match List.assoc_opt "attempts" fields with
      | Some raw -> (
          match int_of_string_opt raw with
          | Some n -> n
          | None -> malformed "bad attempts %S" raw)
      | None -> 1);
  }

let outcome_of_fields ~attempts_key fields =
  match (List.assoc_opt "swaps" fields, List.assoc_opt "seconds" fields) with
  | Some swaps, Some seconds -> (
      match (int_of_string_opt swaps, float_of_string_opt seconds) with
      | Some swaps, Some seconds ->
          let attempts =
            match List.assoc_opt attempts_key fields with
            | None -> 1 (* v2 line: the count was not yet recorded *)
            | Some raw -> (
                match int_of_string_opt raw with
                | Some n -> n
                | None -> malformed "bad %s %S" attempts_key raw)
          in
          { Task.swaps; seconds; attempts }
      | _ -> malformed "bad outcome numbers")
  | _ -> malformed "missing outcome fields"

let entry_of_fields fields =
  match (List.assoc_opt "id" fields, List.assoc_opt "status" fields) with
  | Some task_id, Some "ok" ->
      let o = outcome_of_fields ~attempts_key:"attempts" fields in
      { task_id; status = Task.Done o }
  | Some task_id, Some "degraded" -> (
      (* The error is decoded before the outcome: a line bad in both
         reports the error's reason. *)
      let error = error_of_fields fields in
      let outcome = outcome_of_fields ~attempts_key:"fb_attempts" fields in
      match List.assoc_opt "via" fields with
      | Some via -> { task_id; status = Task.Degraded { outcome; via; error } }
      | None -> malformed "degraded line without via")
  | Some task_id, Some "failed" ->
      { task_id; status = Task.Failed (error_of_fields fields) }
  | Some _, Some status -> malformed "unknown status %S" status
  | _ -> malformed "missing id/status"

let entry_of_payload payload =
  match entry_of_fields (fields_of_line payload) with
  | e -> Ok e
  | exception Malformed m -> Error m

(* ------------------------------------------------------------------ *)
(* Store operations                                                    *)
(* ------------------------------------------------------------------ *)

let load_verified path =
  (* Not strict: v1 lines, written before the seal, still load. *)
  Qls_sealed.Log.load ~strict:false
    ~mangle:(fun ~line_no raw ->
      Qls_faults.mangle ~site:site_load ~key:(string_of_int line_no) raw)
    ~parse:entry_of_payload path

let load path = fst (load_verified path)

let completed entries =
  let tbl = Hashtbl.create (List.length entries) in
  List.iter (fun e -> Hashtbl.replace tbl e.task_id e.status) entries;
  tbl

let open_append ?(fsync = false) path =
  (* The write-side contract (one flushed line per append under a mutex;
     the fault hook sees the sealed bytes, newline included, so an
     injected torn write really does splice into the next line) is
     enforced by the shared sealed log. *)
  {
    log =
      Qls_sealed.Log.open_append ~fsync
        ~mangle:(fun ~key s -> Qls_faults.mangle ~site:site_append ~key s)
        path;
  }

let append t entry =
  Qls_sealed.Log.append t.log ~key:entry.task_id (payload_of_entry entry)

let compact ?(fsync = false) path =
  let entries, bad = load_verified path in
  (* Quarantine damaged lines before they are dropped from the rewrite:
     the bytes survive for forensics, the store stops re-reading them. *)
  Qls_sealed.quarantine_append ~path:(path ^ ".quarantine") bad;
  let last = completed entries in
  (* Keep the winning status per task, in first-appearance order. *)
  let seen = Hashtbl.create (List.length entries) in
  let survivors =
    List.filter_map
      (fun e ->
        if Hashtbl.mem seen e.task_id then None
        else begin
          Hashtbl.add seen e.task_id ();
          Some { e with status = Hashtbl.find last e.task_id }
        end)
      entries
  in
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  List.iter
    (fun e -> output_string oc (Qls_sealed.seal (payload_of_entry e) ^ "\n"))
    survivors;
  flush oc;
  if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc;
  (* Atomic publish: readers see either the old file or the compacted
     one, never a half-written rewrite. *)
  Sys.rename tmp path;
  {
    kept = List.length survivors;
    superseded = List.length entries - List.length survivors;
    quarantined = List.length bad;
  }

let close t = Qls_sealed.Log.close t.log
