(* Structured tracing and metrics for the whole stack, with two sinks:
   an append-only JSONL span log (one flat, sealed line per finished
   span, written and read back through Qls_sealed.Log — the Store
   crash-truncation contract: a kill can only tear the final line, and
   the seal catches it) and a Chrome trace-event export
   (chrome://tracing / Perfetto).

   The library is off by default and the disabled path is deliberately
   allocation-free: [enabled] is one atomic load, [start] returns the
   static [none] span, [stop none] returns immediately. Hot loops (the
   router round loop, SAT propagation) guard their attribute building on
   [enabled ()] so tracing costs nothing when it is not armed. *)

type value = Int of int | Float of float | Str of string

type span =
  | No_span
  | Span of { name : string; site : string; t0 : float; tid : int }

type format = Jsonl | Chrome

type record = {
  r_name : string;
  r_site : string;
  r_tid : int;
  r_start : float;
  r_dur : float;
  r_attrs : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* Global state                                                        *)
(* ------------------------------------------------------------------ *)

type sink =
  | To_jsonl of Qls_sealed.Log.t
  | To_chrome of {
      path : string;
      buf : Buffer.t;  (* accumulated event objects *)
      mutable first : bool;
      mutex : Mutex.t;
    }

let enabled_flag = Atomic.make false
let sink : sink option Atomic.t = Atomic.make None
let epoch = Atomic.make 0.0
let enabled () = Atomic.get enabled_flag
let none = No_span
let tid () = (Domain.self () :> int)

let escape = Qls_sealed.escape

let value_json = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6f" f
  | Str s -> Printf.sprintf "\"%s\"" (escape s)

(* The JSONL line is flat, so Qls_sealed's one flat-object parser reads
   it back: each attribute is a member of its own, its key prefixed. *)
let attr_prefix = "attr."

let member ~prefix (k, v) =
  Printf.sprintf "\"%s%s\":%s" prefix (escape k) (value_json v)

(* ------------------------------------------------------------------ *)
(* Span lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let start ?(site = "app") name =
  if not (enabled ()) then No_span
    (* lint: nondet-source — span timestamps are observability data *)
  else Span { name; site; t0 = Unix.gettimeofday (); tid = tid () }

let emit ~name ~site ~t0 ~tid ~dur attrs =
  match Atomic.get sink with
  | None -> ()
  | Some s -> (
      let rel = t0 -. Atomic.get epoch in
      match s with
      | To_jsonl log ->
          Qls_sealed.Log.append log ~key:name
            (Printf.sprintf
               {|{"name":"%s","site":"%s","tid":%d,"start":%.6f,"dur":%.6f%s}|}
               (escape name) (escape site) tid rel dur
               (String.concat ""
                  (List.map (fun a -> "," ^ member ~prefix:attr_prefix a) attrs)))
      | To_chrome c ->
          let ev =
            Printf.sprintf
              {|{"name":"%s","cat":"%s","ph":"X","ts":%.1f,"dur":%.1f,"pid":1,"tid":%d%s}|}
              (escape name) (escape site) (rel *. 1e6)
              (Float.max 0.1 (dur *. 1e6))
              tid
              (match attrs with
              | [] -> ""
              | attrs ->
                  Printf.sprintf {|,"args":{%s}|}
                    (String.concat "," (List.map (member ~prefix:"") attrs)))
          in
          Mutex.protect c.mutex (fun () ->
              if c.first then c.first <- false else Buffer.add_string c.buf ",\n";
              Buffer.add_string c.buf ev))

let stop ?(attrs = []) = function
  | No_span -> ()
  | Span { name; site; t0; tid } ->
      (* lint: nondet-source — span durations are observability data *)
      let dur = Unix.gettimeofday () -. t0 in
      emit ~name ~site ~t0 ~tid ~dur attrs

let with_span ?site ?attrs name f =
  if not (enabled ()) then f ()
  else
    let sp = start ?site name in
    Fun.protect
      ~finally:(fun () ->
        let attrs = match attrs with None -> [] | Some g -> g () in
        stop ~attrs sp)
      f

(* ------------------------------------------------------------------ *)
(* Counters and histograms                                             *)
(* ------------------------------------------------------------------ *)

type counter = { c_name : string; c_cell : int Atomic.t }

let registry_mutex = Mutex.create ()
let counter_registry : (string, counter) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt counter_registry name with
      | Some c -> c
      | None ->
          let c = { c_name = name; c_cell = Atomic.make 0 } in
          Hashtbl.add counter_registry name c;
          c)

let incr c = Atomic.incr c.c_cell
let add c n = ignore (Atomic.fetch_and_add c.c_cell n)
let counter_value c = Atomic.get c.c_cell

let counters () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold (fun name c acc -> (name, Atomic.get c.c_cell) :: acc)
        counter_registry [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

type histogram = {
  h_name : string;
  h_bounds : float array;  (* ascending upper bounds; last bucket is +inf *)
  h_counts : int Atomic.t array;  (* length = Array.length h_bounds + 1 *)
}

let default_bounds =
  [| 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 60.0 |]

let histogram_registry : (string, histogram) Hashtbl.t = Hashtbl.create 8

let histogram ?(bounds = default_bounds) name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt histogram_registry name with
      | Some h -> h
      | None ->
          let bounds = Array.copy bounds in
          Array.sort Float.compare bounds;
          let h =
            {
              h_name = name;
              h_bounds = bounds;
              h_counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            }
          in
          Hashtbl.add histogram_registry name h;
          h)

let observe h x =
  (* NaN would satisfy no bound and silently land in the overflow
     bucket; fail loudly instead, as Metrics does (PR-3 rule). *)
  if Float.is_nan x then invalid_arg (Printf.sprintf "Qls_obs.observe %s: NaN" h.h_name);
  let n = Array.length h.h_bounds in
  let rec bucket i = if i >= n || x <= h.h_bounds.(i) then i else bucket (i + 1) in
  Atomic.incr h.h_counts.(bucket 0)

let histogram_counts h =
  (Array.copy h.h_bounds, Array.map Atomic.get h.h_counts)

let histogram_total h =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.h_counts

(* Upper-bound estimate of quantile [q] from the bucket counts: the
   smallest bucket bound at which the cumulative count reaches q. *)
let approx_quantile h q =
  let total = histogram_total h in
  if total = 0 then None
  else begin
    let target = Float.of_int total *. q in
    let cum = ref 0 and found = ref None in
    Array.iteri
      (fun i c ->
        if Option.is_none !found then begin
          cum := !cum + Atomic.get c;
          if Float.of_int !cum >= target then
            found :=
              Some
                (if i < Array.length h.h_bounds then h.h_bounds.(i)
                 else h.h_bounds.(Array.length h.h_bounds - 1))
        end)
      h.h_counts;
    !found
  end

let reset_metrics () =
  Mutex.protect registry_mutex (fun () ->
      (* lint: nondet-source — zeroing every cell commutes *)
      Hashtbl.iter (fun _ c -> Atomic.set c.c_cell 0) counter_registry;
      (* lint: nondet-source — zeroing every cell commutes *)
      Hashtbl.iter
        (fun _ h -> Array.iter (fun c -> Atomic.set c 0) h.h_counts)
        histogram_registry)

(* ------------------------------------------------------------------ *)
(* Sink control                                                        *)
(* ------------------------------------------------------------------ *)

let infer_format path = if Filename.check_suffix path ".jsonl" then Jsonl else Chrome

let tracing_to ?format path =
  let s =
    match Option.value format ~default:(infer_format path) with
    | Jsonl -> To_jsonl (Qls_sealed.Log.open_append path)
    | Chrome ->
        To_chrome
          { path; buf = Buffer.create 4096; first = true; mutex = Mutex.create () }
  in
  (* lint: nondet-source — trace epoch is observability data *)
  Atomic.set epoch (Unix.gettimeofday ());
  Atomic.set sink (Some s);
  Atomic.set enabled_flag true

let shutdown () =
  Atomic.set enabled_flag false;
  match Atomic.exchange sink None with
  | None -> ()
  | Some (To_jsonl log) -> Qls_sealed.Log.close log
  | Some (To_chrome c) ->
      Mutex.protect c.mutex (fun () ->
          let oc = open_out c.path in
          output_string oc "{\"traceEvents\":[\n";
          Buffer.output_buffer oc c.buf;
          output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
          close_out oc)

(* ------------------------------------------------------------------ *)
(* JSONL reader (post-processing and tests)                            *)
(* ------------------------------------------------------------------ *)

let record_of_payload payload =
  match Qls_sealed.fields_of_line payload with
  | exception Qls_sealed.Malformed m -> Error m
  | fields -> (
      let get k = List.assoc_opt k fields in
      match
        ( get "name",
          get "site",
          Option.bind (get "tid") int_of_string_opt,
          Option.bind (get "start") float_of_string_opt,
          Option.bind (get "dur") float_of_string_opt )
      with
      | Some r_name, Some r_site, Some r_tid, Some r_start, Some r_dur ->
          let n = String.length attr_prefix in
          let r_attrs =
            List.filter_map
              (fun (k, v) ->
                if String.starts_with ~prefix:attr_prefix k then
                  Some (String.sub k n (String.length k - n), v)
                else None)
              fields
          in
          Ok { r_name; r_site; r_tid; r_start; r_dur; r_attrs }
      | _ -> Error "not a span")

let load_jsonl path =
  let records, bad = Qls_sealed.Log.load ~parse:record_of_payload path in
  (records, List.length bad)
