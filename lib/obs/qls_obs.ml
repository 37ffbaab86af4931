(* Structured tracing and metrics for the whole stack, with two sinks:
   an append-only JSONL span log (one sealed, flushed line per finished
   span — the Store crash-truncation contract: a kill can only tear the
   final line, and the seal catches it) and a Chrome trace-event export
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

type sink = {
  s_format : format;
  s_path : string;
  s_oc : out_channel option;  (* Jsonl: the open append handle *)
  s_buf : Buffer.t;  (* Chrome: accumulated event objects *)
  mutable s_first : bool;
  s_mutex : Mutex.t;
}

let enabled_flag = Atomic.make false
let sink : sink option Atomic.t = Atomic.make None
let epoch = Atomic.make 0.0
let enabled () = Atomic.get enabled_flag
let none = No_span
let tid () = (Domain.self () :> int)

(* ------------------------------------------------------------------ *)
(* CRC seal and JSON helpers: the framing is the shared Qls_sealed     *)
(* implementation (same polynomial and splice as the result store), so *)
(* a trace reader can apply the identical torn-line quarantine.        *)
(* ------------------------------------------------------------------ *)

let seal = Qls_sealed.seal
let unseal = Qls_sealed.unseal_ok
let escape = Qls_sealed.escape

let value_json = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6f" f
  | Str s -> Printf.sprintf "\"%s\"" (escape s)

let attrs_json attrs =
  String.concat ","
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (escape k) (value_json v)) attrs)

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
      match s.s_format with
      | Jsonl ->
          let line =
            seal
              (Printf.sprintf
                 {|{"name":"%s","site":"%s","tid":%d,"start":%.6f,"dur":%.6f%s}|}
                 (escape name) (escape site) tid rel dur
                 (match attrs with
                 | [] -> ""
                 | attrs -> Printf.sprintf {|,"attrs":{%s}|} (attrs_json attrs)))
          in
          Mutex.protect s.s_mutex (fun () ->
              match s.s_oc with
              | Some oc ->
                  (* Whole line in one buffered write, then flush: lines
                     from concurrent domains never interleave and a kill
                     can only truncate the final line. *)
                  output_string oc (line ^ "\n");
                  flush oc
              | None -> ())
      | Chrome ->
          let ev =
            Printf.sprintf
              {|{"name":"%s","cat":"%s","ph":"X","ts":%.1f,"dur":%.1f,"pid":1,"tid":%d%s}|}
              (escape name) (escape site) (rel *. 1e6)
              (Float.max 0.1 (dur *. 1e6))
              tid
              (match attrs with
              | [] -> ""
              | attrs -> Printf.sprintf {|,"args":{%s}|} (attrs_json attrs))
          in
          Mutex.protect s.s_mutex (fun () ->
              if s.s_first then s.s_first <- false else Buffer.add_string s.s_buf ",\n";
              Buffer.add_string s.s_buf ev))

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
  let s_format = match format with Some f -> f | None -> infer_format path in
  let s_oc =
    match s_format with
    | Jsonl ->
        Some (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path)
    | Chrome -> None
  in
  let s =
    {
      s_format;
      s_path = path;
      s_oc;
      s_buf = Buffer.create 4096;
      s_first = true;
      s_mutex = Mutex.create ();
    }
  in
  (* lint: nondet-source — trace epoch is observability data *)
  Atomic.set epoch (Unix.gettimeofday ());
  Atomic.set sink (Some s);
  Atomic.set enabled_flag true

let shutdown () =
  Atomic.set enabled_flag false;
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      Atomic.set sink None;
      Mutex.protect s.s_mutex (fun () ->
          match s.s_format with
          | Jsonl -> Option.iter close_out s.s_oc
          | Chrome ->
              let oc = open_out s.s_path in
              output_string oc "{\"traceEvents\":[\n";
              Buffer.output_buffer oc s.s_buf;
              output_string oc "\n],\"displayTimeUnit\":\"ms\"}\n";
              close_out oc)

(* ------------------------------------------------------------------ *)
(* JSONL reader (post-processing and tests)                            *)
(* ------------------------------------------------------------------ *)

(* Extract the value of ["key"] from a flat object we serialised
   ourselves; span names/sites never contain quotes, so a plain substring
   scan is exact for our own output. *)
let field payload key =
  let pat = Printf.sprintf "\"%s\":" key in
  let n = String.length payload and m = String.length pat in
  let rec scan i =
    if i + m > n then None
    else if String.sub payload i m = pat then Some (i + m)
    else scan (i + 1)
  in
  match scan 0 with
  | None -> None
  | Some start ->
      let stop = ref start and depth = ref 0 and in_str = ref false in
      while
        !stop < n
        && (!depth > 0 || !in_str
           || (payload.[!stop] <> ',' && payload.[!stop] <> '}'))
      do
        (match payload.[!stop] with
        | '"' -> in_str := not !in_str
        | '{' when not !in_str -> Stdlib.incr depth
        | '}' when not !in_str -> Stdlib.decr depth
        | _ -> ());
        Stdlib.incr stop
      done;
      Some (String.sub payload start (!stop - start))

let strip_quotes s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2) else s

let record_of_line line =
  match unseal line with
  | None -> None
  | Some payload -> (
      match
        ( field payload "name",
          field payload "site",
          field payload "tid",
          field payload "start",
          field payload "dur" )
      with
      | Some name, Some site, Some tid, Some start, Some dur -> (
          match
            (int_of_string_opt tid, float_of_string_opt start, float_of_string_opt dur)
          with
          | Some r_tid, Some r_start, Some r_dur ->
              let r_attrs =
                match field payload "attrs" with
                | None -> []
                | Some obj ->
                    let inner =
                      let n = String.length obj in
                      if n >= 2 && obj.[0] = '{' && obj.[n - 1] = '}' then
                        String.sub obj 1 (n - 2)
                      else obj
                    in
                    String.split_on_char ',' inner
                    |> List.filter_map (fun kv ->
                           match String.index_opt kv ':' with
                           | None -> None
                           | Some i ->
                               Some
                                 ( strip_quotes (String.sub kv 0 i),
                                   strip_quotes
                                     (String.sub kv (i + 1)
                                        (String.length kv - i - 1)) ))
              in
              Some
                {
                  r_name = strip_quotes name;
                  r_site = strip_quotes site;
                  r_tid;
                  r_start;
                  r_dur;
                  r_attrs;
                }
          | _ -> None)
      | _ -> None)

let load_jsonl path =
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let ic = open_in path in
    let records = ref [] and bad = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match record_of_line line with
           | Some r -> records := r :: !records
           | None -> Stdlib.incr bad
       done
     with End_of_file -> ());
    close_in ic;
    (List.rev !records, !bad)
  end
