(* In-memory spans the benchmark records around its calls into each
   layer. One thread records. A nested span charges its time and its
   minor-heap words to its parent, so every record carries self time and
   self allocation. Records stay in memory until [write]. *)

type record = {
  name : string;
  depth : int;  (* 0 for a span no other span encloses *)
  start : float;
  dur : float;  (* seconds *)
  self : float;  (* dur minus the durations of directly nested spans *)
  words : float;  (* minor words allocated on this domain, nested spans excluded *)
}

type frame = {
  f_start : float;
  f_words : float;
  mutable child_dur : float;
  mutable child_words : float;
}

let enabled = ref false
let stack : frame list ref = ref []
let records : record list ref = ref []

let span name f =
  if not !enabled then f ()
  else begin
    let depth = List.length !stack in
    let fr =
      {
        f_start = Unix.gettimeofday ();
        f_words = Gc.minor_words ();
        child_dur = 0.0;
        child_words = 0.0;
      }
    in
    stack := fr :: !stack;
    Fun.protect f ~finally:(fun () ->
        let dur = Unix.gettimeofday () -. fr.f_start in
        let words = Gc.minor_words () -. fr.f_words in
        stack := List.tl !stack;
        (match !stack with
        | parent :: _ ->
            parent.child_dur <- parent.child_dur +. dur;
            parent.child_words <- parent.child_words +. words
        | [] -> ());
        records :=
          {
            name;
            depth;
            start = fr.f_start;
            dur;
            self = dur -. fr.child_dur;
            words = words -. fr.child_words;
          }
          :: !records)
  end

type total = { calls : int; self_s : float; self_words : float }

let total name =
  List.fold_left
    (fun acc r ->
      if String.equal r.name name then
        {
          calls = acc.calls + 1;
          self_s = acc.self_s +. r.self;
          self_words = acc.self_words +. r.words;
        }
      else acc)
    { calls = 0; self_s = 0.0; self_words = 0.0 }
    !records

let root_seconds () =
  List.fold_left
    (fun acc r -> if r.depth = 0 then acc +. r.dur else acc)
    0.0 !records

let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun r ->
          Printf.fprintf oc
            "{\"name\":\"%s\",\"depth\":%d,\"start\":%.6f,\"dur\":%.9f,\"self\":%.9f,\"minor_words\":%.0f}\n"
            r.name r.depth r.start r.dur r.self r.words)
        (List.rev !records))
