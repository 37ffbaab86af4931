(* Cooperative cancellation: an ambient per-domain token polled at natural
   checkpoints. Timestamps are whole milliseconds (immediate ints) so the
   heartbeat [Atomic.set] never allocates on the poll fast path. *)

type token = {
  t0_ms : int;  (* creation time; 0 only for [none] *)
  expiry_ms : int option;  (* absolute wall-clock expiry *)
  limit_ms : int;  (* the budget [expiry_ms] encodes, for error reports *)
  hb_ms : int Atomic.t;  (* last poll; supervisors read this *)
  parent : token option;  (* linked token this one fans out for *)
}

exception Expired of { elapsed_ms : int; limit_ms : int }

let () =
  Printexc.register_printer (function
    | Expired { elapsed_ms; limit_ms } ->
        Some
          (Printf.sprintf "Qls_cancel.Expired(elapsed=%dms, limit=%dms)"
             elapsed_ms limit_ms)
    | _ -> None)

let now_ms () =
  (* lint: nondet-source — wall clock is the substance of deadline tracking *)
  int_of_float (Unix.gettimeofday () *. 1000.)

let none =
  {
    t0_ms = 0;
    expiry_ms = None;
    limit_ms = 0;
    hb_ms = Atomic.make 0;
    parent = None;
  }

let make ?deadline_ms () =
  (match deadline_ms with
  | Some d when d < 1 ->
      invalid_arg (Printf.sprintf "Qls_cancel.make: deadline_ms %d < 1" d)
  | _ -> ());
  let t0 = now_ms () in
  {
    t0_ms = t0;
    expiry_ms = Option.map (fun d -> t0 + d) deadline_ms;
    limit_ms = Option.value deadline_ms ~default:0;
    hb_ms = Atomic.make t0;
    parent = None;
  }

(* A child mirrors the parent's absolute expiry (same [t0_ms]/[limit_ms],
   so an [Expired] report reads identically from either), and its polls
   walk the parent chain to heartbeat it. [child none] is [none]: with no
   ambient budget there is nothing to propagate. *)
let child t =
  if t == none then none
  else
    {
      t0_ms = t.t0_ms;
      expiry_ms = t.expiry_ms;
      limit_ms = t.limit_ms;
      hb_ms = Atomic.make (now_ms ());
      parent = Some t;
    }

let key : token Domain.DLS.key = Domain.DLS.new_key (fun () -> none)

let with_token t f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key t;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

let expire_check t =
  if t != none then begin
    let now = now_ms () in
    (* Stamp the whole chain: a supervisor watching the parent job sees
       fanned-out children still making progress. *)
    let rec stamp u =
      Atomic.set u.hb_ms now;
      match u.parent with Some p -> stamp p | None -> ()
    in
    stamp t;
    match t.expiry_ms with
    | Some e when now >= e ->
        raise (Expired { elapsed_ms = now - t.t0_ms; limit_ms = t.limit_ms })
    | _ -> ()
  end

let poll () = expire_check (Domain.DLS.get key)
let current () = Domain.DLS.get key
let last_poll_ms t = Atomic.get t.hb_ms
let created_ms t = t.t0_ms
