open Datalog

type batch = (string * Tuple.t) list

type transmit =
  dst:Pid.t -> seq:int -> attempt:int -> replay:bool -> batch -> unit

(* One batch awaiting its ack. *)
type unacked = {
  u_batch : batch;
  u_replay : bool;
  mutable u_attempt : int;
  mutable u_retry_at : float;
}

type t = {
  capacity : int option;
  reliable : bool;
  retry : Backoff.t;
  clock : unit -> float;
  metrics : Obs.Metrics.t;
  fc : Fault.counters;
  transmit : transmit;
  next_seq : int array;
  unacked : (int, unacked) Hashtbl.t array;
  (* Rows deferred for lack of credit; the bool marks a replay. *)
  pending : (string * Tuple.t * bool) Queue.t array;
  mutable queued : int;
  credit_used : int array;  (* rows in flight per destination *)
  inflight_size : (int, int) Hashtbl.t array;  (* rows of each batch *)
  sent_row : int array;
  mutable credit_stalls : int;
  mutable peak_in_flight : int;
  mutable outbox_peak : int * int;
}

let create ~nprocs ~capacity ~reliable ~retry ~clock
    ?(metrics = Obs.Metrics.none) fc transmit =
  let tables () = Array.init nprocs (fun _ -> Hashtbl.create 8) in
  { capacity; reliable; retry; clock; metrics; fc; transmit;
    next_seq = Array.make nprocs 0; unacked = tables ();
    pending = Array.init nprocs (fun _ -> Queue.create ()); queued = 0;
    credit_used = Array.make nprocs 0; inflight_size = tables ();
    sent_row = Array.make nprocs 0; credit_stalls = 0; peak_in_flight = 0;
    outbox_peak = (0, 0) }

let attempt t dst seq u =
  let k = u.u_attempt in
  u.u_attempt <- k + 1;
  u.u_retry_at <-
    t.clock () +. (float_of_int (Backoff.delay_ms t.retry k) /. 1000.);
  t.transmit ~dst ~seq ~attempt:k ~replay:u.u_replay u.u_batch

(* A new sequence number on the channel to [dst]. The uncredited,
   unreliable path keeps nothing. *)
let emit t dst ~replay ~rows batch =
  let seq = t.next_seq.(dst) in
  t.next_seq.(dst) <- seq + 1;
  if t.capacity <> None then begin
    let used = t.credit_used.(dst) + rows in
    t.credit_used.(dst) <- used;
    t.peak_in_flight <- max t.peak_in_flight used;
    Obs.Metrics.max_gauge t.metrics "runtime.peak_in_flight" used;
    Hashtbl.replace t.inflight_size.(dst) seq rows
  end;
  if t.reliable then begin
    let u =
      { u_batch = batch; u_replay = replay; u_attempt = 0; u_retry_at = 0. }
    in
    Hashtbl.replace t.unacked.(dst) seq u;
    attempt t dst seq u
  end
  else t.transmit ~dst ~seq ~attempt:0 ~replay batch

let count t dst ~replay rows =
  if replay then t.fc.n_replayed <- t.fc.n_replayed + rows
  else begin
    t.sent_row.(dst) <- t.sent_row.(dst) + rows;
    Obs.Metrics.incr t.metrics ~by:rows "runtime.tuples_sent"
  end

(* Move queued rows onto the wire, credit permitting, every channel in
   turn: a batch takes at most the channel's remaining credit. *)
let flush t k =
  Array.iteri
    (fun dst q ->
      while (not (Queue.is_empty q)) && t.credit_used.(dst) < k do
        let rec take n acc =
          if n = 0 || Queue.is_empty q then List.rev acc
          else take (n - 1) (Queue.pop q :: acc)
        in
        let entries = take (k - t.credit_used.(dst)) [] in
        let rows = List.length entries in
        t.queued <- t.queued - rows;
        List.iter (fun (_, _, replay) -> count t dst ~replay 1) entries;
        emit t dst ~rows
          ~replay:(List.for_all (fun (_, _, r) -> r) entries)
          (List.map (fun (pred, tuple, _) -> (pred, tuple)) entries)
      done;
      if not (Queue.is_empty q) then begin
        t.credit_stalls <- t.credit_stalls + 1;
        Obs.Metrics.incr t.metrics "runtime.credit_stalls"
      end)
    t.pending

let note_outbox_peak t =
  if t.queued > fst t.outbox_peak then
    t.outbox_peak <-
      ( t.queued,
        Array.fold_left
          (Queue.fold (fun acc (_, tuple, _) -> acc + (Tuple.arity tuple * 8)))
          0 t.pending )

let send t ~replay dst batch =
  if batch <> [] then
    match t.capacity with
    | None ->
      let rows = List.length batch in
      count t dst ~replay rows;
      emit t dst ~replay ~rows batch
    | Some k ->
      List.iter
        (fun (pred, tuple) -> Queue.add (pred, tuple, replay) t.pending.(dst))
        batch;
      t.queued <- t.queued + List.length batch;
      flush t k;
      note_outbox_peak t

let ack t ~dst ~seq =
  if Hashtbl.mem t.unacked.(dst) seq then begin
    Hashtbl.remove t.unacked.(dst) seq;
    t.fc.n_acks <- t.fc.n_acks + 1
  end;
  match t.capacity, Hashtbl.find_opt t.inflight_size.(dst) seq with
  | Some k, Some rows ->
    Hashtbl.remove t.inflight_size.(dst) seq;
    t.credit_used.(dst) <- t.credit_used.(dst) - rows;
    flush t k
  | _ -> ()

let retransmit_due t =
  let now = t.clock () in
  Array.iteri
    (fun dst tbl ->
      Hashtbl.iter
        (fun seq u ->
          if u.u_retry_at <= now then begin
            t.fc.n_retransmits <- t.fc.n_retransmits + 1;
            Obs.Metrics.incr t.metrics "runtime.retransmits";
            attempt t dst seq u
          end)
        tbl)
    t.unacked

let count_local t dst = count t dst ~replay:false 1
let sent_row t = t.sent_row
let credit_stalls t = t.credit_stalls
let peak_in_flight t = t.peak_in_flight
let queued t = t.queued
let backlog t = Array.fold_left ( + ) t.queued t.credit_used
let backlog_to t dst = Queue.length t.pending.(dst) + t.credit_used.(dst)

let outbox_peak t = t.outbox_peak

let idle t =
  t.queued = 0 && Array.for_all (fun tbl -> Hashtbl.length tbl = 0) t.unacked

module Dedup = struct
  type 'k t = ('k, unit) Hashtbl.t

  let create () = Hashtbl.create 16

  let first d key =
    (not (Hashtbl.mem d key)) && (Hashtbl.replace d key (); true)
end
