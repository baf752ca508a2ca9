(* Seam-level properties of the channel layer, with no runtime.

   One sender's [Channel] and a [Channel.Dedup] receiver are joined by
   a test wire. A random schedule of sends, deliveries, drops,
   duplicates, acks and retransmission ticks drives them, under a
   capacity of none or 1-4 and with or without the reliable layer;
   then the wire and the acks are drained. The test keeps its own
   counts from what crosses the seam (the transmit function and the
   receiver) and checks the channel's counters against them. *)

open Datalog
open Pardatalog

type op =
  | Send of int * int * bool  (* destination, rows, replay *)
  | Deliver of int  (* the i-th frame on the wire, mod its length *)
  | Drop of int  (* reliable runs only *)
  | Dup of int  (* delivered and left on the wire; reliable only *)
  | Ack  (* the oldest ack not yet returned *)
  | Tick of int  (* advance the clock by ms, then retransmit *)

type cfg = { capacity : int option; reliable : bool; ops : op list }

let nprocs = 3

let print_op = function
  | Send (d, n, r) ->
    Printf.sprintf "send(%d,%d%s)" d n (if r then ",r" else "")
  | Deliver i -> Printf.sprintf "deliver %d" i
  | Drop i -> Printf.sprintf "drop %d" i
  | Dup i -> Printf.sprintf "dup %d" i
  | Ack -> "ack"
  | Tick ms -> Printf.sprintf "tick %d" ms

let print_cfg c =
  Printf.sprintf "capacity=%s reliable=%b\n%s"
    (match c.capacity with None -> "-" | Some k -> string_of_int k)
    c.reliable
    (String.concat "; " (List.map print_op c.ops))

let cfg_arb =
  let open QCheck.Gen in
  let op =
    frequency
      [
        ( 4,
          map3
            (fun d n r -> Send (d, n, r))
            (int_bound (nprocs - 1)) (int_range 1 5)
            (map (fun x -> x = 0) (int_bound 3)) );
        (4, map (fun i -> Deliver i) nat);
        (1, map (fun i -> Drop i) nat);
        (1, map (fun i -> Dup i) nat);
        (3, return Ack);
        (1, map (fun ms -> Tick ms) (int_bound 100));
      ]
  in
  QCheck.make ~print:print_cfg
    (let* capacity = opt ~ratio:0.7 (int_range 1 4) in
     let* reliable = bool in
     let* ops = list_size (int_bound 60) op in
     return { capacity; reliable; ops })

(* A row is [id; 1 if replayed else 0]: unique, and it carries its own
   replay mark across the wire. *)
let int_at t i = match Tuple.get t i with Const.Int n -> n | Sym _ -> -1
let id t = int_at t 0
let is_replay t = int_at t 1 = 1

let remove_nth l i =
  let i = i mod List.length l in
  (List.nth l i, List.filteri (fun j _ -> j <> i) l)

let prop_schedule =
  QCheck.Test.make ~count:1000
    ~name:
      "channel: exactly-once delivery, in flight <= capacity, drains, \
       counters = test counts"
    cfg_arb
    (fun cfg ->
      let clock = ref 0.0 in
      let fc = Fault.counters () in
      let wire = ref [] in  (* (dst, seq, rows), oldest first *)
      let acks = Queue.create () in
      (* The test's own counts. *)
      let offered = Array.make nprocs 0 in
      let transmitted = Array.make nprocs 0 in
      let in_flight = Array.make nprocs 0 in
      let unreturned = Hashtbl.create 16 in  (* (dst, seq) -> rows *)
      let sent_row = Array.make nprocs 0 in
      let replayed = ref 0 in
      let stalls = ref 0 in
      let peak = ref 0 in
      let ok = ref true in
      let transmit ~dst ~seq ~attempt ~replay batch =
        let rows = List.map snd batch in
        if attempt = 0 then begin
          let n = List.length rows in
          transmitted.(dst) <- transmitted.(dst) + n;
          List.iter
            (fun t ->
              if is_replay t then incr replayed
              else sent_row.(dst) <- sent_row.(dst) + 1)
            rows;
          if replay <> List.for_all is_replay rows then ok := false;
          match cfg.capacity with
          | None -> ()
          | Some k ->
            Hashtbl.replace unreturned (dst, seq) n;
            in_flight.(dst) <- in_flight.(dst) + n;
            peak := max !peak in_flight.(dst);
            if in_flight.(dst) > k then ok := false
        end;
        wire := !wire @ [ (dst, seq, rows) ]
      in
      let ch =
        Channel.create ~nprocs ~capacity:cfg.capacity ~reliable:cfg.reliable
          ~retry:(Backoff.make ~base_ms:1 ~cap_ms:64 ())
          ~clock:(fun () -> !clock)
          fc transmit
      in
      let note_stalls () =
        Array.iteri
          (fun dst n -> if n > transmitted.(dst) then incr stalls)
          offered
      in
      let seen = Channel.Dedup.create () in
      let receipts = Hashtbl.create 64 in
      let deliver (dst, seq, rows) =
        if Channel.Dedup.first seen (dst, seq) then
          List.iter
            (fun t ->
              let n = Hashtbl.find_opt receipts (id t) in
              Hashtbl.replace receipts (id t) (1 + Option.value ~default:0 n))
            rows;
        (* The runtimes ack whenever the reliable layer or the credit
           gate is on, duplicates included. *)
        if cfg.reliable || cfg.capacity <> None then Queue.add (dst, seq) acks
      in
      let ack () =
        let dst, seq = Queue.pop acks in
        match Hashtbl.find_opt unreturned (dst, seq) with
        | Some n ->
          Hashtbl.remove unreturned (dst, seq);
          in_flight.(dst) <- in_flight.(dst) - n;
          Channel.ack ch ~dst ~seq;
          note_stalls ()
        | None -> Channel.ack ch ~dst ~seq
      in
      let tick ms =
        clock := !clock +. (float_of_int ms /. 1000.);
        Channel.retransmit_due ch
      in
      let next_id = ref 0 in
      List.iter
        (fun op ->
          (match op with
           | Send (dst, n, replay) ->
             let batch =
               List.init n (fun _ ->
                   incr next_id;
                   ("p", Tuple.of_ints [ !next_id; Bool.to_int replay ]))
             in
             offered.(dst) <- offered.(dst) + n;
             Channel.send ch ~replay dst batch;
             if cfg.capacity <> None then note_stalls ()
           | Deliver i when !wire <> [] ->
             let f, rest = remove_nth !wire i in
             wire := rest;
             deliver f
           | Drop i when cfg.reliable && !wire <> [] ->
             wire := snd (remove_nth !wire i)
           | Dup i when cfg.reliable && !wire <> [] ->
             deliver (fst (remove_nth !wire i))
           | Ack when not (Queue.is_empty acks) -> ack ()
           | Tick ms -> tick ms
           | Deliver _ | Drop _ | Dup _ | Ack -> ());
          (* The fault-free, uncredited path keeps nothing. *)
          if cfg.capacity = None && (not cfg.reliable) && not (Channel.idle ch)
          then ok := false)
        cfg.ops;
      (* Drain: deliver everything, return every ack, and let the
         retransmission timer run until nothing is outstanding. *)
      let rounds = ref 0 in
      while
        (not (Channel.idle ch && !wire = [] && Queue.is_empty acks))
        && !rounds < 1000
      do
        incr rounds;
        List.iter deliver !wire;
        wire := [];
        while not (Queue.is_empty acks) do ack () done;
        tick 1000
      done;
      let total = Array.fold_left ( + ) 0 offered in
      !ok
      && Channel.idle ch && Channel.queued ch = 0 && Channel.backlog ch = 0
      && Hashtbl.length receipts = total
      && Hashtbl.fold (fun _ n acc -> acc && n = 1) receipts true
      && Channel.sent_row ch = sent_row
      && fc.n_replayed = !replayed
      && Channel.credit_stalls ch = !stalls
      && Channel.peak_in_flight ch = !peak)

let suites =
  [ ("channel", [ QCheck_alcotest.to_alcotest prop_schedule ]) ]
