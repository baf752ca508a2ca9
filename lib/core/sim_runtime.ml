open Datalog

let log_src = Logs.Src.create "pardatalog.sim" ~doc:"simulated parallel runtime"

module Log = (val Logs.src_log log_src)

type result = Session.result = {
  answers : Database.t;
  stats : Stats.t;
}

exception Round_budget_exceeded of { round : int; stats : Stats.t }

module Ktbl = Router.Ktbl

type proc_state = {
  pid : Pid.t;
  mutable engine : Seminaive.t;  (* replaced on crash recovery *)
  outbox : (Router.route * Tuple.t) Queue.t;  (* produced, not yet routed *)
  (* delivered, not yet injected; tagged with the sender so receipt can
     return that channel's credit *)
  inbox : (Pid.t * string * Tuple.t) Queue.t;
  (* self-routed on the local-delivery path, not yet injected *)
  local : (Router.route * Tuple.t) Queue.t;
  (* In place: the steps' fresh tuples, already the engine's delta,
     held until the Sending phase counts them. *)
  mutable held : (string * Tuple.t) list list;
  mutable held_rows : int;
  all_out : (Router.route * Tuple.t) Queue.t;  (* cumulative, for resend_all *)
  mutable outbox_peak_rows : int;
  mutable outbox_peak_bytes : int;
  mutable tuples_sent : int;
  mutable tuples_received : int;
  mutable tuples_accepted : int;
  mutable active_rounds : int;
  base_resident : int;
  mutable alive : bool;
  mutable down_until : int;  (* first round eligible for recovery *)
  (* Engine snapshot plus the outbox at the same instant: a tuple
     derived in round r is routed only in round r+1, so a checkpoint
     that captured the engine alone would leave such a tuple in the
     restored full database (never re-derived) yet absent from every
     channel history (never replayed) — silently lost. *)
  mutable checkpoint :
    (Seminaive.snapshot * (Router.route * Tuple.t) list) option;
  (* Work done by engines that crashed, folded into the final stats so
     total firings stay honest about redundant re-derivation. *)
  mutable lost_iterations : int;
  mutable lost_firings : int;
  mutable lost_new : int;
  mutable lost_dup : int;
}

(* One payload on the reliable-delivery layer: a (pred, tuple) pair with
   a per-channel sequence number, retransmitted until acknowledged. *)
type payload = {
  pl_src : Pid.t;
  pl_dst : Pid.t;
  pl_seq : int;
  pl_pred : string;
  pl_tuple : Tuple.t;
  mutable pl_attempt : int;  (* transmission attempts made *)
  mutable pl_retry_at : int;  (* round to retransmit if still unacked *)
}

type fmsg =
  | Fdata of { fm_pl : payload; fm_attempt : int }
  | Fack of { fm_sender : Pid.t; fm_receiver : Pid.t; fm_seq : int }

let open_session ?(config = Run_config.default) (rw : Rewrite.t) ~edb =
  let options : Run_config.t = config in
  (* A configuration carrying a plan certificate is only honoured after
     re-verification against the program actually being run — a stale
     certificate fails fast (Plan.Rejected) instead of silently
     executing under assumptions that no longer hold. *)
  Option.iter
    (fun plan -> Plan.validate_exn ~nprocs:rw.nprocs plan rw.original)
    config.Run_config.plan;
  let tr = config.Run_config.obs.Obs.trace in
  let mx = config.Run_config.obs.Obs.metrics in
  (* Wall-clock accumulator behind [Stats.phase_ns]: unlike the trace
     sink it is always on — one gettimeofday pair per phase span. *)
  let ptimer = Obs.Phase_timer.create ~metrics:mx () in
  let span ~pid ~round phase f =
    Obs.Phase_timer.time ptimer (Obs.Trace.phase_name phase) (fun () ->
        Obs.Trace.span tr ~pid ~round phase f)
  in
  let nprocs = rw.nprocs in
  let plan = options.fault in
  (* With [Fault.none] the delivery layer is bypassed entirely and the
     run takes the exact fault-free code path. *)
  let faulty = not (Fault.is_none plan) in
  let credited = options.capacity <> None in
  (* Local delivery, the paper's Q_i case h(v(r)) = i: with no fault to
     replay and no credit to gate, a self-routed tuple skips the channel
     queue and the inbox and goes straight to the engine's Δ. *)
  let local_delivery = (not faulty) && not credited in
  (* In place (DESIGN.md §18): when no tuple can leave its producer,
     the engine reads its own [@out] and there is nothing to deliver. *)
  let routes =
    Router.make
      ~in_place:
        (local_delivery && (not options.resend_all) && rw.communication_free)
      rw
  in
  let in_place = Router.in_place routes in
  if faulty && options.resend_all then
    invalid_arg
      "Sim_runtime.run: resend_all cannot be combined with fault injection \
       (every round's re-sends would take fresh sequence numbers and the \
       unacknowledged buffers would never drain)";
  (match options.capacity with
   | Some c when c < 1 ->
     invalid_arg "Sim_runtime.run: capacity must be >= 1"
   | Some _ when options.resend_all ->
     invalid_arg
       "Sim_runtime.run: resend_all cannot be combined with a channel \
        capacity (re-sending the whole output every round outgrows any \
        bound)"
   | _ -> ());
  Overload.validate options.limits;
  let fc = Fault.counters () in
  let edb = Router.base_edb rw edb in
  let procs =
    Array.init nprocs (fun pid ->
        let local_edb =
          Router.build_edb ~replicate:options.replicate_base rw edb pid
        in
        {
          pid;
          engine =
            Router.engine routes ~pushdown:options.pushdown pid
              ~edb:local_edb;
          outbox = Queue.create ();
          inbox = Queue.create ();
          local = Queue.create ();
          held = [];
          held_rows = 0;
          all_out = Queue.create ();
          outbox_peak_rows = 0;
          outbox_peak_bytes = 0;
          tuples_sent = 0;
          tuples_received = 0;
          tuples_accepted = 0;
          active_rounds = 0;
          base_resident = Database.total_tuples local_edb;
          alive = true;
          down_until = 0;
          checkpoint = None;
          lost_iterations = 0;
          lost_firings = 0;
          lost_new = 0;
          lost_dup = 0;
        })
  in
  let channel_tuples = Array.make_matrix nprocs nprocs 0 in
  (* Per-channel transmission queue: tuples handed to the transport but
     not yet transmitted, because the channel is out of credit (or the
     round's pump has not run yet). Part of the stable channel layer —
     it survives a sender crash, like the sequence numbers and the
     unacked buffers, so a tuple recorded in [channel_seen] is never
     lost. The [bool] marks recovery replays, which are not re-counted
     as fresh communication. *)
  let chan_pending : (string * Tuple.t * bool) Queue.t array array =
    Array.init nprocs (fun _ -> Array.init nprocs (fun _ -> Queue.create ()))
  in
  (* Credit accounting, active only under a capacity: in-flight =
     delivered-but-unreceived (fault-free) or unacknowledged (faulty)
     tuples per channel. *)
  let in_flight = Array.make_matrix nprocs nprocs 0 in
  let sent_this_round = Array.make_matrix nprocs nprocs 0 in
  let peak_in_flight = ref 0 in
  let credit_stalls = ref 0 in
  (* The channel history, kept only under a fault plan: every (pred,
     tuple) pair a channel carried, replayed to a recovering processor
     and consulted so that no pair travels a channel twice. A
     fault-free run needs neither: each @out tuple leaves its engine
     once and {!Router.destinations} lists each channel once. *)
  let channel_seen = Array.init nprocs (fun _ -> Array.init nprocs
                                            (fun _ -> Ktbl.create 64)) in
  (* Reliable-delivery state. Everything here is stable storage in the
     fault model — it survives processor crashes (the issue's "channel
     counters"); only the engine, the inbox and the receive-side
     duplicate filter are volatile. *)
  let next_seq = Array.make_matrix nprocs nprocs 0 in
  let unacked : (int, payload) Hashtbl.t array array =
    Array.init nprocs (fun _ ->
        Array.init nprocs (fun _ -> Hashtbl.create 8))
  in
  (* Receive-side content filter per channel: volatile, reset when the
     receiver crashes so that replays reach the rebuilt engine. *)
  let recv_seen =
    Array.init nprocs (fun _ -> Array.init nprocs (fun _ -> Ktbl.create 16))
  in
  (* replay_due.(q).(p): q was down when p recovered, so q still owes p
     a replay of its channel history, performed at q's own recovery. *)
  let replay_due = Array.make_matrix nprocs nprocs false in
  let flight : (int, fmsg list ref) Hashtbl.t = Hashtbl.create 32 in
  let flight_size = ref 0 in
  let rounds = ref 0 in
  let schedule at msg =
    incr flight_size;
    match Hashtbl.find_opt flight at with
    | Some l -> l := msg :: !l
    | None -> Hashtbl.add flight at (ref [ msg ])
  in
  let transmit pl =
    let attempt = pl.pl_attempt in
    pl.pl_attempt <- attempt + 1;
    pl.pl_retry_at <- !rounds + Fault.retransmit_after ~attempt;
    let fate =
      Fault.fate plan ~src:pl.pl_src ~dst:pl.pl_dst ~seq:pl.pl_seq ~attempt
    in
    if fate.f_drop then fc.n_drops <- fc.n_drops + 1
    else begin
      if fate.f_delay > 0 then fc.n_delays <- fc.n_delays + 1;
      if fate.f_jitter > 0 then fc.n_reorders <- fc.n_reorders + 1;
      let at = !rounds + fate.f_delay + fate.f_jitter in
      schedule at (Fdata { fm_pl = pl; fm_attempt = attempt });
      if fate.f_dup then begin
        fc.n_dups_injected <- fc.n_dups_injected + 1;
        schedule at (Fdata { fm_pl = pl; fm_attempt = attempt })
      end
    end
  in
  let check_channel src dst =
    match options.network with
    | Some net when not (Netgraph.mem net src dst) ->
      failwith
        (Printf.sprintf
           "Sim_runtime.run: tuple routed along missing channel %d -> %d \
            (Definition 3 violation)"
           src dst)
    | _ -> ()
  in
  let send_payload ~replay src dst pred tuple =
    check_channel src dst;
    let seq = next_seq.(src).(dst) in
    next_seq.(src).(dst) <- seq + 1;
    if replay then fc.n_replayed <- fc.n_replayed + 1;
    let pl =
      {
        pl_src = src;
        pl_dst = dst;
        pl_seq = seq;
        pl_pred = pred;
        pl_tuple = tuple;
        pl_attempt = 0;
        pl_retry_at = 0;
      }
    in
    Hashtbl.replace unacked.(src).(dst) seq pl;
    transmit pl
  in
  (* Message counters tick when a tuple is put on its channel: at the
     pump, or at routing for a local delivery. *)
  let count_sent src dst =
    channel_tuples.(src).(dst) <- channel_tuples.(src).(dst) + 1;
    procs.(src).tuples_sent <- procs.(src).tuples_sent + 1;
    sent_this_round.(src).(dst) <- sent_this_round.(src).(dst) + 1;
    Obs.Metrics.incr mx "runtime.tuples_sent"
  in
  let route_tuple ~dedup src (r : Router.route) tuple =
    List.iter
      (fun dst ->
        check_channel src.pid dst;
        if local_delivery && dst = src.pid then begin
          count_sent dst dst;
          Queue.add (r, tuple) src.local
        end
        else if
          (not (dedup && faulty))
          || Router.mark_new channel_seen.(src.pid).(dst) (r.pred, tuple)
        then Queue.add (r.pred, tuple, false) chan_pending.(src.pid).(dst))
      (Router.destinations r src.pid tuple)
  in
  (* The credit-gated pump: move pending tuples onto the wire while the
     channel has credit. Message counters tick here, so they still mean
     "tuples actually put on the channel". *)
  let pump () =
    for src = 0 to nprocs - 1 do
      for dst = 0 to nprocs - 1 do
        let q = chan_pending.(src).(dst) in
        if not (Queue.is_empty q) then begin
          let has_credit () =
            match options.capacity with
            | None -> true
            | Some k -> in_flight.(src).(dst) < k
          in
          let stalled = ref false in
          while
            (not (Queue.is_empty q))
            && (has_credit () || (stalled := true; false))
          do
            let pred, tuple, replay = Queue.pop q in
            if not replay then count_sent src dst;
            if credited then begin
              in_flight.(src).(dst) <- in_flight.(src).(dst) + 1;
              if in_flight.(src).(dst) > !peak_in_flight then
                peak_in_flight := in_flight.(src).(dst);
              Obs.Metrics.max_gauge mx "runtime.peak_in_flight"
                in_flight.(src).(dst)
            end;
            if faulty then send_payload ~replay src dst pred tuple
            else Queue.add (src, pred, tuple) procs.(dst).inbox
          done;
          if !stalled then begin
            incr credit_stalls;
            Obs.Metrics.incr mx "runtime.credit_stalls"
          end
        end
      done
    done
  in
  let collect_new src produced =
    if in_place then begin
      src.held <- produced :: src.held;
      src.held_rows <- src.held_rows + List.length produced
    end
    else
      List.iter
        (fun (out_name, tuple) ->
          match Router.of_out routes out_name with
          | Some r ->
            Queue.add (r, tuple) src.outbox;
            if options.resend_all then Queue.add (r, tuple) src.all_out
          | None -> ())
        produced
  in
  (* Initialization: bootstrap every processor's program; its
     production counts form trace row 0. *)
  let boot_row = Array.make nprocs 0 in
  Array.iter
    (fun p ->
      let produced =
        Stats.observe_engine mx p.engine (fun () ->
            Seminaive.bootstrap p.engine)
      in
      Obs.Trace.instant tr ~pid:p.pid ~round:0 "bootstrap";
      boot_row.(p.pid) <- List.length produced;
      collect_new p produced)
    procs;
  let trace = ref [ boot_row ] in
  let build_stats ?(incr = Stats.no_incr) ~pooled () : Stats.t =
    {
      incr;
      nprocs;
      rounds = !rounds;
      per_proc =
        Array.map
          (fun p ->
            let es = Seminaive.stats p.engine in
            let db = Seminaive.store p.engine in
            {
              Stats.pid = p.pid;
              firings = es.Seminaive.firings + p.lost_firings;
              new_tuples = es.Seminaive.new_tuples + p.lost_new;
              duplicate_firings =
                es.Seminaive.duplicate_firings + p.lost_dup;
              iterations = es.Seminaive.iterations + p.lost_iterations;
              tuples_sent = p.tuples_sent;
              tuples_received = p.tuples_received;
              tuples_accepted = p.tuples_accepted;
              base_resident = p.base_resident;
              active_rounds = p.active_rounds;
              store_rows = Overload.db_rows db;
              store_bytes = Overload.db_bytes db;
              outbox_peak_rows = p.outbox_peak_rows;
              outbox_peak_bytes = p.outbox_peak_bytes;
            })
          procs;
      channel_tuples;
      pooled_tuples = pooled;
      trace = List.rev !trace;
      faults =
        Fault.freeze fc ~credit_stalls:!credit_stalls
          ~alpha_raises:
            (match options.dial with Some d -> Overload.raises d | None -> 0)
          ~alpha_decays:
            (match options.dial with Some d -> Overload.decays d | None -> 0);
      transport = Stats.no_transport;
      peak_in_flight = !peak_in_flight;
      phase_ns = Obs.Phase_timer.totals ptimer;
      comms = Stats.no_comms;
    }
  in
  let live_count () =
    Array.fold_left (fun n p -> if p.alive then n + 1 else n) 0 procs
  in
  let replay_history ~src ~dst =
    Ktbl.iter
      (fun (pred, tuple) () ->
        Queue.add (pred, tuple, true) chan_pending.(src).(dst))
      channel_seen.(src).(dst)
  in
  let do_crash p (c : Fault.crash) =
    if live_count () <= 1 then
      Log.info (fun m ->
          m "round %d: crash of processor %d skipped (last live processor)"
            !rounds p.pid)
    else begin
      fc.n_crashes <- fc.n_crashes + 1;
      p.alive <- false;
      p.down_until <- !rounds + c.cr_down;
      (* Volatile state dies with the processor; the delivery layer's
         stable state (sequence numbers, unacked buffers, channel
         history) survives. *)
      Queue.clear p.outbox;
      Queue.clear p.inbox;
      Array.iter Ktbl.reset recv_seen.(p.pid);
      Obs.Trace.instant tr ~pid:p.pid ~round:!rounds "crash";
      Log.info (fun m ->
          m "round %d: processor %d crashed, down for %d round(s)" !rounds
            p.pid c.cr_down)
    end
  in
  let do_recover p =
    fc.n_recoveries <- fc.n_recoveries + 1;
    let survivor =
      Array.fold_left
        (fun acc q ->
          match acc with
          | Some _ -> acc
          | None -> if q.alive then Some q.pid else None)
        None procs
      |> Option.value ~default:p.pid
    in
    let es = Seminaive.stats p.engine in
    p.lost_iterations <- p.lost_iterations + es.Seminaive.iterations;
    p.lost_firings <- p.lost_firings + es.Seminaive.firings;
    p.lost_new <- p.lost_new + es.Seminaive.new_tuples;
    p.lost_dup <- p.lost_dup + es.Seminaive.duplicate_firings;
    (match p.checkpoint with
     | Some (snap, saved_outbox) ->
       fc.n_restores <- fc.n_restores + 1;
       p.engine <-
         Seminaive.restore ~pushdown:options.pushdown
           (Router.program routes p.pid) snap;
       (* Products awaiting routing when the snapshot was taken; the
          per-channel dedup drops any that did get sent before the
          crash. *)
       List.iter (fun kt -> Queue.add kt p.outbox) saved_outbox
     | None ->
       let local_edb =
         Router.build_edb ~replicate:options.replicate_base rw edb p.pid
       in
       p.engine <-
         Router.engine routes ~pushdown:options.pushdown p.pid ~edb:local_edb;
       let produced =
         Stats.observe_engine mx p.engine (fun () ->
             Seminaive.bootstrap p.engine)
       in
       collect_new p produced);
    p.alive <- true;
    Obs.Trace.instant tr ~pid:p.pid ~round:!rounds "recover";
    (* Bucket reassignment: the bucket h(v(r)) = pid is rebuilt (hosted
       by the first survivor), then every live peer — the processor's
       own loop channel included — replays its channel history so the
       rebuilt engine re-receives every tuple the dead one had. Peers
       currently down owe their replay at their own recovery. *)
    Array.iter
      (fun q ->
        if q.alive then replay_history ~src:q.pid ~dst:p.pid
        else replay_due.(q.pid).(p.pid) <- true)
      procs;
    for dst = 0 to nprocs - 1 do
      if replay_due.(p.pid).(dst) then begin
        replay_due.(p.pid).(dst) <- false;
        replay_history ~src:p.pid ~dst
      end
    done;
    Log.info (fun m ->
        m "round %d: processor %d recovered (%s; bucket rebuilt via %d)"
          !rounds p.pid
          (if Option.is_some p.checkpoint then "from checkpoint"
           else "from base fragment")
          survivor)
  in
  let deliver_due () =
    match Hashtbl.find_opt flight !rounds with
    | None -> ()
    | Some msgs ->
      Hashtbl.remove flight !rounds;
      List.iter
        (fun msg ->
          decr flight_size;
          match msg with
          | Fack { fm_sender; fm_receiver; fm_seq } ->
            if Hashtbl.mem unacked.(fm_sender).(fm_receiver) fm_seq
            then begin
              Hashtbl.remove unacked.(fm_sender).(fm_receiver) fm_seq;
              fc.n_acks <- fc.n_acks + 1;
              (* The ack doubles as a credit grant. *)
              if credited then
                in_flight.(fm_sender).(fm_receiver) <-
                  in_flight.(fm_sender).(fm_receiver) - 1
            end
          | Fdata { fm_pl = pl; fm_attempt } ->
            let p = procs.(pl.pl_dst) in
            if not p.alive then
              (* A message arriving at a dead processor is lost; the
                 sender's unacked buffer retransmits it later. *)
              fc.n_drops <- fc.n_drops + 1
            else begin
              if
                not
                  (Fault.ack_dropped plan ~src:pl.pl_src ~dst:pl.pl_dst
                     ~seq:pl.pl_seq ~attempt:fm_attempt)
              then
                schedule (!rounds + 1)
                  (Fack
                     {
                       fm_sender = pl.pl_src;
                       fm_receiver = pl.pl_dst;
                       fm_seq = pl.pl_seq;
                     });
              let seen = recv_seen.(pl.pl_dst).(pl.pl_src) in
              let key = (pl.pl_pred, pl.pl_tuple) in
              if Ktbl.mem seen key then
                fc.n_dups_suppressed <- fc.n_dups_suppressed + 1
              else begin
                Ktbl.add seen key ();
                Queue.add (pl.pl_src, pl.pl_pred, pl.pl_tuple) p.inbox
              end
            end)
        (List.rev !msgs)
  in
  let retransmit_due () =
    Array.iteri
      (fun src row ->
        span ~pid:src ~round:!rounds Obs.Trace.Retransmission
          (fun () ->
            Array.iter
              (fun tbl ->
                Hashtbl.iter
                  (fun _ pl ->
                    if pl.pl_retry_at <= !rounds then begin
                      fc.n_retransmits <- fc.n_retransmits + 1;
                      Obs.Metrics.incr mx "runtime.retransmits";
                      transmit pl
                    end)
                  tbl)
              row))
      unacked
  in
  let receive p in_name tuple =
    p.tuples_received <- p.tuples_received + 1;
    Obs.Metrics.incr mx "runtime.tuples_received";
    if Seminaive.inject p.engine in_name tuple then
      p.tuples_accepted <- p.tuples_accepted + 1
  in
  (* In place, each held tuple that would travel its producer's loop
     channel is counted as sent, received and accepted there — it is
     already in the engine, and new. *)
  let count_held p =
    List.iter
      (List.iter (fun (out_name, tuple) ->
           match Router.of_out routes out_name with
           | Some r when Router.travels r p.pid tuple ->
             check_channel p.pid p.pid;
             count_sent p.pid p.pid;
             p.tuples_received <- p.tuples_received + 1;
             Obs.Metrics.incr mx "runtime.tuples_received";
             p.tuples_accepted <- p.tuples_accepted + 1
           | _ -> ()))
      p.held;
    p.held <- [];
    p.held_rows <- 0
  in
  let drain_local p =
    Queue.iter
      (fun ((r : Router.route), tuple) -> receive p r.in_name tuple)
      p.local;
    Queue.clear p.local
  in
  let drain_inbox p =
    if
      faulty
      && Queue.length p.inbox > 1
      && Fault.reorder_inbox plan ~pid:p.pid ~round:!rounds
    then begin
      fc.n_reorders <- fc.n_reorders + 1;
      let arr = Array.of_seq (Queue.to_seq p.inbox) in
      Fault.shuffle plan ~pid:p.pid ~round:!rounds arr;
      Queue.clear p.inbox;
      Array.iter (fun x -> Queue.add x p.inbox) arr
    end;
    Queue.iter
      (fun (src, pred, tuple) ->
        (* The pump fills an inbox in source order, so the self-routed
           tuples are injected where their channel would have put
           them. *)
        if src > p.pid then drain_local p;
        (* Fault-free credit returns on receipt; under faults the ack
           carries it back instead. *)
        if credited && not faulty then
          in_flight.(src).(p.pid) <- in_flight.(src).(p.pid) - 1;
        receive p (Router.find routes pred).in_name tuple)
      p.inbox;
    Queue.clear p.inbox;
    drain_local p
  in
  let pending_from src =
    let n = ref 0 in
    for dst = 0 to nprocs - 1 do
      n := !n + Queue.length chan_pending.(src).(dst)
    done;
    !n
  in
  (* The drive loop: repeat rounds until global quiescence. A session
     re-enters it on every applied batch; [budget] bounds one drive
     ([Run_config.batch_rounds]) while [max_rounds] stays the
     cumulative budget across the whole session. *)
  let drive ~budget () =
  let start_round = !rounds in
  (* The deadline runs per drive, not per session: an idle session
     must not blow the watchdog while the client thinks. *)
  let t0 = Unix.gettimeofday () in
  let continue = ref true in
  while !continue do
    if !rounds >= options.max_rounds then
      raise
        (Round_budget_exceeded
           { round = !rounds; stats = build_stats ~pooled:0 () });
    (match budget with
     | Some b when !rounds - start_round >= b ->
       raise
         (Round_budget_exceeded
            { round = !rounds; stats = build_stats ~pooled:0 () })
     | _ -> ());
    (match options.limits.Overload.deadline with
     | Some seconds ->
       let elapsed = Unix.gettimeofday () -. t0 in
       if elapsed > seconds then
         raise
           (Overload.Overload
              {
                reason = Deadline { seconds; elapsed; round = !rounds };
                stats = build_stats ~pooled:0 ();
              })
     | None -> ());
    let round_now = !rounds in
    (* Fault schedule: crashes first, then due recoveries. *)
    if faulty then begin
      Array.iter
        (fun p ->
          if p.alive then
            match Fault.crash_at plan ~pid:p.pid ~round:!rounds with
            | Some c -> do_crash p c
            | None -> ())
        procs;
      Array.iter
        (fun p ->
          if (not p.alive) && !rounds >= p.down_until then do_recover p)
        procs
    end;
    (* Sending. *)
    Array.iter
      (fun p ->
        span ~pid:p.pid ~round:round_now Obs.Trace.Sending
          (fun () ->
            if not p.alive then ()
            else if in_place then count_held p
            else if options.resend_all then begin
              Queue.clear p.outbox;
              Queue.iter
                (fun (r, tuple) -> route_tuple ~dedup:false p r tuple)
                p.all_out
            end
            else begin
              Queue.iter
                (fun (r, tuple) -> route_tuple ~dedup:true p r tuple)
                p.outbox;
              Queue.clear p.outbox
            end))
      procs;
    (* Transmission: push pending tuples onto the wire, channel credit
       permitting. *)
    pump ();
    (* Transport: retransmit overdue payloads, then deliver everything
       landing this round (acknowledgements included). *)
    if faulty then begin
      retransmit_due ();
      span ~pid:Obs.Trace.transport_pid ~round:round_now
        Obs.Trace.Delivery deliver_due
    end;
    (* Receiving: drain inboxes into the engines (duplicate
       elimination happens in inject). *)
    Array.iter
      (fun p ->
        span ~pid:p.pid ~round:round_now Obs.Trace.Receiving
          (fun () -> if p.alive then drain_inbox p))
      procs;
    (* Processing: one semi-naive iteration per live processor. *)
    let any_progress = ref false in
    let produced_this_round = ref 0 in
    let round_row = Array.make nprocs 0 in
    Array.iter
      (fun p ->
        span ~pid:p.pid ~round:round_now Obs.Trace.Processing
          (fun () ->
            if p.alive && Seminaive.has_pending p.engine then begin
              let produced =
                Stats.observe_engine mx p.engine (fun () ->
                    Seminaive.step p.engine)
              in
              p.active_rounds <- p.active_rounds + 1;
              any_progress := true;
              produced_this_round :=
                !produced_this_round + List.length produced;
              round_row.(p.pid) <- List.length produced;
              collect_new p produced
            end))
      procs;
    Obs.Metrics.observe mx "round.new_tuples"
      (float_of_int !produced_this_round);
    trace := round_row :: !trace;
    incr rounds;
    (* Checkpointing: a stable-storage write at the end of the round. *)
    if faulty then begin
      match plan.Fault.checkpoint_every with
      | Some k when !rounds mod k = 0 ->
        Array.iter
          (fun p ->
            if p.alive then
              span ~pid:p.pid ~round:round_now
                Obs.Trace.Checkpointing (fun () ->
                  p.checkpoint <-
                    Some
                      (Seminaive.snapshot p.engine,
                       List.of_seq (Queue.to_seq p.outbox));
                  fc.n_checkpoints <- fc.n_checkpoints + 1))
          procs
      | _ -> ()
    end;
    (* Watchdog: outbox peaks and the store/outbox budgets, measured
       when the round's production has landed. *)
    Array.iter
      (fun p ->
        let backlog =
          Queue.length p.outbox + p.held_rows + pending_from p.pid
        in
        if backlog > p.outbox_peak_rows then begin
          p.outbox_peak_rows <- backlog;
          let bytes = ref 0 in
          Queue.iter
            (fun (_, t) -> bytes := !bytes + (Tuple.arity t * 8))
            p.outbox;
          List.iter
            (List.iter (fun (_, t) -> bytes := !bytes + (Tuple.arity t * 8)))
            p.held;
          for dst = 0 to nprocs - 1 do
            Queue.iter
              (fun (_, t, _) -> bytes := !bytes + (Tuple.arity t * 8))
              chan_pending.(p.pid).(dst)
          done;
          p.outbox_peak_bytes <- !bytes
        end;
        (match options.limits.Overload.max_outbox_rows with
         | Some limit when backlog > limit ->
           raise
             (Overload.Overload
                {
                  reason =
                    Outbox_budget { pid = p.pid; rows = backlog; limit };
                  stats = build_stats ~pooled:0 ();
                })
         | _ -> ());
        match options.limits.Overload.max_store_rows with
        | Some limit ->
          let rows = Overload.db_rows (Seminaive.store p.engine) in
          if rows > limit then
            raise
              (Overload.Overload
                 {
                   reason = Store_budget { pid = p.pid; rows; limit };
                   stats = build_stats ~pooled:0 ();
                 })
        | None -> ())
      procs;
    (* Adaptive degradation: feed each processor's worst channel demand
       (sent + still pending this round) to the dial; the new alpha
       takes effect on the next round's routing. *)
    (match options.dial with
     | Some d ->
       for src = 0 to nprocs - 1 do
         let backlog = ref 0 in
         for dst = 0 to nprocs - 1 do
           if dst <> src then begin
             let b =
               sent_this_round.(src).(dst)
               + Queue.length chan_pending.(src).(dst)
             in
             if b > !backlog then backlog := b
           end
         done;
         Overload.observe d ~pid:src ~backlog:!backlog;
         Obs.Metrics.observe mx "dial.alpha" (Overload.alpha d src)
       done
     | None -> ());
    for src = 0 to nprocs - 1 do
      for dst = 0 to nprocs - 1 do
        sent_this_round.(src).(dst) <- 0
      done
    done;
    Log.debug (fun m ->
        m "round %d: %d new tuples, %d tuples on channels so far" !rounds
          !produced_this_round
          (Array.fold_left
             (fun acc row -> Array.fold_left ( + ) acc row)
             0 channel_tuples));
    (* Termination: all processors up and idle, all channels empty, no
       payload in flight or awaiting acknowledgement. The per-processor
       part runs under a span (and therefore for every processor, no
       short-circuit) so the trace shows the test each round. *)
    let proc_busy p =
      span ~pid:p.pid ~round:round_now
        Obs.Trace.Termination_test (fun () ->
          (not (Queue.is_empty p.outbox))
          || p.held <> []
          || (not (Queue.is_empty p.inbox))
          || (not (Queue.is_empty p.local))
          || (p.alive && Seminaive.has_pending p.engine))
    in
    let any_busy =
      Array.fold_left (fun acc p -> proc_busy p || acc) false procs
    in
    let work_left =
      !any_progress || any_busy
      || Array.exists
           (fun row -> Array.exists (fun q -> not (Queue.is_empty q)) row)
           chan_pending
      || (faulty
          && (!flight_size > 0
              || Array.exists (fun p -> not p.alive) procs
              || Array.exists
                   (fun row ->
                     Array.exists (fun tbl -> Hashtbl.length tbl > 0) row)
                   unacked))
    in
    continue := work_left
  done
  in
  drive ~budget:None ();
  (* Pooling: union the @out relations under the original names over
     the current combined EDB — used by [close] and [model] alike. *)
  let assemble () =
    Router.pool ~edb rw.derived ~stored:Rewrite.out_pred
      (Array.to_list (Array.map (fun p -> Seminaive.store p.engine) procs))
  in
  (* The maintenance oracle is created on first [apply], so a plain
     [run] (open + close, no batches) never pays for it and takes the
     exact historical code path. At creation time the combined EDB is
     still the initial one, so the oracle's model matches the engines'
     pooled state. *)
  let live = ref None in
  let oracle () =
    match !live with
    | Some l -> l
    | None ->
      let l =
        Stratified.Live.create ~pushdown:options.pushdown
          ~track:options.track_changes rw.original ~edb
      in
      live := Some l;
      l
  in
  let is_derived pred = List.mem pred rw.derived in
  let apply batch =
    let change = Stratified.Live.apply (oracle ()) batch in
    let removed = change.Stratified.Live.c_removed in
    let added = change.Stratified.Live.c_added in
    if removed <> [] then begin
      (* Install the net-deletion patch. Every net-removed tuple has no
         remaining derivation in the new model, so after retraction the
         engines' stores contain only true model tuples and any later
         local firing is a sound derivation step. *)
      let retractions =
        List.concat_map
          (fun (pred, t) ->
            if is_derived pred then
              [ (Rewrite.out_pred pred, t); (Rewrite.in_pred pred, t) ]
            else [ (pred, t) ])
          removed
      in
      Array.iter
        (fun p ->
          ignore (Seminaive.retract_facts p.engine retractions);
          (* A checkpoint predating the patch would resurrect the
             retracted tuples on restore. *)
          p.checkpoint <- None)
        procs;
      (* Purge the channel layer of the removed tuples — but only of
         them: a tuple re-derived later must travel its channels again
         (the histories no longer claim the receiver has it), while
         recovery replays keep covering everything still true. *)
      List.iter
        (fun (pred, t) ->
          let key = (pred, t) in
          Array.iter
            (fun row -> Array.iter (fun tbl -> Ktbl.remove tbl key) row)
            channel_seen;
          Array.iter
            (fun row -> Array.iter (fun tbl -> Ktbl.remove tbl key) row)
            recv_seen)
        removed;
      if options.resend_all then
        Array.iter
          (fun p ->
            let keep =
              Queue.fold
                (fun acc (((r : Router.route), t) as rt) ->
                  if
                    List.exists
                      (fun (rp, t') ->
                        String.equal rp r.pred && Tuple.equal t' t)
                      removed
                  then acc
                  else rt :: acc)
                [] p.all_out
            in
            Queue.clear p.all_out;
            List.iter (fun kt -> Queue.add kt p.all_out) (List.rev keep))
          procs
    end;
    (* Keep the combined EDB current: crash recovery rebuilds base
       fragments from it and the assembly copies it. *)
    List.iter
      (fun (pred, t) ->
        if not (is_derived pred) then
          match Database.find edb pred with
          | Some rel -> ignore (Relation.remove_all rel (Tuple.equal t))
          | None -> ())
      removed;
    List.iter
      (fun (pred, t) ->
        if not (is_derived pred) then
          ignore (Database.add_fact edb pred t))
      added;
    (* Base insertions enter at the processors that host them; their
       derived consequences are re-derived — and re-sent — by the
       drive. *)
    List.iter
      (fun (pred, t) ->
        if not (is_derived pred) then
          Array.iter
            (fun p ->
              if options.replicate_base || rw.resident p.pid pred t then
                ignore (Seminaive.inject p.engine pred t))
            procs)
      added;
    drive ~budget:options.batch_rounds ();
    {
      Session.oc_added = added;
      oc_removed = removed;
      oc_summary = change.Stratified.Live.c_summary;
    }
  in
  let query pred =
    if is_derived pred then
      Array.to_list procs
      |> List.filter_map (fun p ->
             Database.find (Seminaive.store p.engine) (Rewrite.out_pred pred))
      |> Router.union
      |> Option.fold ~none:[] ~some:Relation.sorted_elements
    else
      match Database.find edb pred with
      | Some rel -> Relation.sorted_elements rel
      | None -> []
  in
  let model () = fst (assemble ()) in
  let close () =
    let answers, pooled = assemble () in
    let incr = Stats.incr_of_live !live in
    { answers; stats = build_stats ~incr ~pooled () }
  in
  Session.v ~runtime:"sim" ~apply ~query ~model ~close

let run ?config (rw : Rewrite.t) ~edb =
  Session.close (open_session ?config rw ~edb)
