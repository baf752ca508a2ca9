open Datalog

type detector = Run_config.detector =
  | Safra
  | Dijkstra_scholten

(* Messages are addressed to processors; mailboxes belong to domains,
   which demultiplex. [Data] carries a per-channel sequence number so
   the reliable-delivery layer can suppress duplicates; [Tack] is its
   transport-level acknowledgement and [Replay] its recovery broadcast.
   Control messages (tokens, detector acks, transport acks, replay
   requests, stop) ride the mailboxes directly and are never subjected
   to the fault plan — only payload [Data] is. *)
type msg =
  | Data of { src : int; dst : int; seq : int; batch : (string * Tuple.t) list }
  | Token of { dst : int; token : Safra.token }
  | Ack of { dst : int }
  | Tack of { sender : int; receiver : int; seq : int }
  | Replay of { requester : int }
  | Stop

module Ktbl = Router.Ktbl

(* Per-processor state, owned by exactly one domain. *)
type proc_state = {
  pid : int;
  mutable engine : Seminaive.t;  (* replaced on crash recovery *)
  safra : Safra.t;
  ds : Dscholten.t;
  mutable held_token : Safra.token option;
  mutable probe_outstanding : bool;  (* pid 0 only *)
  mutable received : int;
  mutable accepted : int;
  channel_seen : unit Ktbl.t array;  (* per destination *)
  (* Self-routed on the local-delivery path, not yet injected. *)
  local : (Router.route * Tuple.t) Queue.t;
  (* Channel state is stable across crashes, like the detector
     counters — only the engine is volatile. *)
  chan : Channel.t;
  seen : (int * int) Channel.Dedup.t;  (* (source, seq) *)
  mutable local_rounds : int;  (* semi-naive iterations executed *)
  mutable crashes_fired : int list;
  mutable lost_iterations : int;
  mutable lost_firings : int;
  mutable lost_new : int;
  mutable lost_dup : int;
}

(* Per-worker outcome beyond its processors, merged by [run]. *)
type worker_extra = {
  we_overload : Overload.reason option;
  we_phase_ns : (string * int) list;
  we_bulk_pushes : int;
  we_bulk_messages : int;
}

(* Wall-clock retransmission backoff (1, 2, ..., 64 ms), bounded like
   the simulated runtime's round-based one. *)
let retry = Backoff.make ~base_ms:1 ~cap_ms:64 ()

(* [engines] and [channel_seen] are the session-resident state, indexed
   by pid and owned by exactly one domain at a time: a worker reads and
   writes only its own pids' slots while running, and the parent only
   touches them between [Domain.spawn] and [Domain.join] cycles (the
   join provides the happens-before edge). A [None] engine slot is
   created and bootstrapped here; a [Some] slot is adopted as-is — its
   pending injections are drained by the ordinary step loop. *)
let worker detector plan ~capacity ~(limits : Overload.limits) ~dial ~obs ~t0
    ~pushdown (rw : Rewrite.t) ~routes mailboxes ~domain_of ~own_pids ~engines
    ~channel_seen local_edbs my_domain =
  let n = rw.nprocs in
  let faulty = not (Fault.is_none plan) in
  let credited = capacity <> None in
  (* Local delivery (the paper's Q_i case h(v(r)) = i): with no fault
     to replay and no credit to gate, a self-routed tuple bypasses the
     mailbox — and with it the termination detector, for which it is
     internal computation — and is injected at the next dispatch. *)
  let local_delivery = (not faulty) && not credited in
  let in_place = Router.in_place routes in
  let tr = obs.Obs.trace in
  let mx = obs.Obs.metrics in
  (* Per-worker wall-clock accumulator (no cross-domain sharing, so no
     lock): pooled into [Stats.phase_ns] after the join. *)
  let ptimer = Obs.Phase_timer.create ~metrics:mx () in
  let span ~pid ~round phase f =
    Obs.Phase_timer.time ptimer (Obs.Trace.phase_name phase) (fun () ->
        Obs.Trace.span tr ~pid ~round phase f)
  in
  let fc = Fault.counters () in
  let overload : Overload.reason option ref = ref None in
  let my_mailbox = mailboxes.(my_domain) in
  let send_to_pid pid msg = Mailbox.push mailboxes.(domain_of pid) msg in
  (* Send coalescing (§16): [Data] payloads are not pushed one mailbox
     operation at a time but staged in a per-destination-domain buffer
     and handed over in bulk — one lock acquisition and one consumer
     wake-up per (phase, destination) via [Mailbox.push_all]. Control
     traffic (tokens, acks, replay requests, stop) stays immediate:
     its latency bounds termination detection. The buffer is flushed
     after every dispatch drain and every step sweep, and — crucially —
     inside [announce_termination] and before any blocking drain, so a
     worker can never go to sleep (or tell others to stop) while it
     still holds undelivered tuples; a held [Data] whose send the
     detector has already counted would otherwise stall Safra's token
     forever. *)
  let ndest = Array.length mailboxes in
  let outbuf = Array.init ndest (fun _ -> Queue.create ()) in
  let bulk_pushes = ref 0 in
  let bulk_messages = ref 0 in
  let buffer_data pid msg = Queue.add msg outbuf.(domain_of pid) in
  let flush_outbuf () =
    for d = 0 to ndest - 1 do
      let q = outbuf.(d) in
      if not (Queue.is_empty q) then begin
        let msgs = List.of_seq (Queue.to_seq q) in
        Queue.clear q;
        Mailbox.push_all mailboxes.(d) msgs;
        incr bulk_pushes;
        bulk_messages := !bulk_messages + List.length msgs
      end
    done
  in
  let fresh_pids =
    List.filter (fun pid -> engines.(pid) = None) own_pids
  in
  (* One transmission attempt of a batch. The detectors count at
     sequence-number granularity: one send per new batch (attempt 0)
     here, one receive per first-seen sequence number at the receiver —
     retransmissions and duplicates are invisible to them, which keeps
     the token balance (Safra) and the deficits (Dijkstra-Scholten)
     sound over lossy channels. *)
  let transmit ~src ~safra ~ds ~dst ~seq ~attempt ~replay:_ batch =
    if attempt = 0 then
      (match detector with
       | Safra -> Safra.record_send safra
       | Dijkstra_scholten -> Dscholten.record_send ds);
    if not faulty then buffer_data dst (Data { src; dst; seq; batch })
    else begin
      let fate = Fault.fate plan ~src ~dst ~seq ~attempt in
      if fate.f_drop then fc.n_drops <- fc.n_drops + 1
      else begin
        (* Delay and reorder are no-ops here: mailbox scheduling is
           already asynchronous, so added latency changes nothing
           observable. They are only tallied. *)
        if fate.f_delay > 0 then fc.n_delays <- fc.n_delays + 1;
        if fate.f_jitter > 0 then fc.n_reorders <- fc.n_reorders + 1;
        buffer_data dst (Data { src; dst; seq; batch });
        if fate.f_dup then begin
          fc.n_dups_injected <- fc.n_dups_injected + 1;
          buffer_data dst (Data { src; dst; seq; batch })
        end
      end
    end
  in
  let procs =
    List.map
      (fun pid ->
        let safra = Safra.create () in
        let ds = Dscholten.create ~pid ~nprocs:n in
        {
          pid;
          engine =
            (match engines.(pid) with
             | Some e -> e
             | None ->
               Router.engine routes ~pushdown pid ~edb:local_edbs.(pid));
          safra;
          ds;
          held_token = None;
          probe_outstanding = false;
          received = 0;
          accepted = 0;
          channel_seen = channel_seen.(pid);
          local = Queue.create ();
          chan =
            Channel.create ~nprocs:n ~capacity ~reliable:faulty ~retry
              ~clock:Unix.gettimeofday ~metrics:mx fc
              (transmit ~src:pid ~safra ~ds);
          seen = Channel.Dedup.create ();
          local_rounds = 0;
          crashes_fired = [];
          lost_iterations = 0;
          lost_firings = 0;
          lost_new = 0;
          lost_dup = 0;
        })
      own_pids
  in
  let proc_of =
    let tbl = Hashtbl.create 8 in
    List.iter (fun p -> Hashtbl.add tbl p.pid p) procs;
    fun pid -> Hashtbl.find tbl pid
  in
  let stopped = ref false in
  let route p produced =
    span ~pid:p.pid ~round:p.local_rounds Obs.Trace.Sending
      (fun () ->
    let batches = Array.make n [] in
    List.iter
      (fun (out_name, tuple) ->
        match Router.of_out routes out_name with
        | None -> ()
        | Some r when in_place ->
          (* In place the tuple is already the engine's delta: count
             its trip on the loop channel, nothing more. *)
          if Router.travels r p.pid tuple then begin
            Channel.count_local p.chan p.pid;
            p.received <- p.received + 1;
            Obs.Metrics.incr mx "runtime.tuples_received";
            p.accepted <- p.accepted + 1
          end
        | Some r ->
          List.iter
            (fun dst ->
              if local_delivery && dst = p.pid then begin
                Channel.count_local p.chan dst;
                Queue.add (r, tuple) p.local
              end
              (* The channel history is kept only under a fault plan,
                 where a recovering processor needs it replayed;
                 fault-free, each @out tuple leaves its engine once and
                 [Router.destinations] lists each channel once. *)
              else if
                (not faulty)
                || Router.mark_new p.channel_seen.(dst) (r.pred, tuple)
              then batches.(dst) <- (r.pred, tuple) :: batches.(dst))
            (Router.destinations r p.pid tuple))
      produced;
    (* Adaptive degradation: feed the worst channel demand (this step's
       batch plus what is still deferred or in flight) to the dial. Each
       worker only observes — and the dial only writes — its own
       processors' entries. *)
    (match dial with
     | Some d ->
       let backlog = ref 0 in
       Array.iteri
         (fun dst batch ->
           if dst <> p.pid then begin
             let b = List.length batch + Channel.backlog_to p.chan dst in
             if b > !backlog then backlog := b
           end)
         batches;
       Overload.observe d ~pid:p.pid ~backlog:!backlog;
       Obs.Metrics.observe mx "dial.alpha" (Overload.alpha d p.pid)
     | None -> ());
    Array.iteri
      (fun dst batch -> Channel.send p.chan ~replay:false dst (List.rev batch))
      batches)
  in
  let announce_termination () =
    (* Any staged tuples must precede the poison pill in every queue. *)
    flush_outbuf ();
    for d = 0 to Array.length mailboxes - 1 do
      Mailbox.push mailboxes.(d) Stop
    done;
    stopped := true
  in
  (* Crash recovery: the engine is volatile and is lost; detector and
     delivery-layer state is stable. The processor rebuilds from its
     base fragment, then broadcasts a replay request — every processor
     (itself included) re-sends its channel history to the rebuilt
     engine as fresh-sequence batches. Recovery is immediate
     ([cr_down] does not apply: an absent mailbox owner would merely
     delay its own queue). *)
  let maybe_crash p =
    match Fault.crash_at plan ~pid:p.pid ~round:p.local_rounds with
    | Some c when not (List.mem c.Fault.cr_round p.crashes_fired) ->
      p.crashes_fired <- c.Fault.cr_round :: p.crashes_fired;
      fc.n_crashes <- fc.n_crashes + 1;
      let es = Seminaive.stats p.engine in
      p.lost_iterations <- p.lost_iterations + es.Seminaive.iterations;
      p.lost_firings <- p.lost_firings + es.Seminaive.firings;
      p.lost_new <- p.lost_new + es.Seminaive.new_tuples;
      p.lost_dup <- p.lost_dup + es.Seminaive.duplicate_firings;
      Obs.Trace.instant tr ~pid:p.pid ~round:p.local_rounds "crash";
      p.engine <- Router.engine routes ~pushdown p.pid ~edb:local_edbs.(p.pid);
      fc.n_recoveries <- fc.n_recoveries + 1;
      Obs.Trace.instant tr ~pid:p.pid ~round:p.local_rounds "recover";
      route p
        (Stats.observe_engine mx p.engine (fun () ->
             Seminaive.bootstrap p.engine));
      for d = 0 to Array.length mailboxes - 1 do
        Mailbox.push mailboxes.(d) (Replay { requester = p.pid })
      done
    | _ -> ()
  in
  let receive p in_name tuple =
    p.received <- p.received + 1;
    Obs.Metrics.incr mx "runtime.tuples_received";
    if Seminaive.inject p.engine in_name tuple then
      p.accepted <- p.accepted + 1
  in
  (* Self-routed tuples are injected where the mailbox is drained and
     charged to the receiving phase, as their channel would have
     been. *)
  let drain_local p =
    if not (Queue.is_empty p.local) then
      span ~pid:p.pid ~round:p.local_rounds Obs.Trace.Receiving (fun () ->
          Queue.iter
            (fun ((r : Router.route), tuple) -> receive p r.in_name tuple)
            p.local;
          Queue.clear p.local)
  in
  let dispatch = function
    | Data { src; dst; seq; batch } ->
      let p = proc_of dst in
      span ~pid:dst ~round:p.local_rounds Obs.Trace.Receiving
        (fun () ->
          (* Under a capacity the Tack doubles as the credit grant, so
             it is sent even on fault-free runs. *)
          if faulty || credited then
            send_to_pid src (Tack { sender = src; receiver = dst; seq });
          if faulty && not (Channel.Dedup.first p.seen (src, seq)) then
            fc.n_dups_suppressed <- fc.n_dups_suppressed + 1
          else begin
            (match detector with
             | Safra -> Safra.record_receive p.safra
             | Dijkstra_scholten ->
               (match Dscholten.on_data p.ds ~src with
                | `Ack_now target -> send_to_pid target (Ack { dst = target })
                | `Engaged -> ()));
            List.iter
              (fun (pred, tuple) ->
                receive p (Router.find routes pred).in_name tuple)
              batch
          end)
    | Token { dst; token } -> (proc_of dst).held_token <- Some token
    | Ack { dst } -> Dscholten.on_ack (proc_of dst).ds
    | Tack { sender; receiver; seq } ->
      Channel.ack (proc_of sender).chan ~dst:receiver ~seq
    | Replay { requester } ->
      List.iter
        (fun q ->
          let history =
            Ktbl.fold (fun key () acc -> key :: acc)
              q.channel_seen.(requester) []
          in
          Channel.send q.chan ~replay:true requester history)
        procs
    | Stop -> stopped := true
  in
  (* Returns true when some control action was taken (so the caller
     should not block yet). *)
  let passive_action p =
    match detector with
    | Safra ->
      (match p.held_token with
       | Some token when p.pid <> 0 ->
         p.held_token <- None;
         send_to_pid (p.pid - 1)
           (Token { dst = p.pid - 1; token = Safra.forward p.safra token });
         true
       | Some token ->
         p.held_token <- None;
         (match Safra.evaluate p.safra token with
          | `Terminated ->
            announce_termination ();
            true
          | `Try_again ->
            send_to_pid (n - 1)
              (Token { dst = n - 1; token = Safra.initial_token });
            true)
       | None ->
         if p.pid = 0 && not p.probe_outstanding then begin
           p.probe_outstanding <- true;
           send_to_pid (n - 1)
             (Token { dst = n - 1; token = Safra.initial_token });
           true
         end
         else false)
    | Dijkstra_scholten ->
      (match Dscholten.on_passive p.ds with
       | `Ack_parent parent ->
         send_to_pid parent (Ack { dst = parent });
         true
       | `Terminated ->
         announce_termination ();
         true
       | `Wait -> false)
  in
  (* Watchdog: on a breach, record the reason and broadcast Stop — the
     poison pill propagates cancellation; every worker then returns its
     partial results normally, so the caller can raise a structured
     [Overload] instead of hanging or dying on OOM. *)
  let check_limits () =
    if !overload = None && not (Overload.is_none limits) then begin
      (match limits.Overload.deadline with
       | Some seconds ->
         let elapsed = Unix.gettimeofday () -. t0 in
         if elapsed > seconds then begin
           overload :=
             Some (Overload.Deadline { seconds; elapsed; round = 0 });
           announce_termination ()
         end
       | None -> ());
      if !overload = None then
        List.iter
          (fun p ->
            (match limits.Overload.max_store_rows with
             | Some limit when !overload = None ->
               let rows = Overload.db_rows (Seminaive.store p.engine) in
               if rows > limit then begin
                 overload :=
                   Some (Overload.Store_budget { pid = p.pid; rows; limit });
                 announce_termination ()
               end
             | _ -> ());
            match limits.Overload.max_outbox_rows with
            | Some limit when !overload = None ->
              let rows = Channel.backlog p.chan in
              if rows > limit then begin
                overload :=
                  Some (Overload.Outbox_budget { pid = p.pid; rows; limit });
                announce_termination ()
              end
            | _ -> ())
          procs
    end
  in
  (* A blocked drain must time out whenever the worker has periodic
     duties: retransmissions under a fault plan, deadline checks under
     a wall-clock limit. *)
  let timed_drain = faulty || limits.Overload.deadline <> None in
  let note_depth msgs =
    if Obs.Metrics.enabled mx then
      Obs.Metrics.observe mx "mailbox.depth" (float_of_int (List.length msgs));
    msgs
  in
  List.iter
    (fun p ->
      if List.mem p.pid fresh_pids then begin
        route p
        (Stats.observe_engine mx p.engine (fun () ->
             Seminaive.bootstrap p.engine));
        Obs.Trace.instant tr ~pid:p.pid ~round:0 "bootstrap"
      end)
    procs;
  flush_outbuf ();
  while not !stopped do
    if faulty then
      List.iter
        (fun p ->
          span ~pid:p.pid ~round:p.local_rounds Obs.Trace.Retransmission
            (fun () -> Channel.retransmit_due p.chan))
        procs;
    check_limits ();
    List.iter dispatch (note_depth (Mailbox.drain my_mailbox));
    List.iter drain_local procs;
    (* Dispatching can stage sends (Tack-freed credit, replay
       histories, retransmissions pumped above): deliver them before
       doing local work. *)
    flush_outbuf ();
    if not !stopped then begin
      let worked = ref false in
      List.iter
        (fun p ->
          if faulty then maybe_crash p;
          if Seminaive.has_pending p.engine then begin
            worked := true;
            let produced =
              span ~pid:p.pid ~round:p.local_rounds
                Obs.Trace.Processing (fun () ->
                  Stats.observe_engine mx p.engine (fun () ->
                      Seminaive.step p.engine))
            in
            (* Routing has its own Sending span; nesting it inside
               Processing would count its time twice. *)
            route p produced;
            p.local_rounds <- p.local_rounds + 1
          end)
        procs;
      (* The per-phase flush: every owned processor has taken its step,
         so each destination receives the whole sweep's traffic as one
         delivery. *)
      flush_outbuf ();
      if (not !worked) && not !stopped then begin
        (* All owned processors idle: run control actions; if nothing
           moved, wait for messages — with a timeout when a fault plan
           is active, so the retransmission pump keeps running. A
           processor with credit-deferred output is NOT passive: its
           un-Tacked batches guarantee an incoming Tack, whose credit
           flushes the remainder — skipping the detector action here is
           what keeps Safra/Dijkstra-Scholten sound under deferral
           (nothing terminates while tuples wait for credit). *)
        let acted =
          List.fold_left
            (fun acc p ->
              if !stopped || Channel.queued p.chan > 0
                 || not (Queue.is_empty p.local)
              then acc
              else
                span ~pid:p.pid ~round:p.local_rounds
                  Obs.Trace.Termination_test (fun () -> passive_action p)
                || acc)
            false procs
        in
        if (not acted) && not !stopped then begin
          let msgs =
            if timed_drain then
              Mailbox.drain_timeout my_mailbox ~seconds:0.002
            else Mailbox.drain_blocking my_mailbox
          in
          (* A closed, empty mailbox means a peer shut the system down
             (normally or exceptionally): never stay blocked on it. *)
          if msgs = [] && Mailbox.is_closed my_mailbox then stopped := true;
          List.iter dispatch (note_depth msgs)
        end
      end
    end
  done;
  (* Stop can arrive with staged replay traffic still buffered; hand it
     over so the counters balance even on aborted runs. *)
  flush_outbuf ();
  List.iter (fun p -> engines.(p.pid) <- Some p.engine) procs;
  ( procs,
    fc,
    {
      we_overload = !overload;
      we_phase_ns = Obs.Phase_timer.totals ptimer;
      we_bulk_pushes = !bulk_pushes;
      we_bulk_messages = !bulk_messages;
    } )

let open_session ?(config = Run_config.default) (rw : Rewrite.t) ~edb =
  (* Same certificate gate as the simulator: a plan that no longer
     verifies against the program must not run. *)
  Option.iter
    (fun plan -> Plan.validate_exn ~nprocs:rw.nprocs plan rw.original)
    config.Run_config.plan;
  let detector = config.Run_config.detector in
  let domains = config.Run_config.domains in
  let fault = config.Run_config.fault in
  let capacity = config.Run_config.capacity in
  let limits = config.Run_config.limits in
  let dial = config.Run_config.dial in
  let obs = config.Run_config.obs in
  let n = rw.nprocs in
  (match capacity with
   | Some c when c < 1 ->
     invalid_arg "Domain_runtime.run: capacity must be >= 1"
   | _ -> ());
  Overload.validate limits;
  let ndomains =
    match domains with
    | Some d ->
      if d < 1 then invalid_arg "Domain_runtime.run: domains must be >= 1";
      min d n
    | None -> n
  in
  let edb = Router.base_edb rw edb in
  let domain_of pid = pid mod ndomains in
  let pushdown = config.Run_config.pushdown in
  (* In place (DESIGN.md §18) under the same condition as local
     delivery: nothing to replay, no credit to gate. *)
  let routes =
    Router.make
      ~in_place:
        (Fault.is_none fault && capacity = None && rw.communication_free)
      rw
  in
  let local_edbs = Array.init n (fun pid -> Router.build_edb rw edb pid) in
  let own_pids d =
    List.filter (fun pid -> domain_of pid = d) (List.init n Fun.id)
  in
  (* Session-resident state, alive across epochs (one epoch = one
     spawn/join cycle of the domains — the initial evaluation or one
     applied batch). *)
  let engines : Seminaive.t option array = Array.make n None in
  let channel_seen =
    Array.init n (fun _ -> Array.init n (fun _ -> Ktbl.create 64))
  in
  (* Accumulators merged after every epoch; the per-epoch crash losses
     are recovered as each worker result's excess over the surviving
     engine's cumulative counters. *)
  let fc = Fault.counters () in
  let acc_sent = Array.make_matrix n n 0 in
  let acc_received = Array.make n 0 in
  let acc_accepted = Array.make n 0 in
  let acc_lost_iterations = Array.make n 0 in
  let acc_lost_firings = Array.make n 0 in
  let acc_lost_new = Array.make n 0 in
  let acc_lost_dup = Array.make n 0 in
  let acc_outbox = Array.make n (0, 0) in  (* peak rows, bytes *)
  let acc_credit_stalls = ref 0 in
  let acc_peak_in_flight = ref 0 in
  let acc_phase_ns = ref [] in
  let acc_mailbox_drops = ref 0 in
  let acc_bulk_pushes = ref 0 in
  let acc_bulk_messages = ref 0 in
  (* Lazily created maintenance oracle, as in the simulator: a plain
     [run] never pays for it. *)
  let live = ref None in
  let oracle () =
    match !live with
    | Some l -> l
    | None ->
      let l =
        Stratified.Live.create ~pushdown
          ~track:config.Run_config.track_changes rw.original ~edb
      in
      live := Some l;
      l
  in
  let build_stats ~pooled () : Stats.t =
    let rounds = ref 0 in
    let per_proc =
      Array.init n (fun pid ->
          let e = Option.get engines.(pid) in
          let es = Seminaive.stats e in
          let db = Seminaive.store e in
          let iterations =
            es.Seminaive.iterations + acc_lost_iterations.(pid)
          in
          if iterations > !rounds then rounds := iterations;
          {
            Stats.pid;
            firings = es.Seminaive.firings + acc_lost_firings.(pid);
            new_tuples = es.Seminaive.new_tuples + acc_lost_new.(pid);
            duplicate_firings =
              es.Seminaive.duplicate_firings + acc_lost_dup.(pid);
            iterations;
            tuples_sent = Array.fold_left ( + ) 0 acc_sent.(pid);
            tuples_received = acc_received.(pid);
            tuples_accepted = acc_accepted.(pid);
            base_resident = Database.total_tuples local_edbs.(pid);
            active_rounds = iterations;
            store_rows = Overload.db_rows db;
            store_bytes = Overload.db_bytes db;
            outbox_peak_rows = fst acc_outbox.(pid);
            outbox_peak_bytes = snd acc_outbox.(pid);
          })
    in
    {
      incr = Stats.incr_of_live !live;
      nprocs = n;
      rounds = !rounds;
      per_proc;
      channel_tuples = Array.init n (fun pid -> Array.copy acc_sent.(pid));
      pooled_tuples = pooled;
      trace = [];
      faults =
        Fault.freeze fc ~mailbox_drops:!acc_mailbox_drops
          ~credit_stalls:!acc_credit_stalls
          ~alpha_raises:
            (match dial with Some d -> Overload.raises d | None -> 0)
          ~alpha_decays:
            (match dial with Some d -> Overload.decays d | None -> 0);
      transport = Stats.no_transport;
      peak_in_flight = !acc_peak_in_flight;
      phase_ns = !acc_phase_ns;
      comms =
        {
          Stats.bulk_pushes = !acc_bulk_pushes;
          bulk_messages = !acc_bulk_messages;
        };
    }
  in
  let stores () =
    Array.to_list engines |> List.filter_map (Option.map Seminaive.store)
  in
  let assemble () =
    Router.pool ~edb rw.derived ~stored:Rewrite.out_pred (stores ())
  in
  let epoch () =
    (* The deadline runs per epoch, not per session: an idle session
       must not blow the watchdog while the client thinks. *)
    let t0 = Unix.gettimeofday () in
    let mailboxes = Array.init ndomains (fun _ -> Mailbox.create ()) in
    let spawned =
      Array.init ndomains (fun d ->
          Domain.spawn (fun () ->
              try
                worker detector fault ~capacity ~limits ~dial ~obs ~t0
                  ~pushdown rw ~routes mailboxes ~domain_of
                  ~own_pids:(own_pids d) ~engines ~channel_seen local_edbs d
              with e ->
                (* Poison-pill shutdown: wake every peer blocked in its
                   mailbox before propagating, so one crashing domain
                   cannot leave the others stuck in [Condition.wait]. *)
                Array.iter Mailbox.close mailboxes;
                raise e))
    in
    let joined = Array.to_list spawned |> List.map Domain.join in
    List.iter
      (fun p ->
        let pid = p.pid in
        acc_lost_iterations.(pid) <-
          acc_lost_iterations.(pid) + p.lost_iterations;
        acc_lost_firings.(pid) <- acc_lost_firings.(pid) + p.lost_firings;
        acc_lost_new.(pid) <- acc_lost_new.(pid) + p.lost_new;
        acc_lost_dup.(pid) <- acc_lost_dup.(pid) + p.lost_dup;
        Array.iteri
          (fun dst v -> acc_sent.(pid).(dst) <- acc_sent.(pid).(dst) + v)
          (Channel.sent_row p.chan);
        acc_received.(pid) <- acc_received.(pid) + p.received;
        acc_accepted.(pid) <- acc_accepted.(pid) + p.accepted;
        let peak = Channel.outbox_peak p.chan in
        if fst peak > fst acc_outbox.(pid) then acc_outbox.(pid) <- peak;
        acc_credit_stalls := !acc_credit_stalls + Channel.credit_stalls p.chan;
        acc_peak_in_flight :=
          max !acc_peak_in_flight (Channel.peak_in_flight p.chan))
      (List.concat_map (fun (ps, _, _) -> ps) joined);
    List.iter
      (fun (_, c, _) ->
        fc.Fault.n_drops <- fc.Fault.n_drops + c.Fault.n_drops;
        fc.n_dups_injected <- fc.n_dups_injected + c.Fault.n_dups_injected;
        fc.n_dups_suppressed <-
          fc.n_dups_suppressed + c.Fault.n_dups_suppressed;
        fc.n_delays <- fc.n_delays + c.Fault.n_delays;
        fc.n_reorders <- fc.n_reorders + c.Fault.n_reorders;
        fc.n_retransmits <- fc.n_retransmits + c.Fault.n_retransmits;
        fc.n_acks <- fc.n_acks + c.Fault.n_acks;
        fc.n_crashes <- fc.n_crashes + c.Fault.n_crashes;
        fc.n_recoveries <- fc.n_recoveries + c.Fault.n_recoveries;
        fc.n_replayed <- fc.n_replayed + c.Fault.n_replayed;
        fc.n_checkpoints <- fc.n_checkpoints + c.Fault.n_checkpoints;
        fc.n_restores <- fc.n_restores + c.Fault.n_restores)
      joined;
    let extras = List.map (fun (_, _, e) -> e) joined in
    acc_phase_ns :=
      List.fold_left
        (fun acc e -> Obs.Phase_timer.merge_totals acc e.we_phase_ns)
        !acc_phase_ns extras;
    acc_mailbox_drops :=
      Array.fold_left
        (fun acc mb -> acc + Mailbox.dropped mb)
        !acc_mailbox_drops mailboxes;
    acc_bulk_pushes :=
      List.fold_left (fun acc e -> acc + e.we_bulk_pushes) !acc_bulk_pushes
        extras;
    acc_bulk_messages :=
      List.fold_left
        (fun acc e -> acc + e.we_bulk_messages)
        !acc_bulk_messages extras;
    (* The first domain's breach wins when several workers tripped at
       once. *)
    let overload_reason =
      List.fold_left
        (fun acc e ->
          match acc, e.we_overload with
          | Some _, _ -> acc
          | None, r -> r)
        None extras
    in
    match overload_reason with
    | Some reason ->
      let _, pooled = assemble () in
      raise (Overload.Overload { reason; stats = build_stats ~pooled () })
    | None -> ()
  in
  epoch ();
  let is_derived pred = List.mem pred rw.derived in
  let apply batch =
    let change = Stratified.Live.apply (oracle ()) batch in
    let removed = change.Stratified.Live.c_removed in
    let added = change.Stratified.Live.c_added in
    if removed = [] && added = [] then
      {
        Session.oc_added = [];
        oc_removed = [];
        oc_summary = change.Stratified.Live.c_summary;
      }
    else begin
      (* Patch the resident state in the parent: no domain is running
         between epochs, so the engine and channel-history slots are
         exclusively ours here. *)
      if removed <> [] then begin
        let retractions =
          List.concat_map
            (fun (pred, t) ->
              if is_derived pred then
                [ (Rewrite.out_pred pred, t); (Rewrite.in_pred pred, t) ]
              else [ (pred, t) ])
            removed
        in
        Array.iter
          (function
            | None -> ()
            | Some e -> ignore (Seminaive.retract_facts e retractions))
          engines;
        List.iter
          (fun (pred, t) ->
            let key = (pred, t) in
            Array.iter
              (fun row -> Array.iter (fun tbl -> Ktbl.remove tbl key) row)
              channel_seen)
          removed
      end;
      (* Base deletions leave the combined EDB and every base fragment
         (crash recovery rebuilds from the fragments). *)
      List.iter
        (fun (pred, t) ->
          if not (is_derived pred) then begin
            (match Database.find edb pred with
             | Some rel -> ignore (Relation.remove_all rel (Tuple.equal t))
             | None -> ());
            Array.iter
              (fun ldb ->
                match Database.find ldb pred with
                | Some rel ->
                  ignore (Relation.remove_all rel (Tuple.equal t))
                | None -> ())
              local_edbs
          end)
        removed;
      (* Base insertions land in the fragments of the processors that
         host them and are injected as pending work; the next epoch's
         step loop derives and routes the consequences. *)
      List.iter
        (fun (pred, t) ->
          if not (is_derived pred) then begin
            ignore (Database.add_fact edb pred t);
            for pid = 0 to n - 1 do
              if rw.resident pid pred t then begin
                ignore (Database.add_fact local_edbs.(pid) pred t);
                match engines.(pid) with
                | Some e -> ignore (Seminaive.inject e pred t)
                | None -> ()
              end
            done
          end)
        added;
      epoch ();
      {
        Session.oc_added = added;
        oc_removed = removed;
        oc_summary = change.Stratified.Live.c_summary;
      }
    end
  in
  let query pred =
    if is_derived pred then
      stores ()
      |> List.filter_map (fun db -> Database.find db (Rewrite.out_pred pred))
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
    { Session.answers; stats = build_stats ~pooled () }
  in
  Session.v ~runtime:"domains" ~apply ~query ~model ~close

let run ?config (rw : Rewrite.t) ~edb =
  Session.close (open_session ?config rw ~edb)
