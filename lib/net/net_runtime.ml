open Datalog
module Fault = Pardatalog.Fault
module Stats = Pardatalog.Stats
module Overload = Pardatalog.Overload
module Rewrite = Pardatalog.Rewrite
module Router = Pardatalog.Router
module Run_config = Pardatalog.Run_config
module Strategy = Pardatalog.Strategy
module Plan = Pardatalog.Plan
module Backoff = Pardatalog.Backoff
module Channel = Pardatalog.Channel
module Sim_runtime = Pardatalog.Sim_runtime
module Session = Pardatalog.Session

let log_src = Logs.Src.create "pardatalog.net" ~doc:"Multi-process runtime"

module Log = (val Logs.src_log log_src : Logs.LOG)

let debug = (try Sys.getenv "DATALOGP_NET_DEBUG" <> "" with Not_found -> false)

let dbg fmt =
  if debug then Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* ------------------------------------------------------------------ *)
(* Addresses                                                          *)

type addr = Aunix of string | Atcp of int

let parse_addr s =
  match String.index_opt s ':' with
  | Some i ->
    let kind = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    (match kind with
     | "unix" -> Aunix rest
     | "tcp" -> Atcp (int_of_string rest)
     | _ -> invalid_arg ("Net_runtime: bad address " ^ s))
  | None -> invalid_arg ("Net_runtime: bad address " ^ s)

let addr_to_string = function
  | Aunix p -> "unix:" ^ p
  | Atcp port -> "tcp:" ^ string_of_int port

let sockaddr_of = function
  | Aunix p -> Unix.ADDR_UNIX p
  | Atcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let socket_of = function
  | Aunix _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  | Atcp _ ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
    fd

(* ------------------------------------------------------------------ *)
(* Shared pieces                                                      *)

module Ktbl = Router.Ktbl

(* Every worker rebuilds the rewrite from the program text and the
   scheme spec. Determinism note: symbol routing hashes depend on
   interning order, so workers intern identically — the program text
   first, then the EDB in wire order — and derived tuples cannot
   introduce new symbols. *)
let build_rewrite spec ~seed ~nprocs program =
  let r =
    match (spec : Wire.scheme_spec) with
    | Spec_q { ve; vr } -> Strategy.hash_q ~seed ~nprocs ~ve ~vr program
    | Spec_nocomm -> Strategy.no_communication ~seed ~nprocs program
    | Spec_example3 -> Strategy.example3 ~seed ~nprocs program
    | Spec_wolfson -> Strategy.wolfson_redundant ~seed ~nprocs program
    | Spec_tradeoff alpha -> Strategy.tradeoff ~seed ~nprocs ~alpha program
    | Spec_general -> Strategy.general ~seed ~nprocs program
    | Spec_plan json ->
      (match Plan.of_json json with
       | Error r -> Error (Format.asprintf "%a" Plan.pp_reject r)
       | Ok plan ->
         (match Plan.to_rewrite plan program with
          | Error r -> Error (Format.asprintf "%a" Plan.pp_reject r)
          | Ok rw -> Ok rw))
  in
  match r with
  | Ok rw -> rw
  | Error e -> invalid_arg ("Net_runtime: scheme rebuild failed: " ^ e)

let rec waitpid_retry flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_retry flags pid

let now () = Unix.gettimeofday ()

(* ================================================================== *)
(* Worker                                                             *)
(* ================================================================== *)

exception Worker_exit of int

type wproc = {
  pid : int;
  mutable engine : Seminaive.t;
  mutable local_rounds : int;
  mutable last_ckpt : int;
  (* Resident base tuples; session updates adjust it. *)
  mutable base_resident : int;
  channel_seen : unit Ktbl.t array;
  chan : Channel.t;
  (* (src pid, src incarnation, seq) — the incarnation in the key makes
     sequence reuse by a restarted peer harmless. *)
  seen : (int * int * int) Channel.Dedup.t;
  (* Receipts not yet shipped in a checkpoint: checkpoints carry only
     this delta and the coordinator accumulates. *)
  mutable seen_new : (int * int * int) list;
  mutable received : int;
  mutable accepted : int;
  mutable crashes_fired : int list;
  (* Derived-store growth since the last checkpoint (bootstrap and
     step products, accepted wire injections): the next checkpoint
     ships this instead of scanning the whole store. *)
  mutable ckpt_acc : (string * Tuple.t) list;
  (* Derived tuples already shipped in a checkpoint (or restored from
     one): checkpoints carry only the delta, the coordinator
     accumulates. *)
  dumped : unit Ktbl.t;
}

let snap_of ~store p : Wire.psnap =
  let es = Seminaive.stats p.engine in
  let outbox_rows, outbox_bytes = Channel.outbox_peak p.chan in
  let rows, bytes =
    if store then
      let db = Seminaive.store p.engine in
      (Overload.db_rows db, Overload.db_bytes db)
    else (0, 0)
  in
  {
    ps_pid = p.pid;
    ps_iterations = es.Seminaive.iterations;
    ps_firings = es.Seminaive.firings;
    ps_new = es.Seminaive.new_tuples;
    ps_dup = es.Seminaive.duplicate_firings;
    ps_sent_row = Array.copy (Channel.sent_row p.chan);
    ps_received = p.received;
    ps_accepted = p.accepted;
    ps_base_resident = p.base_resident;
    ps_store_rows = rows;
    ps_store_bytes = bytes;
    ps_outbox_rows = outbox_rows;
    ps_outbox_bytes = outbox_bytes;
    ps_rounds = p.local_rounds;
  }

(* All derived (@in/@out) tuples of the engine: the checkpoint
   payload. *)
let worker_body ~addr ~worker ~inc =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse_addr addr in
  (* Dial with jittered exponential backoff; the attempt count rides
     the Hello so the coordinator can report reconnects. *)
  let dial = Backoff.make ~base_ms:2 ~cap_ms:200 () in
  let attempts = ref 0 in
  let sock =
    let fd = ref None in
    while !fd = None do
      let s = socket_of a in
      (match Unix.connect s (sockaddr_of a) with
       | () -> fd := Some s
       | exception
           Unix.Unix_error
             ( ( Unix.ECONNREFUSED | Unix.ENOENT | Unix.ECONNRESET
               | Unix.EAGAIN | Unix.EINTR ),
               _,
               _ ) ->
         Unix.close s;
         incr attempts;
         if !attempts > 500 then raise (Worker_exit 3);
         Backoff.sleep dial !attempts);
    done;
    Option.get !fd
  in
  (* Worker output is queued and flushed nonblocking: a full socket
     buffer must never block the worker away from reading frames or
     heartbeating, or the failure detector mistakes a busy worker
     under backpressure for a dead one and the supervisor's SIGKILL
     turns congestion into a restart storm. *)
  let outq : string Queue.t = Queue.create () in
  let out_off = ref 0 in
  let write frame = Queue.push (Wire.encode frame) outq in
  let flush_out () =
    try
      while not (Queue.is_empty outq) do
        let s = Queue.peek outq in
        let n =
          Unix.write_substring sock s !out_off (String.length s - !out_off)
        in
        out_off := !out_off + n;
        if !out_off = String.length s then begin
          ignore (Queue.pop outq);
          out_off := 0
        end
      done
    with
    | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
      raise (Worker_exit 3)
  in
  (* Drain everything before an exit or a self-SIGKILL, so Done, Bye
     and Crashing frames reach the coordinator. *)
  let flush_blocking () =
    while not (Queue.is_empty outq) do
      (match Unix.select [] [ sock ] [] 1.0 with
       | _, _ :: _, _ -> flush_out ()
       | _ -> ()
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done
  in
  (try ignore (Wire.write_frame sock (Wire.Hello { worker; inc; attempts = !attempts }))
   with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
     -> raise (Worker_exit 3));
  dbg "w%d: hello sent (inc %d)" worker inc;
  let reader = Wire.reader () in
  (* The coordinator speaks Config first; frames decoded in the same
     read are queued for the main loop. *)
  let rec await_config () =
    match Wire.feed reader sock with
    | `Eof -> raise (Worker_exit 3)
    | `Again -> await_config ()
    | `Frames ([], _) -> await_config ()
    | `Frames (Wire.Config cf :: rest, _) -> (cf, rest)
    | `Frames (_, _) -> raise (Worker_exit 2)
  in
  let cf, early = await_config () in
  dbg "w%d: config received (%d early frames)" worker (List.length early);
  Unix.set_nonblock sock;
  let plan = cf.cf_fault in
  let faulty = (not (Fault.is_none plan)) || cf.cf_partition > 0.0 in
  (* Retransmission is only useful when the shim can actually LOSE a
     payload frame (drops or partitions). Sockets themselves are
     lossless, duplication and delay resolve by themselves, frames
     lost to a worker death are re-driven by the coordinator's history
     replay, and acks originate at the coordinator — which cannot die
     — so a peer's death cannot strand an [unacked] entry either.
     Retransmitting on a crash-only plan just amplifies congestion. *)
  let lossy = plan.Fault.drop > 0.0 || cf.cf_partition > 0.0 in
  let ckpt_on = plan.Fault.checkpoint_every <> None in
  let capacity = cf.cf_capacity in
  let limits = cf.cf_limits in
  let nprocs = cf.cf_nprocs in
  let program =
    match Parser.program cf.cf_program with
    | Ok p -> p
    | Error e ->
      Log.err (fun m -> m "worker %d: bad program: %a" worker Parser.pp_error e);
      raise (Worker_exit 2)
  in
  let edb = Database.create () in
  List.iter (fun wr -> ignore (Wire.add_wrel edb wr)) cf.cf_edb;
  let rw = build_rewrite cf.cf_spec ~seed:cf.cf_seed ~nprocs program in
  let routes = Router.make rw in
  let is_out name = Option.is_some (Router.of_out routes name) in
  let own_pids =
    List.filter (fun pid -> pid mod cf.cf_procs = worker)
      (List.init nprocs Fun.id)
  in
  let fc = Fault.counters () in
  (* The first retransmission waits well past a loaded coordinator's
     ack round-trip, so a fault-free run never retransmits; later
     attempts back off exponentially. *)
  let retry = Backoff.make ~base_ms:20 ~cap_ms:160 () in
  let transmit ~src ~dst ~seq ~attempt ~replay batch =
    write
      (Wire.Data
         { src; dst; inc; seq; attempt; replay; batch = Wire.of_batch batch })
  in
  let procs =
    List.map
      (fun pid ->
        let local_edb = Router.build_edb rw edb pid in
        {
          pid;
          engine =
            Seminaive.create ~pushdown:cf.cf_pushdown rw.programs.(pid)
              ~edb:local_edb;
          local_rounds = 0;
          last_ckpt = 0;
          base_resident = Database.total_tuples local_edb;
          channel_seen = Array.init nprocs (fun _ -> Ktbl.create 64);
          chan =
            Channel.create ~nprocs ~capacity ~reliable:faulty ~retry
              ~clock:now fc (transmit ~src:pid);
          seen = Channel.Dedup.create ();
          seen_new = [];
          received = 0;
          accepted = 0;
          crashes_fired =
            Option.value ~default:[] (List.assoc_opt pid cf.cf_crashes_done);
          ckpt_acc = [];
          dumped = Ktbl.create 256;
        })
      own_pids
  in
  let proc_of =
    let tbl = Hashtbl.create 8 in
    List.iter (fun p -> Hashtbl.add tbl p.pid p) procs;
    fun pid -> Hashtbl.find tbl pid
  in
  let breached = ref false in
  let frames_received = ref 0 in
  let route ~replay p produced =
    let batches = Array.make nprocs [] in
    (* The channel history stays on even fault-free: a worker may be
       SIGKILLed at any moment, and its restart replays from it. *)
    List.iter
      (fun (out_name, tuple) ->
        match Router.of_out routes out_name with
        | None -> ()
        | Some r ->
          List.iter
            (fun dst ->
              if Router.mark_new p.channel_seen.(dst) (r.pred, tuple) then
                batches.(dst) <- (r.pred, tuple) :: batches.(dst))
            (Router.destinations r p.pid tuple))
      produced;
    Array.iteri
      (fun dst batch -> Channel.send p.chan ~replay dst (List.rev batch))
      batches
  in
  (* A scheduled crash is a genuine SIGKILL: flush a courtesy notice
     carrying the counters that die with the process, then kill
     ourselves. The coordinator records the fired round so the
     restarted worker does not re-fire it. *)
  let maybe_crash p =
    match Fault.crash_at plan ~pid:p.pid ~round:p.local_rounds with
    | Some c when not (List.mem c.Fault.cr_round p.crashes_fired) ->
      p.crashes_fired <- c.Fault.cr_round :: p.crashes_fired;
      write
        (Wire.Crashing
           {
             pid = p.pid;
             round = c.Fault.cr_round;
             snaps = List.map (snap_of ~store:false) procs;
           });
      flush_blocking ();
      Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ()
  in
  let maybe_checkpoint p =
    match plan.Fault.checkpoint_every with
    | Some k when p.local_rounds > p.last_ckpt && p.local_rounds mod k = 0 ->
      p.last_ckpt <- p.local_rounds;
      fc.Fault.n_checkpoints <- fc.Fault.n_checkpoints + 1;
      (* Ship only the derived tuples the coordinator has not seen in
         an earlier checkpoint of this state: a full dump every few
         rounds is O(rounds x store) on the wire and congests the
         coordinator into false failure detections. [ckpt_acc] is the
         store growth since the last checkpoint, so neither the dump
         nor this filter ever rescans the store. *)
      let delta =
        let acc = p.ckpt_acc in
        p.ckpt_acc <- [];
        List.filter (Router.mark_new p.dumped) acc
      in
      (* Receipts are deltas for the same reason as the tuples: the
         full table is O(frames) and would be re-marshalled on every
         checkpoint. *)
      let seen_delta = p.seen_new in
      p.seen_new <- [];
      write
        (Wire.Checkpoint
           {
             pid = p.pid;
             inc;
             round = p.local_rounds;
             tuples = Wire.of_batch delta;
             seen = seen_delta;
           })
    | _ -> ()
  in
  let check_limits p =
    if not !breached then begin
      (match limits.Overload.max_store_rows with
       | Some lim ->
         let rows = Overload.db_rows (Seminaive.store p.engine) in
         if rows > lim then begin
           breached := true;
           write
             (Wire.Breach
                { reason = Overload.Store_budget { pid = p.pid; rows; limit = lim } })
         end
       | None -> ());
      match limits.Overload.max_outbox_rows with
      | Some lim when not !breached ->
        let rows = Channel.backlog p.chan in
        if rows > lim then begin
          breached := true;
          write
            (Wire.Breach
               {
                 reason =
                   Overload.Outbox_budget { pid = p.pid; rows; limit = lim };
               })
        end
      | _ -> ()
    end
  in
  (* Record derived-store growth for the next checkpoint delta —
     every insertion flows through here or [accept_batch], so a scan
     of the whole store at checkpoint time is never needed. *)
  let ckpt_note p produced =
    if ckpt_on then
      List.iter
        (fun ((name, _) as nt) ->
          if is_out name then p.ckpt_acc <- nt :: p.ckpt_acc)
        produced
  in
  let accept_batch p batch =
    List.iter
      (fun (pred, tuple) ->
        p.received <- p.received + 1;
        let ip = (Router.find routes pred).in_name in
        if Seminaive.inject p.engine ip tuple then begin
          p.accepted <- p.accepted + 1;
          if ckpt_on then p.ckpt_acc <- (ip, tuple) :: p.ckpt_acc
        end)
      (Wire.to_batch batch)
  in
  (* Restore from checkpoint dumps: a fresh engine over the base
     fragment, every dumped derived tuple injected (so its
     consequences re-derive), and — because [step] never returns
     injected tuples — the dumped @out tuples re-routed explicitly
     with [replay] marking (receivers dedup by content). *)
  let restores =
    List.filter (fun (r : Wire.restore) -> List.mem_assoc r.rs_pid
                    (List.map (fun p -> (p.pid, ())) procs))
      cf.cf_restores
  in
  let injected = ref 0 in
  List.iter
    (fun (r : Wire.restore) ->
      let p = proc_of r.rs_pid in
      p.local_rounds <- r.rs_round;
      p.last_ckpt <- r.rs_round;
      List.iter
        (fun (pred, t) ->
          ignore (Seminaive.inject p.engine pred t);
          (* These tuples are already at the coordinator; future
             checkpoints ship only what this incarnation adds. *)
          Ktbl.replace p.dumped (pred, t) ();
          incr injected;
          (* A large restore must not look like death to the failure
             detector: keep heartbeats flowing while injecting. *)
          if !injected land 2047 = 0 then begin
            write
              (Wire.Heartbeat
                 { worker; inc; snaps = List.map (snap_of ~store:false) procs });
            flush_out ()
          end)
        (Wire.to_batch r.rs_tuples))
    restores;
  List.iter
    (fun p ->
      let produced = Seminaive.bootstrap p.engine in
      ckpt_note p produced;
      route ~replay:false p produced)
    procs;
  List.iter
    (fun (r : Wire.restore) ->
      let p = proc_of r.rs_pid in
      let outs =
        List.filter (fun (pred, _) -> is_out pred)
          (Wire.to_batch r.rs_tuples)
      in
      route ~replay:true p outs)
    restores;
  let all_idle () =
    List.for_all
      (fun p ->
        (not (Seminaive.has_pending p.engine)) && Channel.idle p.chan)
      procs
  in
  let answers_of p =
    let db = Seminaive.store p.engine in
    List.filter_map
      (fun pred ->
        match Database.find db (Rewrite.out_pred pred) with
        | None -> None
        | Some rel ->
          Some
            {
              Wire.wr_pred = pred;
              wr_arity = Relation.arity rel;
              wr_tuples =
                List.rev
                  (Relation.fold (fun t acc -> Wire.of_tuple t :: acc) rel []);
            })
      rw.derived
  in
  let handle frame =
    incr frames_received;
    match (frame : Wire.frame) with
    | Data { src; dst; inc = sinc; seq; attempt = _; replay = _; batch } ->
      (* No ack here: the coordinator acks on receipt (its replay
         history guarantees delivery), so an ack can never die with a
         destination worker. *)
      let p = proc_of dst in
      if faulty && not (Channel.Dedup.first p.seen (src, sinc, seq)) then
        fc.Fault.n_dups_suppressed <- fc.Fault.n_dups_suppressed + 1
      else begin
        if faulty then p.seen_new <- (src, sinc, seq) :: p.seen_new;
        accept_batch p batch
      end
    | Tack { src; dst; inc = tinc; seq } ->
      (* [src] is our processor: the ack of [Data src->dst seq]. Acks
         addressed to a previous incarnation are stale. *)
      if tinc = inc then Channel.ack (proc_of src).chan ~dst ~seq
    | Inject { dst; batch } -> accept_batch (proc_of dst) batch
    | Patch { dels } ->
      (* Net deletions of a session batch. The coordinator sends this
         only between drives (after a passed probe), so every engine
         is quiescent and [retract_facts] is legal. A net-removed
         tuple has no remaining derivation in the new model, so
         removing it from every store is sound — re-derivation after a
         later re-insertion flows through the ordinary step loop. *)
      let dels = Wire.to_batch dels in
      let derived_dels, base_dels =
        List.partition (fun (pred, _) -> List.mem pred rw.derived) dels
      in
      let derived_keys =
        List.concat_map
          (fun (pred, t) ->
            [ (Rewrite.out_pred pred, t); (Rewrite.in_pred pred, t) ])
          derived_dels
      in
      List.iter
        (fun p ->
          ignore (Seminaive.retract_facts p.engine derived_keys);
          let nbase = Seminaive.retract_facts p.engine base_dels in
          p.base_resident <- p.base_resident - nbase;
          (* Purge the channel-dedup and checkpoint-cover tables of
             exactly the removed tuples: a re-derived tuple must
             travel its channels (and enter a checkpoint) again, while
             everything still true stays covered. *)
          List.iter
            (fun (pred, t) ->
              Array.iter (fun tbl -> Ktbl.remove tbl (pred, t)) p.channel_seen;
              Ktbl.remove p.dumped (Rewrite.out_pred pred, t);
              Ktbl.remove p.dumped (Rewrite.in_pred pred, t))
            derived_dels;
          if p.ckpt_acc <> [] then
            p.ckpt_acc <-
              List.filter
                (fun (name, t) ->
                  not
                    (List.exists
                       (fun (rp, rt) ->
                         String.equal rp name && Tuple.equal rt t)
                       derived_keys))
                p.ckpt_acc)
        procs
    | Update { dst; batch } ->
      (* Net base insertions of a session batch: pending work for the
         engines hosting them; consequences derive — and route — in
         the ordinary step loop. [inject] discards known tuples, so a
         redelivery (e.g. held frames replayed to a restarted worker
         already rebuilt from the updated EDB) changes nothing. *)
      let p = proc_of dst in
      List.iter
        (fun (pred, t) ->
          if Seminaive.inject p.engine pred t then
            p.base_resident <- p.base_resident + 1)
        (Wire.to_batch batch)
    | Collect { gen } ->
      (* Session-mode end of drive: report every processor's answers
         and keep running. Global quiescence is already established
         (the coordinator collects only after a passed probe), so the
         engines are at the global fixpoint as-is. *)
      dbg "w%d: collect gen=%d" worker gen;
      List.iter
        (fun p ->
          write
            (Wire.Model
               {
                 gen;
                 pid = p.pid;
                 snap = snap_of ~store:true p;
                 answers = answers_of p;
               }))
        procs
    | Probe { epoch } ->
      dbg "w%d: probe %d -> idle=%b fr=%d" worker epoch (all_idle ())
        !frames_received;
      write
        (Wire.Status
           {
             worker;
             inc;
             epoch;
             idle = all_idle ();
             frames_received = !frames_received;
           })
    | Stop { finish } ->
      dbg "w%d: stop finish=%b" worker finish;
      (* At a normal stop global quiescence is already established, so
         running each engine to its local fixpoint without routing only
         re-derives tuples whose routed copies were delivered long
         ago. An overload stop reports the partial state as-is. *)
      if finish then
        List.iter (fun p -> Seminaive.run_to_fixpoint p.engine) procs;
      List.iter
        (fun p ->
          write
            (Wire.Done
               {
                 pid = p.pid;
                 inc;
                 snap = snap_of ~store:true p;
                 answers = answers_of p;
               }))
        procs;
      write
        (Wire.Bye
           {
             worker;
             inc;
             faults = Fault.freeze ?mailbox_drops:None fc;
             credit_stalls =
               List.fold_left
                 (fun acc p -> acc + Channel.credit_stalls p.chan) 0 procs;
             peak_in_flight =
               List.fold_left
                 (fun acc p -> max acc (Channel.peak_in_flight p.chan))
                 0 procs;
           });
      flush_blocking ();
      raise (Worker_exit 0)
    | Hello _ | Config _ | Status _ | Heartbeat _ | Checkpoint _
    | Crashing _ | Breach _ | Done _ | Bye _ | Model _ ->
      ()
  in
  let hb_s = float_of_int (max 1 cf.cf_hb_ms) /. 1000. in
  let last_hb = ref 0.0 in
  let maybe_heartbeat () =
    let t = now () in
    if t -. !last_hb >= hb_s then begin
      last_hb := t;
      write
        (Wire.Heartbeat
           { worker; inc; snaps = List.map (snap_of ~store:false) procs })
    end
  in
  let step_engines () =
    if not !breached then
      List.iter
        (fun p ->
          maybe_crash p;
          if Seminaive.has_pending p.engine then begin
            let produced = Seminaive.step p.engine in
            p.local_rounds <- p.local_rounds + 1;
            ckpt_note p produced;
            route ~replay:false p produced;
            maybe_checkpoint p;
            check_limits p
          end)
        procs
  in
  List.iter handle early;
  dbg "w%d: setup done, %d own pids" worker (List.length procs);
  maybe_heartbeat ();
  while true do
    let busy =
      (not !breached)
      && List.exists (fun p -> Seminaive.has_pending p.engine) procs
    in
    let timeout = if busy then 0.0 else 0.005 in
    let wds = if Queue.is_empty outq then [] else [ sock ] in
    (match Unix.select [ sock ] wds [] timeout with
     | rds, wrs, _ ->
       if wrs <> [] then flush_out ();
       if rds <> [] then (
         match Wire.feed reader sock with
         | `Eof -> raise (Worker_exit 3)
         | `Again -> ()
         | `Frames (fs, _) -> List.iter handle fs)
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if lossy then List.iter (fun p -> Channel.retransmit_due p.chan) procs;
    step_engines ();
    maybe_heartbeat ();
    flush_out ()
  done;
  assert false

let worker_main ~addr ~worker ~inc =
  match worker_body ~addr ~worker ~inc with
  | _ -> 0
  | exception Worker_exit c -> c
  | exception e ->
    Printf.eprintf "datalogp worker %d: %s\n%!" worker (Printexc.to_string e);
    2

(* ================================================================== *)
(* Coordinator                                                        *)
(* ================================================================== *)

type spawn = Fork | Exec of string

type outq = { oq : string Queue.t; mutable oq_off : int }

type slot = {
  s_id : int;
  mutable s_os_pid : int;  (* 0 = no live process *)
  mutable s_inc : int;  (* incarnation expected on the next Hello *)
  mutable s_fd : Unix.file_descr option;
  mutable s_reader : Wire.reader;
  s_out : outq;
  mutable s_hold : Wire.frame list;  (* reversed; redelivered on reconfig *)
  mutable s_configured : bool;
  mutable s_delivered : int;  (* frames enqueued since Config *)
  mutable s_last_heard : float;
  mutable s_miss_reported : int;
  mutable s_restart_at : float option;
  mutable s_restarts : int;
  mutable s_status : (int * bool * int) option;  (* epoch, idle, received *)
  mutable s_stop_sent : bool;
  mutable s_last_snaps : Wire.psnap list;
}

(* Work that died with a worker incarnation, folded into the pooled
   statistics (engine/channel counters only: the store itself is
   rebuilt, not lost). *)
type lost_acc = {
  mutable a_iter : int;
  mutable a_fir : int;
  mutable a_new : int;
  mutable a_dup : int;
  mutable a_recv : int;
  mutable a_acc : int;
  a_sent_row : int array;
  mutable a_outbox_rows : int;
  mutable a_outbox_bytes : int;
}

let tmp_counter = ref 0

let listen_setup transport =
  match transport with
  | `Unix ->
    incr tmp_counter;
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "datalogp-net-%d-%d.sock" (Unix.getpid ())
           !tmp_counter)
    in
    (try Unix.unlink path with _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, Aunix path)
  | `Tcp ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    Unix.listen fd 64;
    let port =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false
    in
    (fd, Atcp port)

let open_session ~config ~program ~spec ?(seed = 0) ?(procs = 4)
    ?(transport = `Unix) ?(partition = 0.0) ?(hb_ms = 25)
    ?(hb_miss_limit = 40) ?(max_restarts = 8) ?(spawn = Fork)
    (rw : Rewrite.t) ~edb =
  if config.Run_config.dial <> None then
    invalid_arg "Net_runtime: the adaptive dial is not supported";
  (match config.Run_config.plan with
   | Some p -> Plan.validate_exn ~nprocs:rw.nprocs p rw.original
   | None -> ());
  Overload.validate config.Run_config.limits;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let n = rw.nprocs in
  let nworkers = max 1 (min procs n) in
  let plan = config.Run_config.fault in
  let limits = config.Run_config.limits in
  (* Mirrors the workers' [faulty || credited]: when the reliable
     layer is on, the coordinator acks each accepted payload. *)
  let acked =
    (not (Fault.is_none plan))
    || partition > 0.0
    || config.Run_config.capacity <> None
  in
  let shim = Shim.create ~plan ~partition in
  let t0 = now () in
  (* The combined EDB every worker receives, serialized once so all
     workers intern its symbols in the same order. *)
  let combined_edb = Router.base_edb rw edb in
  (* [wedb] is re-serialized whenever a session batch changes the base
     facts: a worker restarted afterwards must rebuild from the
     patched EDB. [base_db] shadows the caller's input EDB (patched in
     step with the batches) — answer assembly copies it, exactly as a
     from-scratch run over the updated input would. *)
  let wedb = ref (Wire.of_db combined_edb) in
  let base_db = Database.copy edb in
  let listen_fd, laddr = listen_setup transport in
  let addr_str = addr_to_string laddr in
  let slots =
    Array.init nworkers (fun i ->
        {
          s_id = i;
          s_os_pid = 0;
          s_inc = 0;
          s_fd = None;
          s_reader = Wire.reader ();
          s_out = { oq = Queue.create (); oq_off = 0 };
          s_hold = [];
          s_configured = false;
          s_delivered = 0;
          s_last_heard = t0;
          s_miss_reported = 0;
          s_restart_at = None;
          s_restarts = 0;
          s_status = None;
          s_stop_sent = false;
          s_last_snaps = [];
        })
  in
  let worker_of pid = pid mod nworkers in
  let own_pids w = List.filter (fun pid -> pid mod nworkers = w) (List.init n Fun.id) in
  let anon : (Unix.file_descr * Wire.reader) list ref = ref [] in
  let fc = Fault.counters () in
  let bytes_sent = ref 0 in
  let bytes_received = ref 0 in
  let reconnects = ref 0 in
  let hb_misses = ref 0 in
  let worker_restarts = ref 0 in
  let history : (int, (int * int * int * Wire.wbatch) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let hist pid =
    match Hashtbl.find_opt history pid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace history pid r;
      r
  in
  let payload_seen = Channel.Dedup.create () in
  let dumps : (int, Wire.restore) Hashtbl.t = Hashtbl.create 8 in
  (* Per pid: every (src, inc, seq) receipt covered by any checkpoint
     received so far — accumulated from per-checkpoint deltas, and a
     hashtable because restore filters the whole inbound history
     against it. *)
  let dump_seen : (int, (int * int * int, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  let dump_seen_of pid =
    match Hashtbl.find_opt dump_seen pid with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 256 in
      Hashtbl.replace dump_seen pid t;
      t
  in
  let crashes_done : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let lost : (int, lost_acc) Hashtbl.t = Hashtbl.create 8 in
  let lost_of pid =
    match Hashtbl.find_opt lost pid with
    | Some a -> a
    | None ->
      let a =
        { a_iter = 0; a_fir = 0; a_new = 0; a_dup = 0; a_recv = 0; a_acc = 0;
          a_sent_row = Array.make n 0; a_outbox_rows = 0; a_outbox_bytes = 0 }
      in
      Hashtbl.replace lost pid a;
      a
  in
  let dones : (int, Wire.psnap * Wire.wrel list) Hashtbl.t = Hashtbl.create 8 in
  let byes : (int, Stats.faults * int * int) Hashtbl.t = Hashtbl.create 8 in
  let delayq : (float * int * Wire.frame) list ref = ref [] in
  let stopping = ref false in
  let stop_finish = ref true in
  let overload : Overload.reason option ref = ref None in
  let probe_epoch = ref 0 in
  let probe_open = ref false in
  let probe_armed = ref false in
  let probe_next_at = ref 0.0 in
  (* Session state. A drive is one run to global quiescence: the
     initial evaluation and each non-empty update batch. In session
     mode a passed termination probe triggers a [Collect] instead of
     the Stop poison pill: workers report per-processor models and
     stay resident for the next batch. [Stop] is reserved for [close]
     and overload. *)
  let models : (int, Wire.psnap * Wire.wrel list) Hashtbl.t =
    Hashtbl.create 8
  in
  let collect_gen = ref 0 in
  let collecting = ref false in
  let closing = ref false in
  let dead = ref false in
  let drive_start = ref t0 in
  let restart_backoff = Backoff.make ~base_ms:5 ~cap_ms:400 () in
  let hb_s = float_of_int (max 1 hb_ms) /. 1000. in
  let disarm () =
    probe_armed := false;
    probe_open := false
  in
  let enqueue_raw s frame =
    Queue.add (Wire.encode frame) s.s_out.oq
  in
  let enqueue s frame =
    enqueue_raw s frame;
    s.s_delivered <- s.s_delivered + 1
  in
  let enqueue_to_pid pid frame =
    let s = slots.(worker_of pid) in
    if s.s_configured && s.s_fd <> None then enqueue s frame
    else s.s_hold <- frame :: s.s_hold
  in
  let push_delay due dst frame =
    let rec insert = function
      | [] -> [ (due, dst, frame) ]
      | (d, _, _) :: _ as l when due < d -> (due, dst, frame) :: l
      | x :: rest -> x :: insert rest
    in
    delayq := insert !delayq
  in
  let close_conn s =
    (match s.s_fd with
     | Some fd -> (try Unix.close fd with _ -> ())
     | None -> ());
    s.s_fd <- None;
    s.s_configured <- false;
    s.s_status <- None
  in
  let spawn_worker s =
    (match spawn with
     | Fork ->
       (match Unix.fork () with
        | 0 ->
          (try Unix.close listen_fd with _ -> ());
          List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) !anon;
          Array.iter
            (fun s' ->
              match s'.s_fd with
              | Some fd -> (try Unix.close fd with _ -> ())
              | None -> ())
            slots;
          let code =
            try worker_main ~addr:addr_str ~worker:s.s_id ~inc:s.s_inc
            with _ -> 2
          in
          Unix._exit code
        | pid -> s.s_os_pid <- pid)
     | Exec exe ->
       let pid =
         Unix.create_process exe
           [|
             exe; "worker"; "--addr"; addr_str; "--worker";
             string_of_int s.s_id; "--inc"; string_of_int s.s_inc;
           |]
           Unix.stdin Unix.stdout Unix.stderr
       in
       s.s_os_pid <- pid);
    s.s_last_heard <- now ();
    s.s_miss_reported <- 0;
    if s.s_inc > 0 then incr worker_restarts
  in
  let begin_stop ~finish =
    if not !stopping then begin
      stopping := true;
      stop_finish := finish;
      Array.iter
        (fun s ->
          if s.s_configured && s.s_fd <> None && not s.s_stop_sent then begin
            enqueue s (Wire.Stop { finish });
            s.s_stop_sent <- true
          end)
        slots
    end
  in
  let begin_collect () =
    incr collect_gen;
    collecting := true;
    Hashtbl.clear models;
    Array.iter
      (fun s ->
        if s.s_configured && s.s_fd <> None then
          enqueue s (Wire.Collect { gen = !collect_gen }))
      slots
  in
  let all_collected () =
    let ok = ref true in
    for pid = 0 to n - 1 do
      if not (Hashtbl.mem models pid) then ok := false
    done;
    !ok
  in
  let configure s fd reader =
    s.s_fd <- Some fd;
    s.s_reader <- reader;
    Queue.clear s.s_out.oq;
    s.s_out.oq_off <- 0;
    s.s_delivered <- 0;
    s.s_status <- None;
    s.s_stop_sent <- false;
    let pids = own_pids s.s_id in
    let restores =
      List.filter_map (fun pid -> Hashtbl.find_opt dumps pid) pids
    in
    enqueue_raw s
      (Wire.Config
         {
           cf_program = program;
           cf_spec = spec;
           cf_nprocs = n;
           cf_procs = nworkers;
           cf_seed = seed;
           cf_pushdown = config.Run_config.pushdown;
           cf_fault = plan;
           cf_partition = partition;
           cf_capacity = config.Run_config.capacity;
           cf_limits = limits;
           cf_edb = !wedb;
           cf_crashes_done =
             Hashtbl.fold (fun pid rs acc -> (pid, rs) :: acc) crashes_done [];
           cf_restores = restores;
           cf_hb_ms = hb_ms;
         });
    s.s_configured <- true;
    if s.s_inc > 0 then begin
      fc.Fault.n_recoveries <- fc.Fault.n_recoveries + List.length pids;
      fc.Fault.n_restores <-
        fc.Fault.n_restores + List.length restores;
      (* Replay each restored processor's inbound history, minus what
         its checkpoint already covers. *)
      List.iter
        (fun pid ->
          let covered = dump_seen_of pid in
          List.iter
            (fun (src, sinc, seq, batch) ->
              if not (Hashtbl.mem covered (src, sinc, seq)) then begin
                fc.Fault.n_replayed <-
                  fc.Fault.n_replayed + List.length batch;
                enqueue s (Wire.Inject { dst = pid; batch })
              end)
            (List.rev !(hist pid)))
        pids
    end;
    List.iter (fun f -> enqueue s f) (List.rev s.s_hold);
    s.s_hold <- [];
    if !stopping then begin
      enqueue s (Wire.Stop { finish = !stop_finish });
      s.s_stop_sent <- true
    end;
    (* A worker rebuilt mid-collection re-derives its state from the
       (already patched) history: cancel the collection and let the
       probe cycle re-establish quiescence before collecting again.
       Stale [Model] frames are discarded by their generation. *)
    if !collecting then collecting := false;
    disarm ()
  in
  let all_done () =
    let ok = ref true in
    for pid = 0 to n - 1 do
      if not (Hashtbl.mem dones pid) then ok := false
    done;
    !ok
  in
  let handle_death s =
    (* Called when both the socket and the process are gone. *)
    if not (List.for_all (fun pid -> Hashtbl.mem dones pid) (own_pids s.s_id))
    then begin
      let pids = own_pids s.s_id in
      fc.Fault.n_crashes <- fc.Fault.n_crashes + List.length pids;
      List.iter
        (fun (snap : Wire.psnap) ->
          let a = lost_of snap.ps_pid in
          a.a_iter <- a.a_iter + snap.ps_iterations;
          a.a_fir <- a.a_fir + snap.ps_firings;
          a.a_new <- a.a_new + snap.ps_new;
          a.a_dup <- a.a_dup + snap.ps_dup;
          a.a_recv <- a.a_recv + snap.ps_received;
          a.a_acc <- a.a_acc + snap.ps_accepted;
          Array.iteri
            (fun i v -> a.a_sent_row.(i) <- a.a_sent_row.(i) + v)
            snap.ps_sent_row;
          a.a_outbox_rows <- max a.a_outbox_rows snap.ps_outbox_rows;
          a.a_outbox_bytes <- max a.a_outbox_bytes snap.ps_outbox_bytes)
        s.s_last_snaps;
      s.s_last_snaps <- [];
      s.s_restarts <- s.s_restarts + 1;
      if s.s_restarts > max_restarts then
        failwith
          (Printf.sprintf "Net_runtime: worker %d exceeded %d restarts"
             s.s_id max_restarts);
      s.s_inc <- s.s_inc + 1;
      s.s_restart_at <-
        Some
          (now ()
          +. (float_of_int
                (Backoff.delay_ms
                   ~hint_ms:
                     (Backoff.seeded_jitter ~seed:(plan.Fault.seed + s.s_id)
                        ~span_ms:5 s.s_restarts)
                   restart_backoff (s.s_restarts - 1))
             /. 1000.));
      disarm ();
      Log.info (fun m ->
          m "worker %d died; restart %d as incarnation %d" s.s_id
            s.s_restarts s.s_inc)
    end
  in
  let handle_eof s =
    close_conn s;
    if s.s_os_pid <> 0 then (try Unix.kill s.s_os_pid Sys.sigkill with _ -> ())
    else handle_death s
  in
  let reap () =
    Array.iter
      (fun s ->
        if s.s_os_pid <> 0 then
          match waitpid_retry [ Unix.WNOHANG ] s.s_os_pid with
          | 0, _ -> ()
          | _, _ ->
            s.s_os_pid <- 0;
            if s.s_fd = None && s.s_restart_at = None then handle_death s
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            s.s_os_pid <- 0;
            if s.s_fd = None && s.s_restart_at = None then handle_death s)
      slots
  in
  let handle_worker_frame s frame =
    s.s_last_heard <- now ();
    s.s_miss_reported <- 0;
    match (frame : Wire.frame) with
    | Data { src; dst; inc = sinc; seq; attempt; replay = _; batch } ->
      disarm ();
      let v = Shim.verdict shim ~src ~dst ~seq ~attempt in
      if not v.Shim.v_drop then begin
        if Channel.Dedup.first payload_seen (src, dst, sinc, seq) then begin
          let h = hist dst in
          h := (src, sinc, seq, batch) :: !h
        end;
        (* Ack the SENDER here, not at the destination: the payload is
           now in the replay history, so it reaches [dst] even across
           a restart — and the coordinator cannot die, so the ack
           cannot be lost to a crash, and the sender's [unacked] entry
           can never be stranded. Shim-dropped frames get no ack and
           are retransmitted by the sender. *)
        if acked then
          enqueue_to_pid src (Wire.Tack { src; dst; inc = sinc; seq });
        if v.Shim.v_delay_ms > 0 then
          push_delay (now () +. (float_of_int v.Shim.v_delay_ms /. 1000.))
            dst frame
        else enqueue_to_pid dst frame;
        if v.Shim.v_dup then enqueue_to_pid dst frame
      end
    | Tack _ -> ()
      (* Acks originate at the coordinator; workers no longer send
         any, so there is nothing to relay. *)
    | Status { worker = w; inc; epoch; idle; frames_received } ->
      dbg "c: status w%d epoch=%d idle=%b fr=%d delivered=%d" w epoch idle
        frames_received s.s_delivered;
      if w = s.s_id && inc = s.s_inc && epoch = !probe_epoch then
        s.s_status <- Some (epoch, idle, frames_received)
    | Heartbeat { worker = _; inc; snaps } ->
      if inc = s.s_inc then s.s_last_snaps <- snaps
    | Checkpoint { pid; inc; round; tuples; seen } ->
      if inc = s.s_inc then begin
        (* Checkpoints are deltas: accumulate onto what this pid has
           already dumped (a restored incarnation resumes the delta
           chain from the dump it was handed). *)
        let prev =
          match Hashtbl.find_opt dumps pid with
          | Some r -> r.Wire.rs_tuples
          | None -> []
        in
        Hashtbl.replace dumps pid
          { Wire.rs_pid = pid; rs_round = round;
            rs_tuples = List.rev_append tuples prev };
        let tbl = dump_seen_of pid in
        List.iter (fun r -> Hashtbl.replace tbl r ()) seen
      end
    | Crashing { pid; round; snaps } ->
      disarm ();
      Hashtbl.replace crashes_done pid
        (round
        :: Option.value ~default:[] (Hashtbl.find_opt crashes_done pid));
      s.s_last_snaps <- snaps
    | Breach { reason } ->
      disarm ();
      if !overload = None then overload := Some reason;
      begin_stop ~finish:false
    | Done { pid; inc = _; snap; answers } ->
      dbg "c: done pid=%d" pid;
      Hashtbl.replace dones pid (snap, answers)
    | Bye { worker = w; inc = _; faults; credit_stalls; peak_in_flight } ->
      Hashtbl.replace byes w (faults, credit_stalls, peak_in_flight)
    | Model { gen; pid; snap; answers } ->
      dbg "c: model pid=%d gen=%d" pid gen;
      if !collecting && gen = !collect_gen then
        Hashtbl.replace models pid (snap, answers)
    | Hello _ | Config _ | Inject _ | Probe _ | Stop _ | Patch _ | Update _
    | Collect _ ->
      ()
  in
  let attach_hello fd reader ~worker:w ~inc ~attempts =
    if w < 0 || w >= nworkers then (try Unix.close fd with _ -> ())
    else
      let s = slots.(w) in
      if inc <> s.s_inc then (try Unix.close fd with _ -> ())
      else begin
        (match s.s_fd with
         | Some old -> (try Unix.close old with _ -> ())
         | None -> ());
        reconnects := !reconnects + attempts + (if inc > 0 then 1 else 0);
        s.s_last_heard <- now ();
        s.s_miss_reported <- 0;
        configure s fd reader;
        dbg "c: worker %d attached inc=%d" w inc
      end
  in
  let flush_slot s =
    match s.s_fd with
    | None -> ()
    | Some fd ->
      let continue = ref true in
      while !continue && not (Queue.is_empty s.s_out.oq) do
        let str = Queue.peek s.s_out.oq in
        let len = String.length str in
        match
          Unix.write_substring fd str s.s_out.oq_off (len - s.s_out.oq_off)
        with
        | n ->
          bytes_sent := !bytes_sent + n;
          s.s_out.oq_off <- s.s_out.oq_off + n;
          if s.s_out.oq_off = len then begin
            ignore (Queue.pop s.s_out.oq);
            s.s_out.oq_off <- 0
          end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          -> continue := false
        | exception
            Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _)
          ->
          continue := false;
          handle_eof s
      done
  in
  let new_probe () =
    incr probe_epoch;
    probe_open := true;
    dbg "c: probe %d" !probe_epoch;
    Array.iter (fun s -> enqueue s (Wire.Probe { epoch = !probe_epoch })) slots
  in
  let coordinator_quiet () =
    !delayq = []
    && Array.for_all
         (fun s ->
           s.s_fd <> None && s.s_configured && s.s_restart_at = None
           && s.s_hold = []
           && Queue.is_empty s.s_out.oq)
         slots
  in
  let check_termination () =
    if (not !stopping) && (not !collecting) && coordinator_quiet () then begin
      if !probe_open then begin
        let complete =
          Array.for_all
            (fun s ->
              match s.s_status with
              | Some (e, _, _) -> e = !probe_epoch
              | None -> false)
            slots
        in
        if complete then begin
          let pass =
            Array.for_all
              (fun s ->
                match s.s_status with
                | Some (e, idle, fr) ->
                  e = !probe_epoch && idle && fr = s.s_delivered
                | None -> false)
              slots
          in
          probe_open := false;
          dbg "c: probe %d complete pass=%b" !probe_epoch pass;
          if pass then begin
            if !probe_armed then begin
              if !closing then begin_stop ~finish:true else begin_collect ()
            end
            else begin
              probe_armed := true;
              new_probe ()
            end
          end
          else begin
            probe_armed := false;
            probe_next_at := now () +. 0.005
          end
        end
      end
      else if now () >= !probe_next_at then new_probe ()
    end
  in
  let release_delayed () =
    let t = now () in
    let rec go = function
      | (due, dst, frame) :: rest when due <= t ->
        disarm ();
        enqueue_to_pid dst frame;
        go rest
      | l -> l
    in
    delayq := go !delayq
  in
  let do_restarts () =
    let t = now () in
    Array.iter
      (fun s ->
        match s.s_restart_at with
        | Some at when at <= t && s.s_os_pid = 0 ->
          s.s_restart_at <- None;
          spawn_worker s
        | _ -> ())
      slots
  in
  let check_heartbeats () =
    let t = now () in
    Array.iter
      (fun s ->
        if s.s_fd <> None && s.s_configured then begin
          let misses = int_of_float ((t -. s.s_last_heard) /. hb_s) in
          if misses > s.s_miss_reported then begin
            hb_misses := !hb_misses + misses - s.s_miss_reported;
            s.s_miss_reported <- misses
          end;
          if misses >= hb_miss_limit && s.s_os_pid <> 0 then begin
            Log.info (fun m ->
                m "worker %d missed %d heartbeats; killing" s.s_id misses);
            try Unix.kill s.s_os_pid Sys.sigkill with _ -> ()
          end
        end)
      slots
  in
  let check_deadline () =
    match limits.Overload.deadline with
    | Some sec when not !stopping ->
      (* Per drive, not per session: an idle session must not blow the
         watchdog while the client thinks. *)
      let elapsed = now () -. !drive_start in
      if elapsed > sec then begin
        if !overload = None then
          overload :=
            Some (Overload.Deadline { seconds = sec; elapsed; round = 0 });
        begin_stop ~finish:false
      end
    | _ -> ()
  in
  let cleanup () =
    if not !dead then begin
      dead := true;
      Array.iter
        (fun s ->
          if s.s_os_pid <> 0 then begin
            (try Unix.kill s.s_os_pid Sys.sigkill with _ -> ());
            (try ignore (waitpid_retry [] s.s_os_pid) with _ -> ());
            s.s_os_pid <- 0
          end;
          match s.s_fd with
          | Some fd ->
            (try Unix.close fd with _ -> ());
            s.s_fd <- None
          | None -> ())
        slots;
      List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) !anon;
      anon := [];
      (try Unix.close listen_fd with _ -> ());
      match laddr with
      | Aunix path -> (try Unix.unlink path with _ -> ())
      | Atcp _ -> ()
    end
  in
  (* One run to global quiescence. In session mode ([closing] false)
     the drive ends when a [Collect] has gathered every processor's
     model; on [close] or overload it ends when every processor's
     [Done] has arrived (the historical exit). *)
  let drive_loop () =
    let t = now () in
    drive_start := t;
    (* The client may have been idle between drives: worker heartbeats
       accumulated unread in the socket buffers, so the failure
       detector must not count the gap as misses. *)
    Array.iter (fun s -> s.s_last_heard <- t) slots;
    probe_armed := false;
    probe_open := false;
    probe_next_at := 0.0;
  let finished = ref false in
  while not !finished do
    check_deadline ();
    do_restarts ();
    reap ();
    check_heartbeats ();
    release_delayed ();
    let t = now () in
    let next =
      let m = ref (t +. 0.02) in
      (match !delayq with (due, _, _) :: _ -> if due < !m then m := due | [] -> ());
      Array.iter
        (fun s ->
          match s.s_restart_at with
          | Some at when at < !m -> m := at
          | _ -> ())
        slots;
      if (not !stopping) && !probe_next_at > t && !probe_next_at < !m then
        m := !probe_next_at;
      !m
    in
    let timeout = max 0.0 (min 0.05 (next -. t)) in
    let rds =
      listen_fd
      :: (List.map fst !anon
         @ Array.to_list
             (Array.of_seq
                (Seq.filter_map
                   (fun s -> s.s_fd)
                   (Array.to_seq slots))))
    in
    let wds =
      List.filter_map
        (fun s ->
          match s.s_fd with
          | Some fd when not (Queue.is_empty s.s_out.oq) -> Some fd
          | _ -> None)
        (Array.to_list slots)
    in
    let r, w, _ =
      match Unix.select rds wds [] timeout with
      | v -> v
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem listen_fd r then begin
      match Unix.accept listen_fd with
      | fd, _ ->
        Unix.set_nonblock fd;
        (match laddr with
         | Atcp _ -> (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ())
         | Aunix _ -> ());
        anon := (fd, Wire.reader ()) :: !anon
      | exception Unix.Unix_error (_, _, _) -> ()
    end;
    (* Anonymous connections: waiting for their Hello. *)
    let still_anon = ref [] in
    List.iter
      (fun (fd, reader) ->
        if List.mem fd r then
          match Wire.feed reader fd with
          | `Eof -> (try Unix.close fd with _ -> ())
          | `Again -> still_anon := (fd, reader) :: !still_anon
          | `Frames (fs, nbytes) -> (
            bytes_received := !bytes_received + nbytes;
            match fs with
            | Wire.Hello { worker; inc; attempts } :: rest ->
              attach_hello fd reader ~worker ~inc ~attempts;
              let s = slots.(worker mod nworkers) in
              if s.s_fd = Some fd then
                List.iter (handle_worker_frame s) rest
            | [] -> still_anon := (fd, reader) :: !still_anon
            | _ :: _ -> (try Unix.close fd with _ -> ()))
        else still_anon := (fd, reader) :: !still_anon)
      !anon;
    anon := !still_anon;
    Array.iter
      (fun s ->
        match s.s_fd with
        | Some fd when List.mem fd r -> (
          match Wire.feed s.s_reader fd with
          | `Eof -> handle_eof s
          | `Again -> ()
          | `Frames (fs, nbytes) ->
            bytes_received := !bytes_received + nbytes;
            List.iter (handle_worker_frame s) fs
          | exception Failure _ -> handle_eof s)
        | _ -> ())
      slots;
    Array.iter
      (fun s ->
        match s.s_fd with
        | Some fd when List.mem fd w -> flush_slot s
        | _ -> ())
      slots;
    (* Also try to flush fresh output eagerly (sockets are usually
       writable; EAGAIN just defers to the next select round). *)
    Array.iter
      (fun s -> if not (Queue.is_empty s.s_out.oq) then flush_slot s)
      slots;
    check_termination ();
    if !stopping then begin
      (* Workers that (re)connect during the stop still get their Stop
         in [configure]; here we only watch for completion. *)
      if all_done () then finished := true
    end
    else if !collecting && all_collected () then begin
      collecting := false;
      finished := true
    end
  done
  in
  (* The maintenance oracle is created on first [apply]: a plain [run]
     (open + close, no batches) never pays for it, and at creation
     time the combined EDB is still the initial one, so the oracle's
     model matches the workers' pooled state. *)
  let live_oracle = ref None in
  let oracle () =
    match !live_oracle with
    | Some l -> l
    | None ->
      let l =
        Stratified.Live.create ~pushdown:config.Run_config.pushdown
          ~track:config.Run_config.track_changes rw.original
          ~edb:combined_edb
      in
      live_oracle := Some l;
      l
  in
  (* Give live workers a short grace period to deliver their Bye
     (fault counters); they exit right after. *)
  let grace_byes () =
  let grace_end = now () +. 0.5 in
  let live () =
    Array.exists
      (fun s -> s.s_fd <> None && not (Hashtbl.mem byes s.s_id))
      slots
  in
  while live () && now () < grace_end do
    let rds =
      List.filter_map (fun s -> s.s_fd) (Array.to_list slots)
    in
    match Unix.select rds [] [] 0.05 with
    | [], _, _ -> ()
    | r, _, _ ->
      Array.iter
        (fun s ->
          match s.s_fd with
          | Some fd when List.mem fd r -> (
            match Wire.feed s.s_reader fd with
            | `Eof -> close_conn s
            | `Again -> ()
            | `Frames (fs, nbytes) ->
              bytes_received := !bytes_received + nbytes;
              List.iter (handle_worker_frame s) fs
            | exception Failure _ -> close_conn s)
          | _ -> ())
        slots
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
  in
  (* ---------------- assembly ---------------- *)
  let assemble_final () =
  fc.Fault.n_drops <- fc.Fault.n_drops + Shim.drops shim;
  fc.Fault.n_dups_injected <- fc.Fault.n_dups_injected + Shim.dups shim;
  fc.Fault.n_delays <- fc.Fault.n_delays + Shim.delays shim;
  fc.Fault.n_reorders <- fc.Fault.n_reorders + Shim.reorders shim;
  let bye_list = Hashtbl.fold (fun _ v acc -> v :: acc) byes [] in
  let total_stalls =
    List.fold_left (fun acc (_, st, _) -> acc + st) 0 bye_list
  in
  let peak_in_flight =
    List.fold_left (fun acc (_, _, pk) -> max acc pk) 0 bye_list
  in
  let base_faults = Fault.freeze fc ~credit_stalls:total_stalls in
  let faults =
    List.fold_left
      (fun (acc : Stats.faults) ((f : Stats.faults), _, _) ->
        {
          Stats.drops = acc.drops + f.drops;
          dups_injected = acc.dups_injected + f.dups_injected;
          dups_suppressed = acc.dups_suppressed + f.dups_suppressed;
          delays = acc.delays + f.delays;
          reorders = acc.reorders + f.reorders;
          retransmits = acc.retransmits + f.retransmits;
          acks = acc.acks + f.acks;
          crashes = acc.crashes + f.crashes;
          recoveries = acc.recoveries + f.recoveries;
          replayed = acc.replayed + f.replayed;
          checkpoints = acc.checkpoints + f.checkpoints;
          restores = acc.restores + f.restores;
          mailbox_drops = acc.mailbox_drops + f.mailbox_drops;
          credit_stalls = acc.credit_stalls + f.credit_stalls;
          alpha_raises = acc.alpha_raises + f.alpha_raises;
          alpha_decays = acc.alpha_decays + f.alpha_decays;
        })
      base_faults bye_list
  in
  let wire_retransmits =
    List.fold_left
      (fun acc ((f : Stats.faults), _, _) -> acc + f.retransmits)
      0 bye_list
  in
  let transport_stats =
    {
      Stats.reconnects = !reconnects;
      wire_retransmits;
      heartbeat_misses = !hb_misses;
      worker_restarts = !worker_restarts;
      bytes_sent = !bytes_sent;
      bytes_received = !bytes_received;
    }
  in
  let answers = Database.copy base_db in
  let pooled = ref 0 in
  for pid = 0 to n - 1 do
    match Hashtbl.find_opt dones pid with
    | None -> ()
    | Some (_, wrels) ->
      List.iter
        (fun (wr : Wire.wrel) ->
          pooled := !pooled + List.length wr.wr_tuples;
          ignore (Wire.add_wrel answers wr))
        wrels
  done;
  let per_proc =
    Array.init n (fun pid ->
        let snap, _ =
          match Hashtbl.find_opt dones pid with
          | Some v -> v
          | None -> assert false
        in
        let l = lost_of pid in
        let sent_row =
          Array.init n (fun j ->
              (if j < Array.length snap.Wire.ps_sent_row then
                 snap.Wire.ps_sent_row.(j)
               else 0)
              + l.a_sent_row.(j))
        in
        ( {
            Stats.pid;
            firings = snap.Wire.ps_firings + l.a_fir;
            new_tuples = snap.Wire.ps_new + l.a_new;
            duplicate_firings = snap.Wire.ps_dup + l.a_dup;
            iterations = snap.Wire.ps_iterations + l.a_iter;
            tuples_sent = Array.fold_left ( + ) 0 sent_row;
            tuples_received = snap.Wire.ps_received + l.a_recv;
            tuples_accepted = snap.Wire.ps_accepted + l.a_acc;
            base_resident = snap.Wire.ps_base_resident;
            active_rounds = snap.Wire.ps_iterations + l.a_iter;
            store_rows = snap.Wire.ps_store_rows;
            store_bytes = snap.Wire.ps_store_bytes;
            outbox_peak_rows = max snap.Wire.ps_outbox_rows l.a_outbox_rows;
            outbox_peak_bytes = max snap.Wire.ps_outbox_bytes l.a_outbox_bytes;
          },
          sent_row ))
  in
  let stats : Stats.t =
    {
      incr = Stats.incr_of_live !live_oracle;
      nprocs = n;
      rounds =
        Array.fold_left
          (fun acc (pp, _) -> max acc pp.Stats.iterations)
          0 per_proc;
      per_proc = Array.map fst per_proc;
      channel_tuples = Array.map snd per_proc;
      pooled_tuples = !pooled;
      trace = [];
      faults;
      transport = transport_stats;
      peak_in_flight;
      phase_ns = [];
      comms = Stats.no_comms;
    }
  in
  (answers, stats)
  in
  (* Stop path: drain the Byes, assemble, tear the fleet down. Raises
     when the stop was an overload. *)
  let finish () =
    grace_byes ();
    let answers, stats = assemble_final () in
    cleanup ();
    match !overload with
    | Some reason -> raise (Overload.Overload { reason; stats })
    | None -> { Session.answers; stats }
  in
  (* ---------------- initial drive ---------------- *)
  (try
     Array.iter spawn_worker slots;
     drive_loop ()
   with e ->
     cleanup ();
     raise e);
  if !stopping then ignore (finish ());
  (* ---------------- session handle ---------------- *)
  let check_alive () =
    if !dead then raise (Session.Closed "net")
  in
  let is_derived pred = List.mem pred rw.derived in
  (* Pool the per-processor models of the last completed [Collect]
     over the patched input EDB — the between-drives answer. *)
  let assemble_model () =
    let answers = Database.copy base_db in
    for pid = 0 to n - 1 do
      match Hashtbl.find_opt models pid with
      | None -> ()
      | Some (_, wrels) ->
        List.iter (fun wr -> ignore (Wire.add_wrel answers wr)) wrels
    done;
    answers
  in
  let apply batch =
    check_alive ();
    let change = Stratified.Live.apply (oracle ()) batch in
    let removed = change.Stratified.Live.c_removed in
    let added = change.Stratified.Live.c_added in
    if removed <> [] || added <> [] then begin
      if removed <> [] then begin
        let removed_tbl = Ktbl.create 64 in
        List.iter (fun kt -> Ktbl.replace removed_tbl kt ()) removed;
        let gone name wt =
          Ktbl.mem removed_tbl
            (Rewrite.original_pred name, Wire.to_tuple wt)
        in
        (* Purge the replay histories and checkpoint dumps of exactly
           the net-removed tuples: a worker rebuilt later must not
           resurrect them, while everything still true stays covered.
           A tuple re-derived after re-insertion takes fresh sequence
           numbers, so it re-enters the history on its own. *)
        Hashtbl.iter
          (fun _pid r ->
            r :=
              List.map
                (fun (src, sinc, seq, batch) ->
                  ( src, sinc, seq,
                    List.filter
                      (fun (name, wt) -> not (gone name wt))
                      batch ))
                !r)
          history;
        let patched =
          Hashtbl.fold
            (fun pid (r : Wire.restore) acc ->
              ( pid,
                {
                  r with
                  Wire.rs_tuples =
                    List.filter
                      (fun (name, wt) -> not (gone name wt))
                      r.Wire.rs_tuples;
                } )
              :: acc)
            dumps []
        in
        List.iter (fun (pid, r) -> Hashtbl.replace dumps pid r) patched
      end;
      (* Keep both EDB views current: restarted workers rebuild base
         fragments from [wedb], the assemblies copy [base_db]. *)
      List.iter
        (fun (pred, t) ->
          if not (is_derived pred) then
            List.iter
              (fun db ->
                match Database.find db pred with
                | Some rel -> ignore (Relation.remove_all rel (Tuple.equal t))
                | None -> ())
              [ combined_edb; base_db ])
        removed;
      List.iter
        (fun (pred, t) ->
          if not (is_derived pred) then begin
            ignore (Database.add_fact combined_edb pred t);
            ignore (Database.add_fact base_db pred t)
          end)
        added;
      wedb := Wire.of_db combined_edb;
      (* The deletion patch goes only to live configured workers: a
         worker rebuilt afterwards starts from the patched state and
         must never replay the frame (its history injections would
         still be pending when the retraction arrived). *)
      if removed <> [] then begin
        let dels = Wire.of_batch removed in
        Array.iter
          (fun s ->
            if s.s_configured && s.s_fd <> None then
              enqueue s (Wire.Patch { dels }))
          slots
      end;
      (* Base insertions enter at the processors hosting them; their
         consequences re-derive — and re-route — during the drive. *)
      let by_pid = Array.make n [] in
      List.iter
        (fun (pred, t) ->
          if not (is_derived pred) then
            for pid = 0 to n - 1 do
              if rw.resident pid pred t then
                by_pid.(pid) <- (pred, t) :: by_pid.(pid)
            done)
        added;
      Array.iteri
        (fun pid batch ->
          if batch <> [] then
            enqueue_to_pid pid
              (Wire.Update { dst = pid; batch = Wire.of_batch (List.rev batch) }))
        by_pid;
      (try drive_loop ()
       with e ->
         cleanup ();
         raise e);
      if !stopping then ignore (finish ())
    end;
    {
      Session.oc_added = added;
      oc_removed = removed;
      oc_summary = change.Stratified.Live.c_summary;
    }
  in
  let query pred =
    check_alive ();
    if is_derived pred then begin
      let acc = ref None in
      Hashtbl.iter
        (fun _pid (_, wrels) ->
          List.iter
            (fun (wr : Wire.wrel) ->
              if String.equal wr.Wire.wr_pred pred then begin
                let target =
                  match !acc with
                  | Some r -> r
                  | None ->
                    let r = Relation.create ~arity:wr.Wire.wr_arity () in
                    acc := Some r;
                    r
                in
                List.iter
                  (fun wt -> ignore (Relation.add target (Wire.to_tuple wt)))
                  wr.Wire.wr_tuples
              end)
            wrels)
        models;
      match !acc with
      | Some r -> Relation.sorted_elements r
      | None -> []
    end
    else
      match Database.find base_db pred with
      | Some rel -> Relation.sorted_elements rel
      | None -> []
  in
  let model () =
    check_alive ();
    assemble_model ()
  in
  let close () =
    check_alive ();
    closing := true;
    (try drive_loop ()
     with e ->
       cleanup ();
       raise e);
    finish ()
  in
  Session.v ~runtime:"net" ~apply ~query ~model ~close

let run ~config ~program ~spec ?seed ?procs ?transport ?partition ?hb_ms
    ?hb_miss_limit ?max_restarts ?spawn (rw : Rewrite.t) ~edb =
  Session.close
    (open_session ~config ~program ~spec ?seed ?procs ?transport ?partition
       ?hb_ms ?hb_miss_limit ?max_restarts ?spawn rw ~edb)

let runtime ~program ~spec ?seed ?procs ?transport ?partition ?hb_ms ?spawn
    () : (module Pardatalog.Runtime.S) =
  (module struct
    let name = "net"

    let run ~config rw ~edb =
      run ~config ~program ~spec ?seed ?procs ?transport ?partition ?hb_ms
        ?spawn rw ~edb

    let open_session ~config rw ~edb =
      open_session ~config ~program ~spec ?seed ?procs ?transport ?partition
        ?hb_ms ?spawn rw ~edb
  end)
