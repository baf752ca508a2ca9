type per_proc = {
  pid : Pid.t;
  firings : int;
  new_tuples : int;
  duplicate_firings : int;
  iterations : int;
  tuples_sent : int;
  tuples_received : int;
  tuples_accepted : int;
  base_resident : int;
  active_rounds : int;
  store_rows : int;
  store_bytes : int;
  outbox_peak_rows : int;
  outbox_peak_bytes : int;
}

type faults = {
  drops : int;
  dups_injected : int;
  dups_suppressed : int;
  delays : int;
  reorders : int;
  retransmits : int;
  acks : int;
  crashes : int;
  recoveries : int;
  replayed : int;
  checkpoints : int;
  restores : int;
  mailbox_drops : int;
  credit_stalls : int;
  alpha_raises : int;
  alpha_decays : int;
}

let no_faults =
  {
    drops = 0;
    dups_injected = 0;
    dups_suppressed = 0;
    delays = 0;
    reorders = 0;
    retransmits = 0;
    acks = 0;
    crashes = 0;
    recoveries = 0;
    replayed = 0;
    checkpoints = 0;
    restores = 0;
    mailbox_drops = 0;
    credit_stalls = 0;
    alpha_raises = 0;
    alpha_decays = 0;
  }

type transport = {
  reconnects : int;
  wire_retransmits : int;
  heartbeat_misses : int;
  worker_restarts : int;
  bytes_sent : int;
  bytes_received : int;
}

let no_transport =
  {
    reconnects = 0;
    wire_retransmits = 0;
    heartbeat_misses = 0;
    worker_restarts = 0;
    bytes_sent = 0;
    bytes_received = 0;
  }

type comms = {
  bulk_pushes : int;
  bulk_messages : int;
}

let no_comms = { bulk_pushes = 0; bulk_messages = 0 }

type incr = {
  batches_applied : int;
  tuples_inserted : int;
  tuples_deleted : int;
  tuples_rederived : int;
  tuples_overdeleted : int;
  incr_firings : int;
}

let no_incr =
  {
    batches_applied = 0;
    tuples_inserted = 0;
    tuples_deleted = 0;
    tuples_rederived = 0;
    tuples_overdeleted = 0;
    incr_firings = 0;
  }

let incr_of_live = function
  | None -> no_incr
  | Some l ->
    let s = Datalog.Stratified.Live.totals l in
    {
      batches_applied = Datalog.Stratified.Live.batches l;
      tuples_inserted = s.Datalog.Delta.s_inserted;
      tuples_deleted = s.s_deleted;
      tuples_rederived = s.s_rederived;
      tuples_overdeleted = s.s_overdeleted;
      incr_firings = s.s_firings;
    }

let observe_engine mx engine f =
  let open Datalog in
  if not (Obs.Metrics.enabled mx) then f ()
  else begin
    let b = Seminaive.stats engine in
    let pb = Seminaive.join_probes engine in
    let r = f () in
    let a = Seminaive.stats engine in
    Obs.Metrics.incr mx ~by:(a.firings - b.firings) "runtime.firings";
    Obs.Metrics.incr mx ~by:(a.new_tuples - b.new_tuples) "runtime.new_tuples";
    Obs.Metrics.incr mx
      ~by:(a.duplicate_firings - b.duplicate_firings)
      "runtime.duplicate_firings";
    Obs.Metrics.incr mx ~by:(Seminaive.join_probes engine - pb) "joiner.probes";
    r
  end

type t = {
  nprocs : int;
  rounds : int;
  per_proc : per_proc array;
  channel_tuples : int array array;
  pooled_tuples : int;
  trace : int array list;
  faults : faults;
  transport : transport;
  peak_in_flight : int;
  phase_ns : (string * int) list;
  incr : incr;
  comms : comms;
}

let frontier_profile t =
  List.map (fun row -> Array.fold_left ( + ) 0 row) t.trace

let peak_parallelism t =
  List.fold_left
    (fun acc row ->
      max acc (Array.fold_left (fun n c -> if c > 0 then n + 1 else n) 0 row))
    0 t.trace

let sum_by f t = Array.fold_left (fun acc p -> acc + f p) 0 t.per_proc
let total_firings t = sum_by (fun p -> p.firings) t
let total_new_tuples t = sum_by (fun p -> p.new_tuples) t
let total_duplicate_firings t = sum_by (fun p -> p.duplicate_firings) t

let total_messages ?(include_self = false) t =
  let total = ref 0 in
  for i = 0 to t.nprocs - 1 do
    for j = 0 to t.nprocs - 1 do
      if include_self || i <> j then
        total := !total + t.channel_tuples.(i).(j)
    done
  done;
  !total

let used_channels ?(include_self = false) t =
  let acc = ref [] in
  for i = t.nprocs - 1 downto 0 do
    for j = t.nprocs - 1 downto 0 do
      if (include_self || i <> j) && t.channel_tuples.(i).(j) > 0 then
        acc := (i, j) :: !acc
    done
  done;
  !acc

let total_base_resident t = sum_by (fun p -> p.base_resident) t
let total_store_rows t = sum_by (fun p -> p.store_rows) t
let total_store_bytes t = sum_by (fun p -> p.store_bytes) t

let load_imbalance t =
  let total = total_firings t in
  if total = 0 then nan
  else
    let mean = float_of_int total /. float_of_int t.nprocs in
    let worst =
      Array.fold_left (fun acc p -> max acc p.firings) 0 t.per_proc
    in
    float_of_int worst /. mean

let redundancy_vs ~sequential_firings t =
  if sequential_firings = 0 then 0.0
  else
    float_of_int (total_firings t - sequential_firings)
    /. float_of_int sequential_firings

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "%d processors, %d rounds, %d messages (+%d self), pooled %d tuples%t@,"
    t.nprocs t.rounds (total_messages t)
    (total_messages ~include_self:true t - total_messages t)
    t.pooled_tuples
    (fun ppf ->
      if t.peak_in_flight > 0 then
        Format.fprintf ppf ", peak in-flight %d" t.peak_in_flight);
  Format.fprintf ppf
    "  %-5s %9s %9s %9s %6s %7s %7s %7s %9s %7s %7s %7s@," "proc" "firings"
    "new" "dupfire" "iters" "sent" "recv" "accept" "baseres" "active"
    "store" "outbox";
  Array.iter
    (fun p ->
      Format.fprintf ppf
        "  %-5d %9d %9d %9d %6d %7d %7d %7d %9d %7d %7d %7d@," p.pid
        p.firings p.new_tuples p.duplicate_firings p.iterations
        p.tuples_sent p.tuples_received p.tuples_accepted p.base_resident
        p.active_rounds p.store_rows p.outbox_peak_rows)
    t.per_proc;
  let f = t.faults in
  let legacy =
    {
      f with
      mailbox_drops = 0;
      credit_stalls = 0;
      alpha_raises = 0;
      alpha_decays = 0;
    }
  in
  if legacy <> no_faults then begin
    Format.fprintf ppf
      "faults: drops=%d dups=%d suppressed=%d delays=%d reorders=%d \
       retransmits=%d acks=%d@,"
      f.drops f.dups_injected f.dups_suppressed f.delays f.reorders
      f.retransmits f.acks;
    Format.fprintf ppf
      "        crashes=%d recoveries=%d replayed=%d checkpoints=%d \
       restores=%d@,"
      f.crashes f.recoveries f.replayed f.checkpoints f.restores
  end;
  if
    f.mailbox_drops > 0 || f.credit_stalls > 0 || f.alpha_raises > 0
    || f.alpha_decays > 0
  then
    Format.fprintf ppf
      "overload: mailbox-drops=%d credit-stalls=%d alpha-raises=%d \
       alpha-decays=%d@,"
      f.mailbox_drops f.credit_stalls f.alpha_raises f.alpha_decays;
  let w = t.transport in
  if w <> no_transport then
    Format.fprintf ppf
      "transport: reconnects=%d wire-retransmits=%d hb-misses=%d \
       restarts=%d sent=%dB recv=%dB@,"
      w.reconnects w.wire_retransmits w.heartbeat_misses w.worker_restarts
      w.bytes_sent w.bytes_received;
  let c = t.incr in
  if c <> no_incr then
    Format.fprintf ppf
      "incr: batches=%d inserted=%d deleted=%d rederived=%d \
       overdeleted=%d firings=%d@,"
      c.batches_applied c.tuples_inserted c.tuples_deleted
      c.tuples_rederived c.tuples_overdeleted c.incr_firings;
  let m = t.comms in
  if m <> no_comms then
    Format.fprintf ppf
      "comms: bulk-pushes=%d bulk-messages=%d (%.1f msgs/delivery)@,"
      m.bulk_pushes m.bulk_messages
      (if m.bulk_pushes = 0 then 0.0
       else float_of_int m.bulk_messages /. float_of_int m.bulk_pushes);
  Format.fprintf ppf "@]"

(* Versioned machine-readable snapshot ("schema": 5), shared by
   `datalogp par --json`, the Obs metrics snapshot, the bench baseline
   files and datalogd's per-query attribution. Hand-rolled: the values
   are ints and two enum-like strings. Schema 2 was additive over
   schema 1: it added "scheme" (the plan/scheme identifier the run
   executed under) and "outcome" (how the run ended — "ok", or an
   overload/budget kind), so a consumer of a PARTIAL server reply can
   attribute the degradation without re-parsing CLI output. Schema 3
   is additive over schema 2: it adds "transport" (wire-level counters
   of the multi-process runtime — all zero in-process). Schema 4 is
   additive over schema 3: it adds "incr" (per-session incremental
   maintenance counters — all zero for one-shot runs). Schema 5 is
   additive over schema 4: it adds "comms" (mailbox send-coalescing
   counters of the shared-memory domain runtime — all zero for
   runtimes that do not batch their sends). *)
let to_json ?(scheme = "unspecified") ?(outcome = "ok") t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add
    "{\"schema\":5,\"scheme\":%S,\"outcome\":%S,\"nprocs\":%d,\"rounds\":%d,\"pooled\":%d,\"peak_in_flight\":%d,"
    scheme outcome t.nprocs t.rounds t.pooled_tuples t.peak_in_flight;
  add "\"phase_ns\":{%s},"
    (String.concat ","
       (List.map
          (fun (name, ns) -> Printf.sprintf "\"%s\":%d" name ns)
          t.phase_ns));
  add
    "\"totals\":{\"firings\":%d,\"new_tuples\":%d,\"duplicate_firings\":%d,\"messages\":%d,\"tuples_sent\":%d,\"base_resident\":%d,\"store_rows\":%d,\"store_bytes\":%d},"
    (total_firings t) (total_new_tuples t) (total_duplicate_firings t)
    (total_messages t)
    (total_messages ~include_self:true t)
    (total_base_resident t) (total_store_rows t) (total_store_bytes t);
  add "\"per_proc\":[";
  Array.iteri
    (fun i p ->
      if i > 0 then add ",";
      add
        "{\"pid\":%d,\"firings\":%d,\"new_tuples\":%d,\"duplicate_firings\":%d,\"iterations\":%d,\"tuples_sent\":%d,\"tuples_received\":%d,\"tuples_accepted\":%d,\"base_resident\":%d,\"active_rounds\":%d,\"store_rows\":%d,\"store_bytes\":%d,\"outbox_peak_rows\":%d,\"outbox_peak_bytes\":%d}"
        p.pid p.firings p.new_tuples p.duplicate_firings p.iterations
        p.tuples_sent p.tuples_received p.tuples_accepted p.base_resident
        p.active_rounds p.store_rows p.store_bytes p.outbox_peak_rows
        p.outbox_peak_bytes)
    t.per_proc;
  add "],\"channel_tuples\":[";
  Array.iteri
    (fun i row ->
      if i > 0 then add ",";
      add "[%s]"
        (String.concat "," (Array.to_list (Array.map string_of_int row))))
    t.channel_tuples;
  add "],\"frontier\":[%s],"
    (String.concat "," (List.map string_of_int (frontier_profile t)));
  let f = t.faults in
  add
    "\"faults\":{\"drops\":%d,\"dups_injected\":%d,\"dups_suppressed\":%d,\"delays\":%d,\"reorders\":%d,\"retransmits\":%d,\"acks\":%d,\"crashes\":%d,\"recoveries\":%d,\"replayed\":%d,\"checkpoints\":%d,\"restores\":%d,\"mailbox_drops\":%d,\"credit_stalls\":%d,\"alpha_raises\":%d,\"alpha_decays\":%d}"
    f.drops f.dups_injected f.dups_suppressed f.delays f.reorders
    f.retransmits f.acks f.crashes f.recoveries f.replayed f.checkpoints
    f.restores f.mailbox_drops f.credit_stalls f.alpha_raises f.alpha_decays;
  let w = t.transport in
  add
    ",\"transport\":{\"reconnects\":%d,\"wire_retransmits\":%d,\"heartbeat_misses\":%d,\"worker_restarts\":%d,\"bytes_sent\":%d,\"bytes_received\":%d}"
    w.reconnects w.wire_retransmits w.heartbeat_misses w.worker_restarts
    w.bytes_sent w.bytes_received;
  let c = t.incr in
  add
    ",\"incr\":{\"batches_applied\":%d,\"tuples_inserted\":%d,\"tuples_deleted\":%d,\"tuples_rederived\":%d,\"tuples_overdeleted\":%d,\"incr_firings\":%d}"
    c.batches_applied c.tuples_inserted c.tuples_deleted c.tuples_rederived
    c.tuples_overdeleted c.incr_firings;
  let m = t.comms in
  add ",\"comms\":{\"bulk_pushes\":%d,\"bulk_messages\":%d}}" m.bulk_pushes
    m.bulk_messages;
  Buffer.contents buf

let pp_summary ppf t =
  Format.fprintf ppf
    "procs=%d rounds=%d firings=%d msgs=%d imbalance=%.2f" t.nprocs
    t.rounds (total_firings t) (total_messages t) (load_imbalance t)
