(** The multi-process TCP runtime.

    A third {!Pardatalog.Runtime.S} implementation: each paper
    processor lives in an OS {e process} (several processors per
    worker process, round-robin by [pid mod procs]), connected to a
    coordinator over Unix-domain or loopback-TCP sockets in a star
    topology. The coordinator routes every inter-processor batch,
    passes payload frames through the deterministic fault {!Shim},
    supervises the workers (SIGKILL, socket EOF and missed heartbeats
    are all detected), and restarts dead workers with a jittered
    exponential backoff ({!Pardatalog.Backoff}), restoring them from
    their last checkpoint and replaying its channel history so that
    the pooled answers still equal the sequential evaluation.

    Each worker's processors send through {!Pardatalog.Channel}, the
    channel layer shared with the domain runtime (DESIGN.md §19):
    per-channel sequence numbers, receiver-side duplicate suppression
    keyed by (sender, {e incarnation}, sequence) — the incarnation
    makes post-restart sequence reuse harmless — acknowledgements
    doubling as credit grants, and bounded retransmission. The
    coordinator, not the destination worker, acks each payload and
    applies the fault {!Shim}.

    Termination is probe-based and sound across reconnects: the
    coordinator counts every frame it delivers to each worker since
    its [Config], the worker reports how many it has processed, and a
    probe epoch passes only when every worker is idle with matching
    counts, twice in a row with no traffic, no delayed frames and no
    pending restart in between.

    Not supported: the adaptive degradation dial and the
    coordinator-stateful schemes ([example2], [adaptive]) — their
    construction cannot be replayed deterministically in another
    process. [Run_config] fields that belong to the simulator
    ([resend_all], [replicate_base], [max_rounds], [network]) and the
    domain runtime ([detector], [domains]) are ignored, as are the
    observability sinks (workers are separate processes; wire-level
    counters are reported in {!Pardatalog.Stats.transport} instead). *)

val worker_main : addr:string -> worker:int -> inc:int -> int
(** Worker-process entry point ([datalogp worker]): dial [addr]
    (["unix:PATH"] or ["tcp:PORT"] on loopback) with backoff, send
    [Hello], receive [Config], evaluate own processors until [Stop].
    Returns the process exit code: 0 after a normal [Bye], 2 on a
    protocol or setup error, 3 when the coordinator vanished. *)

type spawn =
  | Fork  (** [Unix.fork] the current process (tests, bench). *)
  | Exec of string
      (** Spawn [exe worker --addr A --worker W --inc I] — the CLI
          passes its own executable. *)

val run :
  config:Pardatalog.Run_config.t ->
  program:string ->
  spec:Wire.scheme_spec ->
  ?seed:int ->
  ?procs:int ->
  ?transport:[ `Unix | `Tcp ] ->
  ?partition:float ->
  ?hb_ms:int ->
  ?hb_miss_limit:int ->
  ?max_restarts:int ->
  ?spawn:spawn ->
  Pardatalog.Rewrite.t ->
  edb:Datalog.Database.t ->
  Pardatalog.Sim_runtime.result
(** Evaluate [rw] (which the caller built from [program] text and
    [spec] — workers rebuild the same rewrite deterministically) over
    [procs] worker processes (default 4, clamped to [rw.nprocs]).
    [transport] defaults to [`Unix]; [partition] (default 0) is the
    shim's channel-cut probability; [hb_ms] (default 25) the heartbeat
    period; [hb_miss_limit] (default 40) the missed-heartbeat
    declaration threshold; [max_restarts] (default 8) the per-worker
    restart budget.

    @raise Pardatalog.Overload.Overload on a worker budget breach or a
    blown coordinator deadline, with partial statistics.
    @raise Invalid_argument on an adaptive dial, an inconsistent
    program/spec, or a program fact of a derived predicate.
    @raise Failure when a worker exceeds its restart budget.

    Equivalent to {!open_session} followed immediately by
    {!Pardatalog.Session.close}. *)

val open_session :
  config:Pardatalog.Run_config.t ->
  program:string ->
  spec:Wire.scheme_spec ->
  ?seed:int ->
  ?procs:int ->
  ?transport:[ `Unix | `Tcp ] ->
  ?partition:float ->
  ?hb_ms:int ->
  ?hb_miss_limit:int ->
  ?max_restarts:int ->
  ?spawn:spawn ->
  Pardatalog.Rewrite.t ->
  edb:Datalog.Database.t ->
  Pardatalog.Session.t
(** Evaluate to global quiescence as {!run} does, but keep the worker
    processes — engines, channel histories, checkpoint dumps — resident
    and return a live {!Pardatalog.Session.t}. Each
    {!Pardatalog.Session.apply} computes the net patch with
    {!Datalog.Stratified.Live}, purges the coordinator's replay
    histories and checkpoint dumps of the net deletions, sends a
    [Patch] (retractions) and per-processor [Update]s (base
    insertions) to the resident workers, and drives to quiescence
    again — supervision, restarts, the fault shim, credit and the
    watchdog all behave as on the initial drive (the wall-clock
    deadline is per drive). An empty net batch does no work and wakes
    no worker. A worker that dies at any point is rebuilt from the
    patched EDB and the patched histories, so crash recovery remains
    exact across batches. {!Pardatalog.Session.close} performs the
    normal Stop round and returns the final answers and cumulative
    statistics. After an overload the handle is dead: every later call
    raises {!Pardatalog.Session.Closed}.
    @raise Pardatalog.Overload.Overload / Invalid_argument / Failure
    as {!run}, from [open_session] or any later [apply]. *)

val runtime :
  program:string ->
  spec:Wire.scheme_spec ->
  ?seed:int ->
  ?procs:int ->
  ?transport:[ `Unix | `Tcp ] ->
  ?partition:float ->
  ?hb_ms:int ->
  ?spawn:spawn ->
  unit ->
  (module Pardatalog.Runtime.S)
(** Package a parameterized [run]/[open_session] pair as a named
    runtime (["net"]) for code written against
    {!Pardatalog.Runtime.S}. *)
