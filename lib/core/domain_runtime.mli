(** True multicore executor.

    Each of the rewrite's [nprocs] processors runs its own semi-naive
    engine; tuples travel through {!Mailbox} channels (the reliable
    channels of the paper's abstract architecture); global quiescence is
    detected by a distributed termination algorithm; the [@out]
    relations are pooled at the end. The answers are identical to
    {!Sim_runtime}'s (and, by Theorems 1, 4 and 5, to the sequential
    evaluation); the schedule — and therefore per-round behaviour — is
    nondeterministic, but all counted totals except round counts are
    schedule-independent for guarded (Uniform) schemes.

    Processors are multiplexed onto [domains] OS-level domains
    (default: one per processor, capped by
    [Domain.recommended_domain_count ()]): the paper's "constant
    (though unbounded) number of processors" rarely matches the core
    count, so processor [p] is served by domain [p mod domains] and the
    domain cooperatively schedules its processors.

    Payload batches travel over {!Channel}, the channel layer shared
    with the net runtime (DESIGN.md §19): per-channel sequence numbers,
    and, under a non-trivial {!Fault.plan}, receiver-side duplicate
    suppression, transport acknowledgements and time-based bounded
    retransmission. The termination detectors count at
    sequence-number granularity — one send per new batch, one receive
    per first-seen sequence number — so retransmissions and duplicates
    are invisible to them and detection stays sound over lossy
    channels. A crash fires when the processor's local iteration count
    reaches [cr_round]: the engine (volatile) is lost and rebuilt from
    the base fragment, and every processor replays its channel history
    to the rebuilt engine; channel and detector state are stable.
    Recovery is immediate ([cr_down] does not apply) and delivery is
    already asynchronous, so the plan's delay and reorder faults are
    tallied but change nothing observable. Control messages are never
    faulted.

    With [capacity], at most [capacity] tuples are in flight (sent but
    not yet acknowledged) per data channel; the receiver's ack doubles
    as the credit grant, so it is sent even on fault-free runs.
    Over-budget tuples wait in the sender's channel queue — a
    deferral, never a loss. A processor with queued output refuses to
    act passive, which keeps both termination detectors sound: an
    unacked batch is always outstanding while anything is queued, so
    the flushing credit is guaranteed to arrive. Control messages
    (tokens, acks, stop) bypass the credit gate, so backpressure can
    never deadlock the control plane.

    [limits] arms a watchdog (a wall-clock deadline per drive,
    per-processor store and outbox row budgets). The worker that
    detects a breach broadcasts the Stop poison pill; every worker
    returns its partial results normally, and [run] raises
    {!Overload.Overload} carrying the assembled partial statistics — a
    structured outcome instead of an OOM or a hang, with no process
    ever killed.

    [dial] activates adaptive degradation: after each semi-naive step a
    worker feeds its processor's worst channel demand to the
    {!Overload.dial}, and a {!Strategy.adaptive_tradeoff} rewrite reads
    the per-processor alpha on every routing decision. Each dial entry
    is written only by the domain that owns the processor. *)

type detector = Run_config.detector =
  | Safra  (** Token-ring detection (default) — reference [5]'s
               quiescence condition via EWD 998. *)
  | Dijkstra_scholten
      (** Engagement-tree detection for diffusing computations —
          reference [7]. *)

val run :
  ?config:Run_config.t ->
  Rewrite.t ->
  edb:Datalog.Database.t ->
  Sim_runtime.result
(** Execute under a {!Run_config.t} (default {!Run_config.default}).
    The fields this runtime reads are [detector], [domains], [fault],
    [capacity], [limits], [dial] and [obs]; the simulator-only fields
    (ablations, [max_rounds], [network]) are ignored. In the returned
    stats, [rounds] is the maximum number of semi-naive iterations any
    processor executed, and [active_rounds] is each processor's own
    iteration count. Both detectors produce identical answers; they
    differ only in control traffic. [fault] (default {!Fault.none})
    injects message and processor faults; the pooled answers are
    unchanged for every plan. [capacity] bounds per-channel in-flight
    tuples ([Stats.peak_in_flight] reports the observed maximum);
    [limits] arms the overload watchdog; [dial] activates adaptive
    degradation. With the default (disabled) {!Obs.sinks} the
    instrumented workers take the exact historical code path.
    Equivalent to {!open_session} followed immediately by
    {!Session.close}.
    @raise Invalid_argument if [domains < 1] or [capacity < 1] or a
    limit is nonpositive.
    @raise Overload.Overload when a watchdog limit is breached. *)

val open_session :
  ?config:Run_config.t ->
  Rewrite.t ->
  edb:Datalog.Database.t ->
  Session.t
(** Evaluate to quiescence and keep the per-processor engines and
    channel histories resident, returning a live {!Session.t}. Each
    {!Session.apply} computes the net patch with
    {!Datalog.Stratified.Live}, installs it into the resident engines
    and base fragments between domain lifetimes (net deletions are
    retracted everywhere, net base insertions become pending work at
    the processors hosting them), and re-spawns the domains for one
    more drive to quiescence — termination detection, faults, credit
    and the watchdog all behave as on the initial drive. An empty net
    batch spawns nothing. Counters accumulate across batches; crash
    plans are evaluated against each drive's local iteration counts,
    so a plan may fire on several batches.
    @raise Overload.Overload as {!run}, from [open_session] or any
    later [apply]. *)
