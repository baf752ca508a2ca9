(** The reliable, credit-gated channel layer (DESIGN.md §19).

    The sending side of one processor's outgoing channels, one per
    destination, as a state machine with no transport and no clock of
    its own: the caller supplies both. It numbers batches per channel,
    keeps each batch until its ack for retransmission
    ([~reliable:true]), and under a [~capacity] queues the rows that
    exceed a channel's credit until an ack returns it. The fault-free,
    uncredited path numbers a batch and transmits it, keeping no copy.
    {!Dedup} is the receiving side. *)

open Datalog

type batch = (string * Tuple.t) list

type transmit =
  dst:Pid.t -> seq:int -> attempt:int -> replay:bool -> batch -> unit
(** One transmission of batch [seq] to [dst]. Attempt [0] happens once
    per sequence number, so a termination detector counts its send
    there. [replay] holds when every row is a recovery replay. *)

type t

val create :
  nprocs:int ->
  capacity:int option ->
  reliable:bool ->
  retry:Backoff.t ->
  clock:(unit -> float) ->
  ?metrics:Obs.Metrics.t ->
  Fault.counters ->
  transmit ->
  t
(** Channels to [nprocs] destinations. [capacity] bounds the rows in
    flight (sent, not yet acked) per channel. Under [reliable],
    attempt [k] of an unacked batch is followed by attempt [k + 1]
    [Backoff.delay_ms retry k] ms later by [clock] (in seconds). The
    counters receive [n_replayed], [n_acks] and [n_retransmits];
    [metrics] (default none) [runtime.tuples_sent],
    [runtime.credit_stalls], [runtime.peak_in_flight] and
    [runtime.retransmits]. *)

val send : t -> replay:bool -> Pid.t -> batch -> unit
(** [send t ~replay dst rows]: uncredited, one batch transmitted now;
    under a capacity, the rows are queued, then every channel
    transmits as many batches as its credit allows, each split to the
    remaining credit. Rows count in {!sent_row}, or in [n_replayed]
    under [~replay:true]. An empty [rows] does nothing. *)

val ack : t -> dst:Pid.t -> seq:int -> unit
(** The ack of batch [seq]: forgets it, returns its credit and
    flushes as {!send} does. A repeated ack does nothing. *)

val retransmit_due : t -> unit
(** Transmit again every unacked batch whose retry time is at or
    before [clock ()]. *)

val count_local : t -> Pid.t -> unit
(** Count in {!sent_row} one row delivered without the channel. *)

val sent_row : t -> int array
(** Rows sent per destination, replays excluded (live, not a copy). *)

val credit_stalls : t -> int
(** Channels left with queued rows and no credit, counted after each
    flush. *)

val peak_in_flight : t -> int
(** The most rows ever in flight on one channel. *)

val queued : t -> int
(** Rows waiting for credit. *)

val backlog : t -> int
(** Rows queued or in flight. *)

val backlog_to : t -> Pid.t -> int
(** {!backlog} of the channel to one destination. *)

val outbox_peak : t -> int * int
(** The most rows ever queued after a {!send}, and their bytes
    ([arity * 8] per row). *)

val idle : t -> bool
(** Nothing queued and nothing unacked. *)

(** Receive-side duplicate suppression, keyed per batch by its sender
    and sequence number (plus, say, the sender's incarnation). *)
module Dedup : sig
  type 'k t

  val create : unit -> 'k t

  val first : 'k t -> 'k -> bool
  (** Records the key; [true] iff it was not yet recorded. *)
end
