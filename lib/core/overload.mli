(** Overload control: resource budgets, the structured [Overload]
    outcome, and the adaptive Section 6 retention dial.

    The paper's architecture assumes infinite channels and stores. This
    module gives both runtimes a bounded-resource story: wall-clock and
    store/outbox budgets checked by a watchdog, and — instead of an OOM
    or a hang — a structured exception carrying the partial statistics
    and the offending processor. The degradation mechanism is the
    Section 6 redundancy spectrum itself: raising a processor's
    retention fraction [alpha] (toward Wolfson's fully redundant
    scheme) sheds communication at the price of duplicated local
    firings, which is exactly the trade an overloaded channel wants.
    Theorem 4 makes this sound under {e any} per-tuple destination
    choice, so the dial may move while the computation runs. *)

open Datalog

(** Why a run was aborted. *)
type reason =
  | Deadline of { seconds : float; elapsed : float; round : int }
      (** The current drive ran past the wall-clock deadline. [round]
          is the round being executed when the watchdog fired
          (0-based; the domain and net runtimes report 0 since they
          have no global rounds). *)
  | Store_budget of { pid : Pid.t; rows : int; limit : int }
      (** Processor [pid]'s tuple store grew past [limit] rows. *)
  | Outbox_budget of { pid : Pid.t; rows : int; limit : int }
      (** Processor [pid]'s outbox backlog grew past [limit] rows: on
          the domain and net runtimes its {!Channel.backlog} (rows
          queued for credit or in flight); on the simulator the rows
          not yet transmitted (outbox, held and credit-queued). *)

type limits = {
  deadline : float option;
      (** Wall-clock budget of each drive in seconds: the initial
          evaluation and each applied batch, not an idle session. *)
  max_store_rows : int option;  (** Per-processor tuple-store budget. *)
  max_outbox_rows : int option;  (** Per-processor outbox budget. *)
}

val no_limits : limits
val is_none : limits -> bool

val validate : limits -> unit
(** @raise Invalid_argument on nonpositive budgets. *)

exception Overload of { reason : reason; stats : Stats.t }
(** Raised by the runtimes when a budget is breached. [stats] are the
    partial statistics at the moment of abort — the run's work so far
    is observable, not lost. *)

val pp_reason : Format.formatter -> reason -> unit

val reason_kind : reason -> string
(** Stable lowercase identifier of the abort kind — ["deadline"],
    ["store_budget"] or ["outbox_budget"] — used by the schema-2
    [Stats.to_json] attribution fields and the [datalogd] protocol's
    [PARTIAL] replies. *)

val db_rows : Database.t -> int
(** Exact row count of a processor's store. *)

val db_bytes : Database.t -> int
(** Word-size estimate ([rows * arity * 8] per relation) of a store's
    footprint. *)

(** {1 The adaptive retention dial}

    One [alpha] per processor, moved by backlog feedback: crossing
    [high_water] raises it by [step] (shedding communication), draining
    to [low_water] lowers it back toward the resting value. In the
    simulator the observer runs once per round per processor; in the
    domain runtime each worker observes (and writes) only its own
    processors' entries, so no entry is ever written by two domains. *)

type dial

val dial :
  ?alpha:float ->
  ?step:float ->
  ?low_water:int ->
  high_water:int ->
  nprocs:int ->
  unit ->
  dial
(** [dial ~high_water ~nprocs ()] starts every processor at [alpha]
    (default 0, the non-redundant scheme; also the floor it decays back
    to). [step] defaults to 0.25; [low_water] to [high_water / 4].
    [low_water = high_water] is accepted and makes the controller a
    no-op (a single backlog value would otherwise satisfy both the
    raise and the decay condition) — the natural "off" point when
    sweeping the water marks.
    @raise Invalid_argument on out-of-range parameters. *)

val alpha : dial -> Pid.t -> float
(** The current retention fraction of processor [pid] — read by
    {!Hash_fn.mixture_dyn} on every routing decision. *)

val observe : dial -> pid:Pid.t -> backlog:int -> unit
(** Feed one backlog observation (the processor's worst channel) into
    the controller. *)

val raises : dial -> int
(** How many times any processor's alpha was raised. *)

val decays : dial -> int
(** How many times any processor's alpha was lowered. *)
