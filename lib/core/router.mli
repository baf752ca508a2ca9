(** Routing of derived tuples, shared by the three runtimes.

    A rewritten program names every derived predicate three ways: the
    original name, the [@out] name its processing rules write and the
    [@in] name its consuming atoms read ({!Rewrite}). A {!t} resolves
    those names once per session, so routing one produced tuple costs a
    table lookup and the send specs' hash functions — no string
    surgery, no list scans. *)

open Datalog

(** A (predicate, tuple) pair as a hashtable key: the channel
    histories, the receive-side filters and the checkpoint covers are
    all keyed this way. *)
module Key : sig
  type t = string * Tuple.t

  val equal : t -> t -> bool
  val hash : t -> int
end

module Ktbl : Hashtbl.S with type key = Key.t

val mark_new : unit Ktbl.t -> Key.t -> bool
(** [mark_new seen key] adds [key] to [seen]; [true] iff it was not
    there yet. *)

val base_edb : Rewrite.t -> Database.t -> Database.t
(** A copy of the input EDB plus the base facts written in the program
    text: the EDB every runtime evaluates over.
    @raise Invalid_argument on a fact of a derived predicate, which the
    rewrite does not support. *)

val build_edb :
  ?replicate:bool -> Rewrite.t -> Database.t -> Pid.t -> Database.t
(** The base fragment resident at a processor: every tuple of the EDB
    that {!Rewrite.t.resident} places there, or all of them under
    [~replicate:true] (default [false]). *)

type route = private {
  pred : string;  (** Original derived predicate. *)
  in_name : string;  (** [pred@in]. *)
  specs : Rewrite.send_spec list;
      (** Send specs routing [pred], in {!Rewrite.t.sends} order. *)
}

type t
(** A per-session route table. Immutable once built, so the domain
    runtime's workers may share one. *)

val make : ?in_place:bool -> Rewrite.t -> t
(** [~in_place:true] (default [false]) builds the table of an in-place
    run: each processor's engine program reads every derived body atom
    from [p@out] instead of [p@in], so a tuple its own step derives is
    the next step's delta — no routing copy, no [@in] relation, no
    {!Seminaive.inject}. Sound only when no tuple leaves its producer,
    so the rewrite must be {!Rewrite.t.communication_free}.
    @raise Invalid_argument otherwise. *)

val in_place : t -> bool

val program : t -> Pid.t -> Program.t
(** The program a processor's engine runs: {!Rewrite.t.programs}, or
    its in-place form. *)

val engine : t -> pushdown:bool -> Pid.t -> edb:Database.t -> Seminaive.t
(** A fresh engine running {!program} over a base fragment. *)

val of_out : t -> string -> route option
(** The route of a produced [@out] name; [None] for any other name. *)

val find : t -> string -> route
(** The route of an original derived predicate.
    @raise Not_found for any other name. *)

val destinations : route -> Pid.t -> Tuple.t -> Pid.t list
(** [destinations r sender tuple]: every processor some send spec of
    [r] routes [tuple] to, each listed once. Deduplicating here is what
    lets a fault-free run drop the per-channel history: each [@out]
    tuple leaves its engine once, so one tuple never travels one
    channel twice. *)

val travels : route -> Pid.t -> Tuple.t -> bool
(** In-place routing: whether [tuple], derived at [sender], would
    travel its producer's own channel — the pattern check of
    {!destinations}, which then yields at most the producer.
    @raise Invalid_argument if a spec routes it to another processor:
    the rewrite's communication-free claim is wrong. *)

val union : Relation.t list -> Relation.t option
(** The union of the relations as a fresh one: a structural clone
    ({!Relation.copy}) of the first non-empty relation, then the rest
    added tuple by tuple. [None] when every relation is empty. *)

val pool :
  edb:Database.t -> string list -> stored:(string -> string) ->
  Database.t list -> Database.t * int
(** [pool ~edb preds ~stored stores]: a copy of [edb] in which each
    predicate [p] of [preds] is bound to the {!union} of the [stored p]
    relations of [stores] (added to the EDB's own [p], if it binds
    one), and the number of tuples pooled, counted once per store. *)
