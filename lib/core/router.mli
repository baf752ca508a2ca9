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

val make : Rewrite.t -> t

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
