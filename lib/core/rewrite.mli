(** The program transformations of Sections 3, 6 and 7.

    Given a Datalog program and one {!policy} per rule, {!make} derives
    the per-processor programs [T_i] (equivalently [Q_i]/[R_i] for
    linear sirups): every rule becomes a processing rule whose head
    writes the [@out] version of its predicate and whose derived body
    atoms read the [@in] versions, guarded by [h(v(r)) = i] for
    {!Uniform} policies. Sending rules become {!send_spec} routing
    functions; receiving and final pooling are performed by the
    runtimes. Base relations are fragmented between processors when
    every occurrence of the relation is covered by its rule's
    discriminating sequence, as prescribed at the end of Section 3. *)

type policy =
  | Uniform of Discriminant.t
      (** All processors share the discriminating function: the
          processing rule carries the guard [h(v(r)) = i] and produced
          tuples are routed by [h]. Schemes [Q] (Section 3) and [T]
          (Section 7). Non-redundant. *)
  | Local of {
      vars : string list;
      fn_for : Pid.t -> Hash_fn.t;
    }
      (** Each processor [i] routes by its own [hᵢ] and the processing
          rule is unguarded — the Section 6 scheme [R]. Requires the
          sequence to be covered by every derived body atom, so that
          routing is decided by the travelling tuple alone. May be
          redundant. *)

type send_spec = {
  ss_pred : string;  (** Original derived predicate being routed. *)
  ss_rule : int;  (** Index of the consuming rule (program order). *)
  ss_unicast : bool;  (** False = the spec broadcasts. *)
  ss_label : string;  (** e.g. ["h(Z)"] — for reports. *)
  ss_route : Pid.t -> Datalog.Tuple.t -> Pid.t list;
      (** [ss_route sender tuple] = destination processors. *)
}

type t = {
  original : Datalog.Program.t;
  nprocs : int;
  space : Pid.space;
  derived : string list;  (** Original derived predicates, sorted. *)
  programs : Datalog.Program.t array;  (** The program of each processor. *)
  sends : send_spec list;
  resident : Pid.t -> string -> Datalog.Tuple.t -> bool;
      (** Whether a base tuple is resident at a processor. *)
  fragmented : (string * bool) list;
      (** For each base predicate, whether it is fragmented (true) or
          shared/replicated (false). *)
  communication_free : bool;
      (** Every send spec routes each tuple to its producer or to
          nobody: the processor programs have no real sending or
          receiving rules. {!make} sets it when [nprocs = 1];
          {!Strategy.no_communication} sets it for the discriminating
          sequences of Theorem 3. The runtimes then evaluate each
          processor program in place ({!Router.make}); a wrong claim
          raises [Invalid_argument] at the first cross-processor
          destination. *)
}

val out_pred : string -> string
(** [t] ↦ [t@out] — the tuples generated at a processor. *)

val in_pred : string -> string
(** [t] ↦ [t@in] — the tuples received by a processor. *)

val original_pred : string -> string
(** Strip an [@in]/[@out] suffix, if any. *)

val make :
  ?space:Pid.space -> Datalog.Program.t -> policies:policy list -> t
(** Rewrite a program. [policies] pairs with the program's rules in
    order. All policy hash functions must map into spaces of one size,
    which becomes [nprocs]; [space] (default: the first policy's space)
    only provides processor labels.
    @raise Invalid_argument if the program fails {!Datalog.Program.check},
    the policy list length mismatches, a discriminating sequence is not
    contained in its rule's body, a {!Local} policy is applied to a rule
    without derived body atoms or its sequence is not covered by every
    derived body atom, or the policies disagree on the processor
    count. *)

val pp : Format.formatter -> t -> unit
(** Print the per-processor programs and send specifications. *)
