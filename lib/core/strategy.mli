(** Canned parallelization strategies.

    These package the paper's worked examples and schemes as one-call
    constructors producing a {!Rewrite.t}:

    - {!no_communication} — Example 1 generalized by Theorem 3;
    - {!example2} — Valduriez & Khoshafian over an arbitrary partition;
    - {!example3} — the paper's new intermediate algorithm;
    - {!wolfson_redundant} — the redundant, communication-free scheme
      opening Section 6;
    - {!tradeoff} — the Section 6 spectrum, parameterized by the
      probability [alpha] of keeping a tuple local;
    - {!hash_q} — the plain Section 3 scheme with chosen sequences;
    - {!general} — the Section 7 scheme for arbitrary programs. *)

open Datalog

val hash_q :
  ?seed:int ->
  nprocs:int ->
  ve:string list ->
  vr:string list ->
  Program.t ->
  (Rewrite.t, string) result
(** Scheme [Q] on a linear sirup with [h' = h] a modular hash on the
    given discriminating sequences. *)

val no_communication :
  ?seed:int -> nprocs:int -> Program.t -> (Rewrite.t, string) result
(** Theorem 3: discriminate on a dataflow-graph cycle with a symmetric
    hash; the resulting execution sends no tuple between distinct
    processors, and the rewrite is marked
    {!Rewrite.t.communication_free}. Errors when the sirup's dataflow
    graph is acyclic. *)

val example1 :
  ?seed:int -> nprocs:int -> Program.t -> (Rewrite.t, string) result
(** Example 1 (Wolfson & Silberschatz) on a transitive-closure-shaped
    sirup: [v(e) = v(r) = ⟨Y⟩] (the preserved head variable), no
    communication during the recursion, base relation replicated. For
    sirups beyond the TC shape use {!no_communication}, which derives
    the cycle-based choice from the dataflow graph. *)

val example2 :
  nprocs:int ->
  partition:(Tuple.t -> Pid.t) ->
  Program.t ->
  (Rewrite.t, string) result
(** Example 2 on a transitive-closure-shaped sirup
    ([t(X,Y) :- b(X,Y).  t(X,Y) :- b(X,Z), t(Z,Y).]): the base relation
    is split by the arbitrary [partition] (evaluated lazily on each
    tuple), [v(r)] is the base atom's variable pair, and the
    discriminating function is the partition itself — so each processor
    holds exactly its fragment and all communication broadcasts. *)

val example3 :
  ?seed:int -> nprocs:int -> Program.t -> (Rewrite.t, string) result
(** Example 3 on a transitive-closure-shaped sirup: [v(e) = ⟨X⟩],
    [v(r) = ⟨Z⟩] with a shared modular hash — disjoint base fragments,
    unicast communication. *)

val wolfson_redundant :
  ?seed:int -> nprocs:int -> Program.t -> (Rewrite.t, string) result
(** Section 6, first scheme [18]: the exit rule partitions by a hash of
    its head variables; the recursive rule keeps every tuple local
    ([hᵢ(x) = i]). No communication, possible redundancy, shared base
    relations. *)

val tradeoff :
  ?seed:int -> nprocs:int -> alpha:float -> Program.t ->
  (Rewrite.t, string) result
(** The Section 6 spectrum: processor [i] keeps a generated tuple with
    probability [alpha] and otherwise routes it by a shared hash of the
    recursive atom's variables. [alpha = 0.] is the non-redundant
    scheme; [alpha = 1.] is {!wolfson_redundant}. *)

val adaptive_tradeoff :
  ?seed:int ->
  nprocs:int ->
  dial:Overload.dial ->
  Program.t ->
  (Rewrite.t, string) result
(** {!tradeoff} with the per-processor alpha read from an
    {!Overload.dial} on every routing decision, so a runtime feedback
    controller can shed communication under backlog. Correct for any
    dial trajectory (Theorem 4 holds per tuple under a [Local]
    policy). *)

val general :
  ?seed:int ->
  ?choose:(Rule.t -> string list) ->
  nprocs:int ->
  Program.t ->
  (Rewrite.t, string) result
(** Scheme [T] (Section 7) for arbitrary Datalog programs. [choose]
    picks each rule's discriminating sequence (default: the variables of
    the rule's first derived body atom, or of its first body atom when
    the rule has no derived atom — as in Example 8 where
    [v(r₁) = ⟨Y⟩, v(r₂) = ⟨Z⟩] both pivot on the join variable). *)

val tc_shape : Program.t -> (Analysis.sirup, string) result
(** Recognize the transitive-closure shape required by {!example2} and
    {!example3}, i.e. a linear sirup [t(X,Y) :- b(X,Y).
    t(X,Y) :- b(X,Z), t(Z,Y).] up to renaming. *)
