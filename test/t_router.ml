(* Routing: the shared route table, per-tuple destination dedup, local
   delivery and the channel history that only fault plans keep.

   A fault-free, uncredited run routes each derived tuple once: no
   per-channel history, and a self-routed tuple goes straight into its
   engine's delta. A run under a fault plan keeps the history that
   crash recovery replays. A plan that injects nothing — a checkpoint
   period far beyond any run — takes the history-keeping path without
   perturbing the run, so the two paths must agree counter for
   counter. *)

open Datalog
open Pardatalog
open Helpers

let nonlinear_general n =
  match Strategy.general ~nprocs:n Workload.Progs.ancestor_nonlinear with
  | Ok rw -> rw
  | Error msg -> Alcotest.fail msg

(* ------------------------------------------------------------------ *)
(* The route table                                                     *)
(* ------------------------------------------------------------------ *)

let table_cases =
  [
    case "route table resolves each derived predicate's names" (fun () ->
        let routes = Router.make (nonlinear_general 2) in
        (match Router.of_out routes "anc@out" with
         | None -> Alcotest.fail "anc@out has no route"
         | Some r ->
           Alcotest.(check string) "original" "anc" r.Router.pred;
           Alcotest.(check string) "in name" "anc@in" r.Router.in_name;
           Alcotest.(check int) "both consuming atoms" 2
             (List.length r.Router.specs));
        Alcotest.(check string) "find by original name" "anc@in"
          (Router.find routes "anc").Router.in_name;
        List.iter
          (fun name ->
            Alcotest.(check bool) (name ^ " is not an @out name") true
              (Router.of_out routes name = None))
          [ "anc"; "anc@in"; "par" ]);
    case "destinations list each processor once" (fun () ->
        let routes = Router.make (nonlinear_general 3) in
        let r = Router.find routes "anc" in
        for a = 0 to 5 do
          for b = 0 to 5 do
            let t = Tuple.of_ints [ a; b ] in
            let union =
              List.concat_map
                (fun (s : Rewrite.send_spec) -> s.ss_route 0 t)
                r.Router.specs
            in
            let dests = Router.destinations r 0 t in
            Alcotest.(check (list int)) "same processors, once each"
              (List.sort_uniq compare union)
              (List.sort compare dests)
          done
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Multi-spec pin                                                      *)
(* ------------------------------------------------------------------ *)

(* Non-linear ancestor: one derived predicate feeds two consuming
   atoms, so each tuple has two send specs that often agree on the
   destination. The counts below were recorded when a per-channel
   history suppressed the second copy; per-tuple destination dedup
   must reproduce them exactly, self-channel included. *)
let pin_graph =
  [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7); (7, 8);
    (2, 5); (5, 1); (8, 3); (6, 0) ]

let pinned =
  [
    (2, [| [| 56; 65 |]; [| 56; 65 |] |], [| 121; 121 |]);
    ( 3,
      [| [| 32; 56; 45 |]; [| 32; 56; 45 |]; [| 32; 56; 45 |] |],
      [| 133; 133; 133 |] );
  ]

let pin_cases =
  List.concat_map
    (fun (module R : Runtime.S) ->
      List.map
        (fun (n, channels, sent) ->
          case
            (Printf.sprintf
               "non-linear ancestor, two specs per tuple: counts pinned \
                (%s, N=%d)"
               R.name n)
            (fun () ->
              let r =
                R.run ~config:Run_config.default (nonlinear_general n)
                  ~edb:(edb_of_edges pin_graph)
              in
              let st = r.Sim_runtime.stats in
              Alcotest.(check (array (array int)))
                "channel_tuples" channels st.Stats.channel_tuples;
              Alcotest.(check (array int)) "tuples_sent" sent
                (Array.map (fun p -> p.Stats.tuples_sent) st.Stats.per_proc);
              Alcotest.check relation_t "answers"
                (relation_of_pairs (closure_pairs pin_graph))
                (anc_relation r.Sim_runtime.answers)))
        pinned)
    Runtime.all

(* ------------------------------------------------------------------ *)
(* Fast path = reliable layer, on random sirups                        *)
(* ------------------------------------------------------------------ *)

type scheme = Nocomm | Hash_q | Wolfson | Broadcast

let scheme_name = function
  | Nocomm -> "nocomm"
  | Hash_q -> "example3/hash_q"
  | Wolfson -> "wolfson"
  | Broadcast -> "broadcast"

(* Section 7 with each rule discriminating on variables its derived
   body atoms do not carry, so that their send specs broadcast. *)
let broadcast_choice program (r : Rule.t) =
  let derived = Program.derived_predicates program in
  let carried =
    List.concat_map
      (fun (a : Atom.t) -> if List.mem a.pred derived then Atom.vars a else [])
      r.body
  in
  match List.filter (fun v -> not (List.mem v carried)) (Rule.body_vars r) with
  | [] -> Rule.body_vars r
  | vs -> vs

let rewrite_for scheme (gs, n, seed, picks) =
  let program = Parser.program_exn gs.T_random_sirups.gs_source in
  let ok = Result.to_option in
  match scheme with
  | Nocomm -> ok (Strategy.no_communication ~seed ~nprocs:n program)
  | Hash_q ->
    (match Strategy.example3 ~seed ~nprocs:n program with
     | Ok rw -> Some rw
     | Error _ -> Option.map snd (T_random_sirups.build gs n seed picks))
  | Wolfson -> ok (Strategy.wolfson_redundant ~seed ~nprocs:n program)
  | Broadcast ->
    ok
      (Strategy.general ~seed ~choose:(broadcast_choice program) ~nprocs:n
         program)

let differential_arb =
  QCheck.make
    ~print:(fun ((gs, n, seed, _), scheme) ->
      Printf.sprintf "%s\nN=%d seed=%d scheme=%s"
        gs.T_random_sirups.gs_source n seed (scheme_name scheme))
    QCheck.Gen.(
      let* gs, _, seed, picks = T_random_sirups.config_arb.QCheck.gen in
      let* n = int_range 1 4 in
      let* scheme = oneofl [ Nocomm; Hash_q; Wolfson; Broadcast ] in
      return ((gs, n, seed, picks), scheme))

(* Active, so the runtimes keep channel histories and use the reliable
   layer, yet it drops, duplicates, delays and crashes nothing, and its
   first checkpoint lies beyond any run here. *)
let quiet_plan = Fault.make ~checkpoint_every:1_000_000 ()

let quiet = Run_config.(default |> with_fault quiet_plan)

let per_proc (st : Stats.t) =
  Array.map
    (fun p ->
      Stats.
        ( p.firings,
          p.tuples_sent,
          p.tuples_received,
          p.tuples_accepted ))
    st.Stats.per_proc

let prop_fast_path_sim =
  QCheck.Test.make ~count:200
    ~name:"fault-free routing = reliable layer under a quiet plan (sim)"
    differential_arb
    (fun ((cfg, scheme) : _ * scheme) ->
      match rewrite_for scheme cfg with
      | None -> QCheck.assume_fail ()
      | Some rw ->
        let gs, _, seed, _ = cfg in
        let edb = T_random_sirups.edb_for gs seed in
        let fast = Sim_runtime.run rw ~edb in
        let reliable = Sim_runtime.run ~config:quiet rw ~edb in
        Database.equal fast.answers reliable.answers
        && fast.stats.Stats.channel_tuples
           = reliable.stats.Stats.channel_tuples
        && per_proc fast.stats = per_proc reliable.stats)

let prop_fast_path_domains =
  QCheck.Test.make ~count:50
    ~name:"fault-free routing = reliable layer under a quiet plan (domains)"
    differential_arb
    (fun ((cfg, scheme) : _ * scheme) ->
      match rewrite_for scheme cfg with
      | None -> QCheck.assume_fail ()
      | Some rw ->
        let gs, _, seed, _ = cfg in
        let edb = T_random_sirups.edb_for gs seed in
        let fast = Domain_runtime.run rw ~edb in
        let reliable = Domain_runtime.run ~config:quiet rw ~edb in
        Database.equal fast.answers reliable.answers
        && fast.stats.Stats.channel_tuples
           = reliable.stats.Stats.channel_tuples)

let suites =
  [
    ("router", table_cases @ pin_cases);
    ( "router-differential",
      List.map QCheck_alcotest.to_alcotest
        [ prop_fast_path_sim; prop_fast_path_domains ] );
  ]
