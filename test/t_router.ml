(* Routing: the shared route table, per-tuple destination dedup, local
   delivery, in-place evaluation of communication-free processors and
   the channel history that only fault plans keep.

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
(* In place: communication-free processors                             *)
(* ------------------------------------------------------------------ *)

(* Every value below was recorded on the sim runtime before in-place
   evaluation existed, when each self-routed tuple was still copied
   into [anc@in]. In place, the engine reads [anc@out] directly; every
   counter must be unchanged, and the store must be smaller by exactly
   the [@in] copy — one row per accepted tuple. *)
type pin = {
  graph : string;
  scheme : string;
  n : int;
  rounds : int;
  channels : int array array;
  firings : int array;
  new_ : int array;
  dup : int array;
  iterations : int array;
  sent : int array;
  received : int array;
  accepted : int array;
  active : int array;
  outbox_rows : int array;
  outbox_bytes : int array;
  parent_store_rows : int array;
}

let in_place_pins =
  [
    {
      graph = "chain"; scheme = "nocomm"; n = 1; rounds = 30;
      channels = [|[|435|]|];
      firings = [|435|]; new_ = [|435|];
      dup = [|0|]; iterations = [|29|];
      sent = [|435|]; received = [|435|];
      accepted = [|435|]; active = [|29|];
      outbox_rows = [|28|]; outbox_bytes = [|448|];
      parent_store_rows = [|899|];
    };
    {
      graph = "chain"; scheme = "nocomm"; n = 2; rounds = 30;
      channels = [|[|121; 0|]; [|0; 314|]|];
      firings = [|121; 314|]; new_ = [|121; 314|];
      dup = [|0; 0|]; iterations = [|28; 29|];
      sent = [|121; 314|]; received = [|121; 314|];
      accepted = [|121; 314|]; active = [|28; 29|];
      outbox_rows = [|9; 19|]; outbox_bytes = [|144; 304|];
      parent_store_rows = [|271; 657|];
    };
    {
      graph = "chain"; scheme = "nocomm"; n = 3; rounds = 30;
      channels = [|[|228; 0; 0|]; [|0; 101; 0|]; [|0; 0; 106|]|];
      firings = [|228; 101; 106|]; new_ = [|228; 101; 106|];
      dup = [|0; 0; 0|]; iterations = [|29; 27; 26|];
      sent = [|228; 101; 106|]; received = [|228; 101; 106|];
      accepted = [|228; 101; 106|]; active = [|29; 27; 26|];
      outbox_rows = [|13; 7; 8|]; outbox_bytes = [|208; 112; 128|];
      parent_store_rows = [|485; 231; 241|];
    };
    {
      graph = "chain"; scheme = "example3"; n = 1; rounds = 30;
      channels = [|[|435|]|];
      firings = [|435|]; new_ = [|435|];
      dup = [|0|]; iterations = [|29|];
      sent = [|435|]; received = [|435|];
      accepted = [|435|]; active = [|29|];
      outbox_rows = [|28|]; outbox_bytes = [|448|];
      parent_store_rows = [|899|];
    };
    {
      graph = "chain"; scheme = "general"; n = 1; rounds = 30;
      channels = [|[|435|]|];
      firings = [|435|]; new_ = [|435|];
      dup = [|0|]; iterations = [|29|];
      sent = [|435|]; received = [|435|];
      accepted = [|435|]; active = [|29|];
      outbox_rows = [|28|]; outbox_bytes = [|448|];
      parent_store_rows = [|899|];
    };
    {
      graph = "chain"; scheme = "nonlinear"; n = 1; rounds = 7;
      channels = [|[|435|]|];
      firings = [|4089|]; new_ = [|435|];
      dup = [|3654|]; iterations = [|6|];
      sent = [|435|]; received = [|435|];
      accepted = [|435|]; active = [|6|];
      outbox_rows = [|140|]; outbox_bytes = [|2240|];
      parent_store_rows = [|899|];
    };
    {
      graph = "random"; scheme = "nocomm"; n = 1; rounds = 7;
      channels = [|[|400|]|];
      firings = [|1260|]; new_ = [|400|];
      dup = [|860|]; iterations = [|6|];
      sent = [|400|]; received = [|400|];
      accepted = [|400|]; active = [|6|];
      outbox_rows = [|128|]; outbox_bytes = [|2048|];
      parent_store_rows = [|860|];
    };
    {
      graph = "random"; scheme = "nocomm"; n = 2; rounds = 7;
      channels = [|[|160; 0|]; [|0; 240|]|];
      firings = [|500; 760|]; new_ = [|160; 240|];
      dup = [|340; 520|]; iterations = [|5; 6|];
      sent = [|160; 240|]; received = [|160; 240|];
      accepted = [|160; 240|]; active = [|5; 6|];
      outbox_rows = [|61; 84|]; outbox_bytes = [|976; 1344|];
      parent_store_rows = [|380; 540|];
    };
    {
      graph = "random"; scheme = "nocomm"; n = 3; rounds = 7;
      channels = [|[|200; 0; 0|]; [|0; 80; 0|]; [|0; 0; 120|]|];
      firings = [|631; 249; 380|]; new_ = [|200; 80; 120|];
      dup = [|431; 169; 260|]; iterations = [|6; 5; 5|];
      sent = [|200; 80; 120|]; received = [|200; 80; 120|];
      accepted = [|200; 80; 120|]; active = [|6; 5; 5|];
      outbox_rows = [|64; 32; 40|]; outbox_bytes = [|1024; 512; 640|];
      parent_store_rows = [|460; 220; 300|];
    };
    {
      graph = "random"; scheme = "example3"; n = 1; rounds = 7;
      channels = [|[|400|]|];
      firings = [|1260|]; new_ = [|400|];
      dup = [|860|]; iterations = [|6|];
      sent = [|400|]; received = [|400|];
      accepted = [|400|]; active = [|6|];
      outbox_rows = [|128|]; outbox_bytes = [|2048|];
      parent_store_rows = [|860|];
    };
    {
      graph = "random"; scheme = "general"; n = 1; rounds = 7;
      channels = [|[|400|]|];
      firings = [|1260|]; new_ = [|400|];
      dup = [|860|]; iterations = [|6|];
      sent = [|400|]; received = [|400|];
      accepted = [|400|]; active = [|6|];
      outbox_rows = [|128|]; outbox_bytes = [|2048|];
      parent_store_rows = [|860|];
    };
    {
      graph = "random"; scheme = "nonlinear"; n = 1; rounds = 5;
      channels = [|[|400|]|];
      firings = [|8060|]; new_ = [|400|];
      dup = [|7660|]; iterations = [|4|];
      sent = [|400|]; received = [|400|];
      accepted = [|400|]; active = [|4|];
      outbox_rows = [|198|]; outbox_bytes = [|3168|];
      parent_store_rows = [|860|];
    };
  ]

let pin_edges = function
  | "chain" -> Workload.Graphgen.chain 30
  | _ ->
    Workload.Graphgen.random_digraph (Workload.Rng.create ~seed:7) ~nodes:20
      ~edges:60

let pin_rewrite scheme n =
  let get = function Ok rw -> rw | Error msg -> Alcotest.fail msg in
  match scheme with
  | "nocomm" -> get (Strategy.no_communication ~nprocs:n ancestor)
  | "example3" -> get (Strategy.example3 ~nprocs:n ancestor)
  | "general" -> get (Strategy.general ~nprocs:n ancestor)
  | _ -> nonlinear_general n

let pin_name pin =
  Printf.sprintf "%s, %s ancestor, N=%d" pin.graph pin.scheme pin.n

let in_place_cases =
  List.map
    (fun pin ->
      case ("in place, counters pinned: " ^ pin_name pin) (fun () ->
          let rw = pin_rewrite pin.scheme pin.n in
          Alcotest.(check bool) "communication-free" true
            rw.Rewrite.communication_free;
          let edges = pin_edges pin.graph in
          let r = Sim_runtime.run rw ~edb:(edb_of_edges edges) in
          let st = r.Sim_runtime.stats in
          let field name expected f =
            Alcotest.(check (array int)) name expected
              (Array.map f st.Stats.per_proc)
          in
          Alcotest.(check int) "rounds" pin.rounds st.Stats.rounds;
          Alcotest.(check (array (array int)))
            "channel_tuples" pin.channels st.Stats.channel_tuples;
          field "firings" pin.firings (fun p -> p.Stats.firings);
          field "new" pin.new_ (fun p -> p.Stats.new_tuples);
          field "duplicates" pin.dup (fun p -> p.Stats.duplicate_firings);
          field "iterations" pin.iterations (fun p -> p.Stats.iterations);
          field "sent" pin.sent (fun p -> p.Stats.tuples_sent);
          field "received" pin.received (fun p -> p.Stats.tuples_received);
          field "accepted" pin.accepted (fun p -> p.Stats.tuples_accepted);
          field "active_rounds" pin.active (fun p -> p.Stats.active_rounds);
          field "outbox_peak_rows" pin.outbox_rows
            (fun p -> p.Stats.outbox_peak_rows);
          field "outbox_peak_bytes" pin.outbox_bytes
            (fun p -> p.Stats.outbox_peak_bytes);
          field "store_rows: no @in copy"
            (Array.map2 ( - ) pin.parent_store_rows pin.accepted)
            (fun p -> p.Stats.store_rows);
          Alcotest.check relation_t "answers"
            (relation_of_pairs (closure_pairs edges))
            (anc_relation r.Sim_runtime.answers);
          let d = Domain_runtime.run rw ~edb:(edb_of_edges edges) in
          Alcotest.(check (array (array int)))
            "domains: channel_tuples" pin.channels
            d.Sim_runtime.stats.Stats.channel_tuples;
          Alcotest.check relation_t "domains: answers"
            (relation_of_pairs (closure_pairs edges))
            (anc_relation d.Sim_runtime.answers)))
    in_place_pins

let wrong_claim_cases =
  let false_claim () =
    {
      (Result.get_ok (Strategy.example3 ~nprocs:2 ancestor)) with
      Rewrite.communication_free = true;
    }
  in
  let edb () = edb_of_edges (Workload.Graphgen.chain 12) in
  [
    case "a false communication-free claim raises (sim)" (fun () ->
        match Sim_runtime.run (false_claim ()) ~edb:(edb ()) with
        | _ -> Alcotest.fail "example3 at N=2 ran in place"
        | exception Invalid_argument _ -> ());
    case "a false communication-free claim raises (domains)" (fun () ->
        match Domain_runtime.run (false_claim ()) ~edb:(edb ()) with
        | _ -> Alcotest.fail "example3 at N=2 ran in place"
        | exception Invalid_argument _ -> ());
    case "only a communication-free rewrite gets an in-place table"
      (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:2 ancestor) in
        Alcotest.(check bool) "example3 at N=2 is not free" false
          rw.Rewrite.communication_free;
        match Router.make ~in_place:true rw with
        | _ -> Alcotest.fail "in-place table for example3 at N=2"
        | exception Invalid_argument _ -> ());
  ]

(* Ablation A3 on domains: without guard pushdown the join scans more
   candidates, yet fires exactly the same substitutions. The workload
   needs a guard that filters before a later atom: under example3 on
   linear ancestor every delta tuple passes its guard, so pushdown
   changes no probe count there. One domain makes the count
   deterministic. *)
let pushdown_case =
  case "domains honour with_pushdown false (A3)" (fun () ->
      let rw =
        Result.get_ok
          (Strategy.general ~nprocs:2 Workload.Progs.ancestor_nonlinear)
      in
      let edb =
        edb_of_edges
          (Workload.Graphgen.random_digraph (Workload.Rng.create ~seed:4)
             ~nodes:40 ~edges:80)
      in
      let run pushdown =
        let metrics = Obs.Metrics.create () in
        let config =
          Run_config.(
            default |> with_pushdown pushdown |> with_domains (Some 1)
            |> with_obs { Obs.trace = Obs.Trace.none; metrics })
        in
        let r = Domain_runtime.run ~config rw ~edb in
        (r, Obs.Metrics.counter metrics "joiner.probes")
      in
      let pushed, pushed_probes = run true in
      let flat, flat_probes = run false in
      Alcotest.(check bool)
        (Printf.sprintf "more probes without pushdown (%d > %d)" flat_probes
           pushed_probes)
        true (flat_probes > pushed_probes);
      Alcotest.check database_t "answers" pushed.Sim_runtime.answers
        flat.Sim_runtime.answers;
      Alcotest.(check int) "total firings"
        (Stats.total_firings pushed.Sim_runtime.stats)
        (Stats.total_firings flat.Sim_runtime.stats))

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
    ( "router",
      table_cases @ pin_cases @ in_place_cases @ wrong_claim_cases
      @ [ pushdown_case ] );
    ( "router-differential",
      List.map QCheck_alcotest.to_alcotest
        [ prop_fast_path_sim; prop_fast_path_domains ] );
  ]
