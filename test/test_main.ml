(* Aggregates every suite into one alcotest binary.

   T_net comes first: its tests fork worker processes, and OCaml
   forbids Unix.fork for the rest of the process once any domain has
   been created — which the domain-runtime suites (parallel, fault,
   ...) do. *)

let () =
  Alcotest.run "pardatalog"
    (T_net.suites @ T_incr.net_suites @ T_backoff.suites
   @ T_basics.suites @ T_relation.suites @ T_syntax.suites @ T_serve.suites
   @ T_analysis.suites @ T_eval.suites @ T_hash.suites @ T_rewrite.suites
   @ T_network.suites @ T_parallel.suites @ T_strategy.suites
   @ T_stratified.suites @ T_decompose.suites @ T_dscholten.suites @ T_props.suites @ T_random_sirups.suites @ T_edge_cases.suites @ T_coverage.suites
   @ T_check.suites @ T_fault.suites @ T_overload.suites @ T_obs.suites
   @ T_storage.suites @ T_plan.suites @ T_incr.suites @ T_router.suites
   @ T_channel.suites)
