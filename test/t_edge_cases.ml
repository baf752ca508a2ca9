(* Edge cases across the stack: zero-arity predicates, constants in
   rules, repeated head variables, symbol constants, deep recursion,
   and robustness properties. *)

open Datalog
open Pardatalog
open Helpers

let zero_arity_tests =
  [
    case "zero-arity predicates evaluate sequentially" (fun () ->
        let p = Parser.program_exn "flag :- e(X,Y). reached :- flag." in
        let db = edb_of_edges ~pred:"e" [ (1, 2) ] in
        let out, _ = Seminaive.evaluate p db in
        Alcotest.(check int) "flag derived" 1 (Database.cardinal out "flag");
        Alcotest.(check int) "reached derived" 1
          (Database.cardinal out "reached");
        let empty, _ = Seminaive.evaluate p (Database.create ()) in
        Alcotest.(check int) "no flag without edges" 0
          (Database.cardinal empty "flag"));
    case "zero-arity predicates run in parallel" (fun () ->
        let p = Parser.program_exn "flag :- e(X,Y). reached :- flag." in
        let db = edb_of_edges ~pred:"e" [ (1, 2); (3, 4) ] in
        match Strategy.general ~nprocs:3 p with
        | Error e -> Alcotest.fail e
        | Ok rw ->
          let report = Verify.check rw ~edb:db in
          Alcotest.(check bool) "equal" true report.Verify.equal_answers;
          Alcotest.(check bool) "non-redundant" true
            report.Verify.non_redundant);
    case "empty discriminating sequence pins a rule to one processor"
      (fun () ->
        let p = Parser.program_exn "flag :- e(X,Y)." in
        let h0 = Hash_fn.modulo ~nprocs:4 ~arity:0 () in
        let rw =
          Rewrite.make p
            ~policies:[ Rewrite.Uniform (Discriminant.make ~vars:[] ~fn:h0) ]
        in
        let db = edb_of_edges ~pred:"e" [ (1, 2) ] in
        let r = Sim_runtime.run rw ~edb:db in
        Alcotest.(check int) "flag derived once" 1
          (Database.cardinal r.Sim_runtime.answers "flag");
        let busy =
          Array.to_list r.Sim_runtime.stats.Stats.per_proc
          |> List.filter (fun p -> p.Stats.firings > 0)
        in
        Alcotest.(check int) "single processor fired" 1 (List.length busy));
  ]

let constant_tests =
  [
    case "constants in bodies act as selections" (fun () ->
        let p = Parser.program_exn "root_child(X) :- par(0, X)." in
        let db = edb_of_edges [ (0, 1); (0, 2); (1, 3) ] in
        let out, _ = Seminaive.evaluate p db in
        Alcotest.(check int) "two children" 2
          (Database.cardinal out "root_child"));
    case "constants in bodies survive parallelization" (fun () ->
        let p =
          Parser.program_exn
            "r(X,Y) :- e(X,Y). r(X,Y) :- e(X,Z), r(Z,Y).
             from_zero(Y) :- r(0, Y)."
        in
        let db = edb_of_edges ~pred:"e" (Workload.Graphgen.chain 8) in
        match Strategy.general ~nprocs:3 p with
        | Error e -> Alcotest.fail e
        | Ok rw ->
          let report = Verify.check rw ~edb:db in
          Alcotest.(check bool) "equal" true report.Verify.equal_answers);
    case "constants in heads are produced" (fun () ->
        let p = Parser.program_exn "tagged(1, X) :- e(X, Y)." in
        let db = edb_of_edges ~pred:"e" [ (7, 8) ] in
        let out, _ = Seminaive.evaluate p db in
        Alcotest.(check bool) "tuple present" true
          (Relation.mem (Database.get out "tagged") (Tuple.of_ints [ 1; 7 ])));
    case "symbol constants flow through the parallel runtimes" (fun () ->
        let db = Database.create () in
        List.iter
          (fun (a, b) ->
            ignore (Database.add_fact db "par" (Tuple.of_syms [ a; b ])))
          [ ("a", "b"); ("b", "c"); ("c", "d") ];
        let rw = Result.get_ok (Strategy.example3 ~nprocs:3 ancestor) in
        let report = Verify.check rw ~edb:db in
        Alcotest.(check bool) "equal" true report.Verify.equal_answers;
        let r = Domain_runtime.run rw ~edb:db in
        Alcotest.(check bool) "a reaches d" true
          (Relation.mem
             (Database.get r.Sim_runtime.answers "anc")
             (Tuple.of_syms [ "a"; "d" ])));
  ]

let repeated_var_sirup =
  Parser.program_exn "p(X,Y) :- q(X,Y). p(Y,Y) :- p(X,Y), q(Y,X)."

let repeated_var_tests =
  [
    case "repeated head variables: sequential = naive" (fun () ->
        let db = edb_of_edges ~pred:"q" [ (1, 2); (2, 1); (3, 3); (2, 3) ] in
        let s, _ = Seminaive.evaluate repeated_var_sirup db in
        let n = Naive.evaluate repeated_var_sirup db in
        Alcotest.check relation_t "equal" (Database.get s "p")
          (Database.get n "p"));
    case "repeated head variables through scheme Q" (fun () ->
        let db = edb_of_edges ~pred:"q" [ (1, 2); (2, 1); (3, 3); (2, 3) ] in
        match Strategy.hash_q ~nprocs:3 ~ve:[ "Y" ] ~vr:[ "Y" ] repeated_var_sirup with
        | Error e -> Alcotest.fail e
        | Ok rw ->
          let report = Verify.check rw ~edb:db in
          Alcotest.(check bool) "equal" true report.Verify.equal_answers;
          Alcotest.(check bool) "non-redundant" true
            report.Verify.non_redundant);
    case "repeated head variables through Derive (union-find path)"
      (fun () ->
        let s = Result.get_ok (Analysis.as_sirup repeated_var_sirup) in
        match
          Derive.minimal_network
            { sirup = s; ve = [ "Y" ]; vr = [ "Y" ]; spec = Hash_fn.Bitvec }
        with
        | Error e -> Alcotest.fail e
        | Ok derived ->
          (* Execute with the matching runtime hash and check channel
             containment, over several bit functions. *)
          List.iter
            (fun seed ->
              let h = Hash_fn.bitvec ~seed ~arity:1 () in
              let rw =
                Rewrite.make repeated_var_sirup
                  ~policies:
                    [
                      Rewrite.Uniform (Discriminant.make ~vars:[ "Y" ] ~fn:h);
                      Rewrite.Uniform (Discriminant.make ~vars:[ "Y" ] ~fn:h);
                    ]
              in
              let db =
                edb_of_edges ~pred:"q" [ (1, 2); (2, 1); (3, 3); (2, 3); (4, 4) ]
              in
              let r = Sim_runtime.run rw ~edb:db in
              Alcotest.(check bool)
                (Printf.sprintf "channels within derived (seed %d)" seed)
                true
                (Verify.channels_within r.Sim_runtime.stats derived))
            [ 0; 1; 2 ]);
  ]

let robustness_tests =
  [
    case "derived-predicate facts are rejected by the runtimes" (fun () ->
        let p =
          Parser.program_exn
            "anc(X,Y) :- par(X,Y). anc(X,Y) :- par(X,Z), anc(Z,Y). anc(9,9)."
        in
        let rw =
          Result.get_ok (Strategy.hash_q ~nprocs:2 ~ve:[ "Y" ] ~vr:[ "Y" ] p)
        in
        List.iter
          (fun (name, run) ->
            Alcotest.(check bool) (name ^ " raises") true
              (try
                 ignore (run rw ~edb:(Database.create ()));
                 false
               with Invalid_argument _ -> true))
          [
            ("sim", fun rw ~edb -> Sim_runtime.run rw ~edb);
            ("domains", fun rw ~edb -> Domain_runtime.run rw ~edb);
          ]);
    case "deep recursion: chain of 400 nodes" (fun () ->
        let n = 400 in
        let db = edb_of_edges (Workload.Graphgen.chain n) in
        let out, stats = Seminaive.evaluate ancestor db in
        Alcotest.(check int) "closure size" (n * (n - 1) / 2)
          (Database.cardinal out "anc");
        Alcotest.(check int) "iterations" (n - 1) stats.Seminaive.iterations);
    case "stats and rewrite printers do not crash" (fun () ->
        let rw = Result.get_ok (Strategy.example3 ~nprocs:2 ancestor) in
        let r = Sim_runtime.run rw ~edb:(edb_of_edges [ (1, 2); (2, 3) ]) in
        Alcotest.(check bool) "stats pp" true
          (String.length (Format.asprintf "%a" Stats.pp r.Sim_runtime.stats) > 0);
        Alcotest.(check bool) "rewrite pp" true
          (String.length (Format.asprintf "%a" Rewrite.pp rw) > 0));
    case "netgraph union rejects mismatched spaces" (fun () ->
        let a = Netgraph.self_only (Pid.dense 2) in
        let b = Netgraph.self_only (Pid.dense 3) in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Netgraph.union a b);
             false
           with Invalid_argument _ -> true));
    case "of_labels rejects unknown labels" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Netgraph.of_labels (Pid.dense 2) [ ("0", "oops") ]);
             false
           with Invalid_argument _ -> true));
  ]

let stress_tests =
  [
    slow_case "large random graph: example3 N=8 vs sequential" (fun () ->
        let rng = Workload.Rng.create ~seed:99 in
        let edges =
          Workload.Graphgen.random_digraph rng ~nodes:300 ~edges:450
        in
        let edb = edb_of_edges edges in
        let seq, seq_stats = Seminaive.evaluate ancestor edb in
        let rw = Result.get_ok (Strategy.example3 ~nprocs:8 ancestor) in
        let r = Sim_runtime.run rw ~edb in
        Alcotest.check relation_t "equal" (anc_relation seq)
          (anc_relation r.Sim_runtime.answers);
        Alcotest.(check int) "non-redundant" seq_stats.Seminaive.firings
          (Stats.total_firings r.Sim_runtime.stats));
    slow_case "deep same-generation on the general scheme" (fun () ->
        let rng = Workload.Rng.create ~seed:98 in
        let edb = Workload.Edb.same_generation rng ~people:80 ~parents_per:2 in
        let rw =
          Result.get_ok (Strategy.general ~nprocs:6 Workload.Progs.same_generation)
        in
        let report = Verify.check rw ~edb in
        Alcotest.(check bool) "equal" true report.Verify.equal_answers;
        Alcotest.(check bool) "non-redundant" true report.Verify.non_redundant);
  ]

let parser_never_crashes =
  QCheck.Test.make ~count:300 ~name:"parser never raises on random input"
    QCheck.(string_of_size (Gen.int_range 0 60))
    (fun s ->
      match Parser.program s with
      | Ok _ | Error _ -> true
      | exception _ -> false)

let suites =
  [
    ("zero-arity", zero_arity_tests);
    ("constants", constant_tests);
    ("repeated-vars", repeated_var_tests);
    ("robustness",
     robustness_tests @ [ QCheck_alcotest.to_alcotest parser_never_crashes ]);
    ("stress", stress_tests);
  ]
