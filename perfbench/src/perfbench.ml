(* The repository benchmark: one workload, one seed, one run.

   perfbench --workload W --seed N --seconds S --trace 0|1
             --datalogd EXE [--commit C] [--out DIR] [--tiny]
             [--inject-wrong]

   Set-up builds the inputs from the seed, parses, rewrites and brings
   a datalogd up with the dataset loaded, several times; its median is
   [setup_s]. Each set-up then opens the daemon's live session. The run then measures the batch block and the serve
   block for S seconds together, checking every answer. The last line
   of standard output is one JSON object: correct, attempted, failed,
   and the end-to-end metrics ([--trace 0]) or the per-layer metrics
   ([--trace 1]). A traced run measures each block twice, untraced and
   then traced, so it can report its own overhead. *)

open Datalog
open Pardatalog

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  datalogd : string;
  commit : string;
  out : string;
  tiny : bool;
  inject_wrong : bool;
}

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("perfbench: " ^ msg); exit 2) fmt

let parse_args () =
  let tbl = Hashtbl.create 8 and flags = ref [] in
  let rec go = function
    | ("--tiny" | "--inject-wrong") as f :: rest ->
      flags := f :: !flags;
      go rest
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      Hashtbl.replace tbl key value;
      go rest
    | [] -> ()
    | arg :: _ -> die "unexpected argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  let get key = match Hashtbl.find_opt tbl key with Some v -> v | None -> die "missing %s" key in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> die "%s wants an integer" key in
  {
    workload = get "--workload";
    seed = int "--seed";
    seconds = int "--seconds";
    trace = int "--trace" = 1;
    datalogd = get "--datalogd";
    commit = Option.value (Hashtbl.find_opt tbl "--commit") ~default:"unknown";
    out = Option.value (Hashtbl.find_opt tbl "--out") ~default:".bench_build/results";
    tiny = List.mem "--tiny" !flags;
    inject_wrong = List.mem "--inject-wrong" !flags;
  }

let setup_reps = 5

(* Share of the measured time given to the batch block; the serve block
   gets the rest. *)
let batch_share = 0.6

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)

type setup = {
  ctx : Batch.ctx;
  serve : Serve_block.setup;
  total_ms : float;
  edb_ms : float;
  parse_ms : float;
  rewrite_ms : float;
}

let timed name f =
  let t0 = Util.now () in
  let r = Tracer.span name (fun _ -> f ()) in
  (r, Util.ms_since t0)

let setup_once a graph ~net ~base ~expect ~sock ~log =
  let t0 = Util.now () in
  let data = Inputs.generate graph ~seed:a.seed in
  let edb, edb_ms = timed "workload.edb" (fun () -> Workload.Edb.of_edges data.Inputs.edges) in
  let program, parse_ms = timed "parser.program" (fun () -> Parser.program_exn Inputs.program_text) in
  let ok = function Ok rw -> rw | Error msg -> die "rewrite: %s" msg in
  let (nocomm1, ex3, general2), rewrite_ms =
    timed "strategy.rewrite" (fun () ->
        ( ok (Strategy.no_communication ~seed:0 ~nprocs:1 program),
          ok (Strategy.example3 ~seed:0 ~nprocs:2 program),
          ok (Strategy.general ~seed:0 ~nprocs:2 program) ))
  in
  let serve =
    Serve_block.setup ~exe:a.datalogd ~sock ~log ~facts:(Inputs.facts_text data.Inputs.edges) ~base
  in
  let ctx =
    {
      Batch.program;
      edb;
      expect;
      nocomm1;
      ex3;
      general2;
      net;
      inject_wrong = ref a.inject_wrong;
    }
  in
  (* [setup_s] ends once the daemon holds the dataset; the first live
     query that follows is [session.open_ms]. *)
  { ctx; serve; total_ms = (serve.Serve_block.ready_at -. t0) *. 1000.; edb_ms; parse_ms; rewrite_ms }

(* ------------------------------------------------------------------ *)
(* Checks that are not timed                                           *)

(* Rows a fresh source edge into [x] adds to anc: x and everything x
   reaches. *)
let gain reference x =
  let reach = Hashtbl.create 64 in
  Hashtbl.replace reach x ();
  (match Database.find reference "anc" with
   | None -> ()
   | Some rel ->
     Relation.iter
       (fun t ->
         match (Tuple.get t 0, Tuple.get t 1) with
         | Const.Int a, Const.Int b when a = x -> Hashtbl.replace reach b ()
         | _ -> ())
       rel);
  Hashtbl.length reach

type counters = { mutable attempted : int; mutable failed : int; mutable errors : string list }

let note c ok msg =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    c.errors <- msg :: c.errors
  end

(* ------------------------------------------------------------------ *)
(* Per-layer probes of the traced run                                   *)

type probes = {
  engine : Seminaive.stats;
  join_probes : int;
  minor_words : float;
  general_ms : float list;  (** In-process twin of a datalogd QUERY. *)
  apply_ms : float list;
  query_ms : float list;
  firings : int list;
  overdeleted : int list;
  rederived : int list;
}

let probe (ctx : Batch.ctx) ~(expect : Serve_block.expect) ~toggle counters =
  let engine = Seminaive.create ctx.program ~edb:ctx.edb in
  let w0 = Gc.minor_words () in
  Tracer.span "seminaive.run_to_fixpoint" (fun _ -> Seminaive.run_to_fixpoint engine);
  let minor_words = Gc.minor_words () -. w0 in
  note counters
    (Util.digest (Seminaive.database engine) "anc" = ctx.expect)
    "seminaive engine: wrong answer";
  let general_ms =
    List.init 3 (fun _ ->
        Gc.compact ();
        let r, ms =
          timed "domain_runtime.run" (fun () -> Domain_runtime.run ctx.general2 ~edb:ctx.edb)
        in
        note counters
          (Util.digest r.Sim_runtime.answers "anc" = ctx.expect)
          "general scheme: wrong answer";
        ms)
  in
  let session =
    Tracer.span "domain_runtime.open_session" (fun _ ->
        Domain_runtime.open_session ctx.general2 ~edb:ctx.edb)
  in
  let f, x = toggle in
  let edge = Tuple.of_ints [ f; x ] in
  let mine = expect.Serve_block.gain.(0) in
  let apply op =
    timed "session.apply" (fun () -> Session.apply session (Update_batch.of_list [ op ]))
  in
  let query want =
    let rows, ms = timed "session.query" (fun () -> Session.query session "anc") in
    note counters (List.length rows = want) "session.query: wrong row count";
    ms
  in
  let cycles =
    List.init 3 (fun _ ->
        let added, add_ms = apply (Update_batch.insert "par" edge) in
        note counters
          (List.length added.Session.oc_added = mine + 1)
          "session.apply insert: wrong net change";
        let q1 = query (expect.Serve_block.base + mine) in
        let removed, del_ms = apply (Update_batch.delete "par" edge) in
        note counters
          (List.length removed.Session.oc_removed = mine + 1)
          "session.apply delete: wrong net change";
        let q2 = query expect.Serve_block.base in
        (added.Session.oc_summary, removed.Session.oc_summary, [ add_ms; del_ms ], [ q1; q2 ]))
  in
  ignore (Session.close session);
  {
    engine = Seminaive.stats engine;
    join_probes = Seminaive.join_probes engine;
    minor_words;
    general_ms;
    apply_ms = List.concat_map (fun (_, _, a, _) -> a) cycles;
    query_ms = List.concat_map (fun (_, _, _, q) -> q) cycles;
    firings =
      List.concat_map (fun (i, d, _, _) -> [ i.Delta.s_firings; d.Delta.s_firings ]) cycles;
    overdeleted = List.map (fun (_, d, _, _) -> d.Delta.s_overdeleted) cycles;
    rederived = List.map (fun (_, d, _, _) -> d.Delta.s_rederived) cycles;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let mean_int xs =
  match xs with
  | [] -> 0.
  | _ -> float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)

let phase_ms (st : Stats.t) name =
  match List.assoc_opt name st.Stats.phase_ns with
  | Some ns -> float_of_int ns /. 1e6
  | None -> 0.

let par_stats (b : Batch.block) name =
  match (Batch.find b name).Batch.last with Some (Batch.Par_r st) -> Some st | _ -> None

let net_reply (b : Batch.block) =
  match (Batch.find b "net_n2").Batch.last with Some (Batch.Net_r r) -> Some r | _ -> None

let serve_p50s (r : Serve_block.result) =
  Serve_block.
    ( Util.median (all (fun c -> c.scratch) r),
      Util.median (all (fun c -> c.writes) r),
      Util.median (all (fun c -> c.live) r) )

(* The gated metrics: over ten seeds on every workload their quartile
   spread stayed within 0.15, and their ten-run medians moved by less
   than 0.2 between two such sets, even while other tenants loaded the
   host. *)
let end_to_end ~setups ~(batch : Batch.block) =
  [
    ("setup_s", Util.median (List.map (fun s -> s.total_ms /. 1000.) setups), "s");
    ("seq_ms", Batch.p50 batch "seq", "ms");
    ("sim_n1_ms", Batch.p50 batch "sim_n1", "ms");
    ("sim_n2_ms", Batch.p50 batch "sim_n2", "ms");
    ("peak_rss_mb", Util.vm_hwm_mb (), "MB");
  ]

(* End-to-end metrics that failed that test (the executors that need
   both cores at once, and the daemon): measured untraced like the
   gated ones, but reported with the per-layer metrics, so they are not
   gated. *)
let ungated ~(batch : Batch.block) ~(served : Serve_block.result) =
  let query, writes, live = serve_p50s served in
  let tail, _ = Util.tail (Serve_block.all (fun c -> c.Serve_block.scratch) served) in
  [
    ("domains_n1_ms", Batch.p50 batch "domains_n1", "ms");
    ("domains_n2_ms", Batch.p50 batch "domains_n2", "ms");
    ("net_n2_ms", Batch.p50 batch "net_n2", "ms");
    ("serve_query_ms", query, "ms");
    ("serve_query_tail_ms", tail, "ms");
    ("serve_update_ms", writes, "ms");
    ("serve_live_ms", live, "ms");
    ( "serve_ops_per_s",
      float_of_int (Serve_block.completed served) /. served.Serve_block.wall_s,
      "1/s" );
  ]

let per_layer ~setups ~(batch : Batch.block) ~(served : Serve_block.result) ~(probes : probes)
    ~overhead =
  let med f = Util.median (List.map f setups) in
  let seq = Batch.p50 batch "seq" in
  let eng = probes.engine in
  let phases x =
    match par_stats batch x with
    | None -> []
    | Some st ->
      [
        (x ^ ".processing_ms", phase_ms st "processing", "ms");
        (x ^ ".sending_ms", phase_ms st "sending", "ms");
        (x ^ ".receiving_ms", phase_ms st "receiving", "ms");
        (x ^ ".termination_ms", phase_ms st "termination-test", "ms");
      ]
  in
  let tax x = (x ^ ".tax", Util.ratio (Batch.p50 batch x) seq, "ratio") in
  let ex3 = par_stats batch "sim_n2" and dom = par_stats batch "domains_n2" in
  let net = net_reply batch in
  let sti f = function Some st -> float_of_int (f st) | None -> 0. in
  let stf f = function Some st -> f st | None -> 0. in
  let self_routed st =
    Util.ratio
      (float_of_int (Netchild.self_routed st))
      (float_of_int (Stats.total_messages ~include_self:true st))
  in
  let query, _, _ = serve_p50s served in
  let netf f = match net with Some r -> float_of_int (f r) | None -> 0. in
  List.concat
    [
      [
        ("parser.program_ms", med (fun s -> s.parse_ms), "ms");
        ("workload.edb_ms", med (fun s -> s.edb_ms), "ms");
        ("strategy.rewrite_ms", med (fun s -> s.rewrite_ms), "ms");
        ("server.load_ms", med (fun s -> s.serve.Serve_block.load_ms), "ms");
        ("session.open_ms", med (fun s -> s.serve.Serve_block.open_ms), "ms");
        ("seminaive.rounds", float_of_int eng.Seminaive.iterations, "count");
        ("seminaive.firings", float_of_int eng.Seminaive.firings, "count");
        ( "seminaive.useful_ratio",
          Util.ratio (float_of_int eng.Seminaive.new_tuples) (float_of_int eng.Seminaive.firings),
          "ratio" );
        ("seminaive.join_probes", float_of_int probes.join_probes, "count");
        ( "seminaive.ns_per_firing",
          Util.ratio (seq *. 1e6) (float_of_int eng.Seminaive.firings),
          "ns" );
        ( "seminaive.minor_words_per_round",
          Util.ratio probes.minor_words (float_of_int eng.Seminaive.iterations),
          "words" );
        ("relation.store_bytes", sti Stats.total_store_bytes dom, "bytes");
      ];
      phases "sim_n1";
      phases "sim_n2";
      phases "domains_n1";
      phases "domains_n2";
      List.map tax [ "sim_n1"; "sim_n2"; "domains_n1"; "domains_n2"; "net_n2" ];
      [
        ("domains_n2.rounds", sti (fun st -> st.Stats.rounds) dom, "count");
        ("net_n2.rounds", netf (fun r -> r.Netchild.rounds), "count");
        ("domains_n2.load_imbalance", stf Stats.load_imbalance dom, "ratio");
        ( "domains_n2.accept_ratio",
          stf
            (fun st ->
              let sum f = Array.fold_left (fun acc p -> acc + f p) 0 st.Stats.per_proc in
              Util.ratio
                (float_of_int (sum (fun p -> p.Stats.tuples_accepted)))
                (float_of_int (sum (fun p -> p.Stats.tuples_received))))
            dom,
          "ratio" );
        ("runtime.messages", sti (fun st -> Stats.total_messages st) ex3, "count");
        ("runtime.self_routed_frac", stf self_routed ex3, "ratio");
        ("mailbox.bulk_pushes", sti (fun st -> st.Stats.comms.Stats.bulk_pushes) dom, "count");
        ( "mailbox.tuples_per_push",
          stf
            (fun st ->
              Util.ratio
                (float_of_int (Stats.total_messages ~include_self:true st))
                (float_of_int st.Stats.comms.Stats.bulk_pushes))
            dom,
          "ratio" );
        ("wire.bytes", netf (fun r -> r.Netchild.wire_bytes), "bytes");
        ( "wire.bytes_per_tuple",
          (match net with
           | Some r ->
             Util.ratio (float_of_int r.Netchild.wire_bytes) (float_of_int r.Netchild.sent_all)
           | None -> 0.),
          "bytes" );
        ("wire.retransmits", netf (fun r -> r.Netchild.retransmits), "count");
        ("net_n2.worker_restarts", netf (fun r -> r.Netchild.restarts), "count");
        ("net_n2.heartbeat_misses", netf (fun r -> r.Netchild.hb_misses), "count");
        ("server.overhead_ms", query -. Util.median probes.general_ms, "ms");
        ("server.busy_replies", float_of_int (Serve_block.sum (fun c -> c.busy) served), "count");
        ("server.errors", float_of_int (Serve_block.sum (fun c -> c.errs) served), "count");
        ( "client.connect_ms",
          Util.median
            (List.filter Float.is_finite
               (Serve_block.all (fun c -> [ c.Serve_block.connect_ms ]) served)),
          "ms" );
        ("session.apply_ms", Util.median probes.apply_ms, "ms");
        ("session.query_ms", Util.median probes.query_ms, "ms");
        ("session.firings_per_batch", mean_int probes.firings, "count");
        ("session.overdeleted", mean_int probes.overdeleted, "count");
        ("session.rederived", mean_int probes.rederived, "count");
        ("trace.overhead_frac", overhead, "ratio");
      ];
    ]

(* ------------------------------------------------------------------ *)
(* The run                                                             *)

let metrics_json metrics =
  String.concat ","
    (List.map
       (fun (name, value, unit) ->
         Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (Util.json_string name)
           (Util.json_number value) (Util.json_string unit))
       metrics)

let () =
  let a = parse_args () in
  let wl = match Inputs.find a.workload with Some w -> w | None -> die "unknown workload %s" a.workload in
  let graph = if a.tiny then wl.Inputs.tiny else wl.Inputs.graph in
  mkdir_p a.out;
  (* Forked before any domain or thread exists. *)
  let net =
    Netchild.start ~timeout:Batch.timeout
      (lazy
        (let data = Inputs.generate graph ~seed:a.seed in
         let program = Parser.program_exn Inputs.program_text in
         match Strategy.example3 ~seed:0 ~nprocs:2 program with
         | Ok rw -> (rw, Workload.Edb.of_edges data.Inputs.edges)
         | Error msg -> failwith msg))
  in
  let counters = { attempted = 0; failed = 0; errors = [] } in
  let tag = Printf.sprintf "%s-s%d-t%d-p%d" a.workload a.seed (Bool.to_int a.trace) (Unix.getpid ()) in
  let sock = Filename.concat a.out (Printf.sprintf "d%d.sock" (Unix.getpid ())) in
  let log = Filename.concat a.out (tag ^ ".datalogd.log") in
  (* The reference answer, from the sequential engine (not timed). *)
  let data = Inputs.generate graph ~seed:a.seed in
  let reference, _ =
    Seminaive.evaluate
      (Parser.program_exn Inputs.program_text)
      (Workload.Edb.of_edges data.Inputs.edges)
  in
  let expect_digest = Util.digest reference "anc" in
  let expect =
    {
      Serve_block.base = fst expect_digest;
      gain = Array.map (fun (_, x) -> gain reference x) data.Inputs.toggles;
    }
  in
  let daemons = ref [] in
  let cleanup () =
    List.iter Serve_block.stop !daemons;
    Netchild.stop net;
    try Sys.remove sock with Sys_error _ -> ()
  in
  let output =
    Fun.protect ~finally:cleanup (fun () ->
        Tracer.on := a.trace;
        let setups =
          List.init setup_reps (fun i ->
              if i > 0 then List.iter Serve_block.stop !daemons;
              let s =
                setup_once a graph ~net ~base:expect.Serve_block.base ~expect:expect_digest ~sock
                  ~log
              in
              daemons := [ s.serve.Serve_block.daemon ];
              counters.attempted <- counters.attempted + s.serve.Serve_block.s_attempted;
              counters.failed <- counters.failed + List.length s.serve.Serve_block.s_errors;
              counters.errors <- s.serve.Serve_block.s_errors @ counters.errors;
              s)
        in
        Tracer.on := false;
        let last = List.nth setups (setup_reps - 1) in
        let ctx = last.ctx and daemon = last.serve.Serve_block.daemon in
        let warm = Batch.block ctx in
        Batch.iteration ctx warm ~measured:false;
        let total = float_of_int a.seconds in
        let batch_s = total *. batch_share in
        let serve_s = total -. batch_s in
        (* Batch and serve slices alternate, so a burst of load on the
           host lands on a small share of every metric's samples rather
           than on one whole block. A traced run follows each untraced
           slice with a traced one. A block's slices add up to its share
           of the run: a slice that overran shortens the next. *)
        let slices = 5 in
        let modes = if a.trace then [ false; true ] else [ false ] in
        let per_mode x = x /. float_of_int (List.length modes) in
        let slice spent share k f =
          let remaining = (share *. float_of_int k /. float_of_int slices) -. !spent in
          if remaining > 0. then begin
            let t0 = Util.now () in
            f (t0 +. remaining);
            spent := !spent +. (Util.now () -. t0)
          end
        in
        let with_trace traced f =
          Tracer.on := traced;
          Fun.protect ~finally:(fun () -> Tracer.on := false) f
        in
        let batches = List.map (fun traced -> (traced, Batch.block ctx, ref 0.)) modes in
        let serves = List.map (fun traced -> (traced, ref Serve_block.empty, ref 0.)) modes in
        for k = 1 to slices do
          List.iter
            (fun (traced, b, spent) ->
              slice spent (per_mode batch_s) k (fun until ->
                  with_trace traced (fun () -> Batch.measure ctx b ~until)))
            batches;
          List.iter
            (fun (traced, r, spent) ->
              slice spent (per_mode serve_s) k (fun until ->
                  with_trace traced (fun () ->
                      r :=
                        Serve_block.merge !r
                          (Serve_block.run daemon ~expect ~toggles:data.Inputs.toggles ~until
                             ~timeout:Batch.timeout))))
            serves
        done;
        let find traced l = List.find_map (fun (t, x, _) -> if t = traced then Some x else None) l in
        let batch = Option.get (find false batches) and served = !(Option.get (find false serves)) in
        let batch_traced = find true batches in
        let served_traced = Option.map ( ! ) (find true serves) in
        let probes =
          if a.trace then
            Some (with_trace true (fun () -> probe ctx ~expect ~toggle:data.Inputs.toggles.(0) counters))
          else None
        in
        let blocks = warm :: batch :: Option.to_list batch_traced in
        let serves = served :: Option.to_list served_traced in
        List.iter
          (fun b ->
            counters.attempted <- counters.attempted + Batch.attempted b;
            counters.failed <- counters.failed + Batch.failed b;
            counters.errors <- b.Batch.errors @ counters.errors)
          blocks;
        List.iter
          (fun r ->
            counters.attempted <- counters.attempted + Serve_block.sum (fun c -> c.attempted) r;
            counters.failed <- counters.failed + Serve_block.sum (fun c -> c.failed) r;
            counters.errors <- Serve_block.all (fun c -> c.errors) r @ counters.errors;
            if r.Serve_block.timed_out then counters.errors <- "serve: timed out" :: counters.errors)
          serves;
        let metrics =
          match (batch_traced, served_traced, probes) with
          | Some bt, Some st, Some p ->
            (* Overhead: the traced blocks against the untraced ones,
               over the sum of their medians. *)
            let sum b s =
              let q, _, _ = serve_p50s s in
              List.fold_left (fun acc e -> acc +. Batch.p50 b e.Batch.name) q b.Batch.execs
            in
            let overhead = Util.ratio (sum bt st) (sum batch served) -. 1. in
            ungated ~batch ~served @ per_layer ~setups ~batch:bt ~served:st ~probes:p ~overhead
          | _ -> end_to_end ~setups ~batch
        in
        let samples =
          List.map (fun e -> (e.Batch.name, List.rev e.Batch.times)) batch.Batch.execs
          @ [
              ("serve_query", Serve_block.all (fun c -> c.scratch) served);
              ("serve_update", Serve_block.all (fun c -> c.writes) served);
              ("serve_live", Serve_block.all (fun c -> c.live) served);
              ("setup", List.map (fun s -> s.total_ms) setups);
            ]
        in
        if a.trace then Tracer.write (Filename.concat a.out (tag ^ ".spans.json"));
        (metrics, samples))
  in
  let metrics, samples = output in
  let correct =
    counters.failed = 0 && counters.errors = []
    && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics
  in
  let provenance =
    Printf.sprintf
      "{\"workload\":%s,\"why\":%s,\"stresses\":%s,\"sizes\":%s,\"seed\":%d,\"seconds\":%d,\"trace\":%b,\"host\":{\"nproc\":%d,\"ocaml\":%s},\"commit\":%s,\"samples\":{%s},\"serve_query_tail_pct\":%.1f,\"errors\":[%s],\"spans\":%s}"
      (Util.json_string a.workload) (Util.json_string wl.Inputs.why)
      (Util.json_string wl.Inputs.stresses)
      (Util.json_string (Inputs.describe graph))
      a.seed a.seconds a.trace (Domain.recommended_domain_count ())
      (Util.json_string Sys.ocaml_version) (Util.json_string a.commit)
      (String.concat ","
         (List.map
            (fun (k, ms) -> Printf.sprintf "%s:%d" (Util.json_string k) (List.length ms))
            samples))
      (snd (Util.tail (List.assoc "serve_query" samples)))
      (String.concat "," (List.map Util.json_string (List.filteri (fun i _ -> i < 20) counters.errors)))
      (if a.trace then Util.json_string (Filename.concat a.out (tag ^ ".spans.json")) else "null")
  in
  let result =
    Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
      counters.attempted counters.failed (metrics_json metrics)
  in
  let oc = open_out (Filename.concat a.out (tag ^ ".json")) in
  Printf.fprintf oc "{\"provenance\":%s,\"result\":%s,\"samples_ms\":{%s}}\n" provenance result
    (String.concat ","
       (List.map
          (fun (k, ms) ->
            Printf.sprintf "%s:[%s]" (Util.json_string k)
              (String.concat "," (List.map (Printf.sprintf "%.3f") ms)))
          samples));
  close_out oc;
  print_endline ("{\"provenance\":" ^ provenance ^ "}");
  print_endline result
