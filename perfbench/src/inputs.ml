(* Workloads and the inputs they generate from a seed.

   Every workload runs the same two blocks on its own dataset: the
   batch block (from-scratch ancestor queries on every executor) and
   the serve block (a datalogd with two closed-loop connections mixing
   from-scratch queries, updates and live reads). The workloads differ
   in the shape of the dataset, which decides the layer that
   dominates. *)

type graph = Chain of int | Random of { nodes : int; edges : int }

type t = {
  name : string;
  graph : graph;
  tiny : graph;  (** Self-test size. *)
  why : string;
  stresses : string;
}

let all =
  [
    {
      name = "tc-deep";
      graph = Chain 250;
      tiny = Chain 12;
      why =
        "249 rounds of about 125 tuples; firings equal new tuples, so \
         per-round costs and the per-tuple @out-route-@in-inject copy \
         dominate";
      stresses =
        "round loop, termination detection, mailbox and wire framing \
         (the runtime tax)";
    };
    {
      name = "tc-dense";
      graph = Random { nodes = 120; edges = 960 };
      tiny = Random { nodes = 12; edges = 30 };
      why =
        "a handful of rounds; about 8 firings per tuple of a 14.4k-tuple \
         closure (most are duplicates), so join probes and dedup dominate \
         and per-round costs do not";
      stresses = "engine (Seminaive, Joiner, Relation) and storage";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let describe = function
  | Chain n -> Printf.sprintf "chain %d" n
  | Random { nodes; edges } -> Printf.sprintf "random %d nodes x %d edges" nodes edges

(* Clients that toggle their own fresh source edge in the serve block. *)
let clients = 2

type data = {
  edges : (int * int) list;
  toggles : (int * int) array;
      (** Per client, an edge from a fresh node (in no other edge) into
          the graph. *)
}

(* A chain is the same for every seed: relabelling it would move the
   hash partition's balance from seed to seed, which is input variance
   the deep workload is not about. The seed draws the random graph and
   the fresh nodes of the toggle edges. The toggles enter a chain at
   positions 0 and 1, so the clients' live answers differ by a fixed
   amount. *)
let generate graph ~seed =
  let rng = Workload.Rng.create ~seed in
  let fresh base c = base + 1 + (2 * Workload.Rng.int rng 1_000_000) + c in
  match graph with
  | Chain n ->
    {
      edges = Workload.Graphgen.chain n;
      toggles = Array.init clients (fun c -> (fresh n c, c));
    }
  | Random { nodes; edges } ->
    let edges = Workload.Graphgen.random_digraph rng ~nodes ~edges in
    {
      edges;
      toggles = Array.init clients (fun c -> (fresh nodes c, Workload.Rng.int rng nodes));
    }

let program_text =
  Format.asprintf "%a" Datalog.Program.pp Workload.Progs.ancestor

let fact (a, b) = Printf.sprintf "par(%d,%d)." a b

let facts_text edges = String.concat "\n" (List.map fact edges) ^ "\n"
