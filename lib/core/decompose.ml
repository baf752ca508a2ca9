open Datalog

(* --------------------------------------------------------------- *)
(* Applicability: connected rule bodies, no constants.              *)
(* --------------------------------------------------------------- *)

let body_connected (rule : Rule.t) =
  match rule.body with
  | [] | [ _ ] -> true
  | first :: _ ->
    (* BFS over atoms linked by shared variables. *)
    let atoms = Array.of_list rule.body in
    let n = Array.length atoms in
    let seen = Array.make n false in
    let shares a b =
      List.exists (fun v -> List.mem v (Atom.vars b)) (Atom.vars a)
    in
    let rec visit i =
      if not seen.(i) then begin
        seen.(i) <- true;
        for j = 0 to n - 1 do
          if (not seen.(j)) && shares atoms.(i) atoms.(j) then visit j
        done
      end
    in
    ignore first;
    visit 0;
    Array.for_all Fun.id seen

let rule_has_constant (rule : Rule.t) =
  let atom_has (a : Atom.t) =
    Array.exists (fun t -> not (Term.is_var t)) a.args
  in
  atom_has rule.head || List.exists atom_has rule.body

let check_program program =
  let ( let* ) = Result.bind in
  let* () = Program.check program in
  let rec check = function
    | [] -> Ok ()
    | r :: rest ->
      if rule_has_constant r then
        Error ("Dong's scheme: rule mentions a constant: " ^ Rule.to_string r)
      else if not (body_connected r) then
        Error
          ("Dong's scheme: rule body is not variable-connected: "
          ^ Rule.to_string r)
      else check rest
  in
  check (Program.rules program)

(* --------------------------------------------------------------- *)
(* Constant-connectivity components (union-find over constants).    *)
(* --------------------------------------------------------------- *)

module Ctbl = Hashtbl.Make (struct
  type t = Const.t

  let equal = Const.equal
  let hash = Const.hash
end)

type analysis = {
  nprocs : int;
  component_count : int;
  assignment : Const.t -> Pid.t;
  tuples_per_proc : int array;
}

let analyze ~nprocs edb =
  if nprocs <= 0 then invalid_arg "Decompose.analyze: nprocs must be positive";
  let parent : Const.t Ctbl.t = Ctbl.create 256 in
  let rec find c =
    match Ctbl.find_opt parent c with
    | None ->
      Ctbl.add parent c c;
      c
    | Some p when Const.equal p c -> c
    | Some p ->
      let root = find p in
      Ctbl.replace parent c root;
      root
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (Const.equal ra rb) then Ctbl.replace parent ra rb
  in
  (* Pass 1: union constants co-occurring in a tuple; count tuples per
     eventual root via a second pass. *)
  List.iter
    (fun pred ->
      match Database.find edb pred with
      | None -> ()
      | Some rel ->
        Relation.iter
          (fun t ->
            let a = Tuple.arity t in
            if a > 0 then begin
              let first = Tuple.get t 0 in
              ignore (find first);
              for i = 1 to a - 1 do
                union first (Tuple.get t i)
              done
            end)
          rel)
    (Database.predicates edb);
  let component_tuples : int Ctbl.t = Ctbl.create 64 in
  List.iter
    (fun pred ->
      match Database.find edb pred with
      | None -> ()
      | Some rel ->
        Relation.iter
          (fun t ->
            if Tuple.arity t > 0 then begin
              let root = find (Tuple.get t 0) in
              let n =
                Option.value ~default:0 (Ctbl.find_opt component_tuples root)
              in
              Ctbl.replace component_tuples root (n + 1)
            end)
          rel)
    (Database.predicates edb);
  (* Greedy balancing: biggest components first, each to the currently
     least-loaded processor. *)
  let components =
    Ctbl.fold (fun root n acc -> (root, n) :: acc) component_tuples []
    |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
  in
  let loads = Array.make nprocs 0 in
  let proc_of_root : Pid.t Ctbl.t = Ctbl.create 64 in
  List.iter
    (fun (root, n) ->
      let best = ref 0 in
      for i = 1 to nprocs - 1 do
        if loads.(i) < loads.(!best) then best := i
      done;
      Ctbl.replace proc_of_root root !best;
      loads.(!best) <- loads.(!best) + n)
    components;
  let assignment c =
    match Ctbl.find_opt proc_of_root (find c) with
    | Some pid -> pid
    | None -> 0
  in
  {
    nprocs;
    component_count = List.length components;
    assignment;
    tuples_per_proc = loads;
  }

(* --------------------------------------------------------------- *)
(* Execution                                                        *)
(* --------------------------------------------------------------- *)

let run program ~nprocs edb =
  let ( let* ) = Result.bind in
  let* () = check_program program in
  let edb =
    let combined = Database.copy edb in
    ignore (Database.merge_into ~dst:combined ~src:(Program.facts_db program));
    combined
  in
  let analysis = analyze ~nprocs edb in
  let local_edbs =
    Array.init nprocs (fun pid ->
        let local = Database.create () in
        List.iter
          (fun pred ->
            match Database.find edb pred with
            | None -> ()
            | Some rel ->
              let target =
                Database.declare local pred (Relation.arity rel)
              in
              Relation.iter
                (fun t ->
                  let owner =
                    if Tuple.arity t = 0 then 0
                    else analysis.assignment (Tuple.get t 0)
                  in
                  if owner = pid then ignore (Relation.add target t))
                rel)
          (Database.predicates edb);
        local)
  in
  let engines =
    Array.map
      (fun local ->
        let engine = Seminaive.create program ~edb:local in
        Seminaive.run_to_fixpoint engine;
        engine)
      local_edbs
  in
  let answers, pooled =
    Router.pool ~edb (Program.derived_predicates program) ~stored:Fun.id
      (Array.to_list (Array.map Seminaive.store engines))
  in
  let rounds =
    Array.fold_left
      (fun acc e -> max acc (Seminaive.stats e).Seminaive.iterations)
      0 engines
  in
  let stats : Stats.t =
    {
      incr = Stats.no_incr;
      nprocs;
      rounds;
      per_proc =
        Array.mapi
          (fun pid engine ->
            let es = Seminaive.stats engine in
            {
              Stats.pid;
              firings = es.Seminaive.firings;
              new_tuples = es.Seminaive.new_tuples;
              duplicate_firings = es.Seminaive.duplicate_firings;
              iterations = es.Seminaive.iterations;
              tuples_sent = 0;
              tuples_received = 0;
              tuples_accepted = 0;
              base_resident = Database.total_tuples local_edbs.(pid);
              active_rounds = es.Seminaive.iterations;
              store_rows = Overload.db_rows (Seminaive.store engine);
              store_bytes = Overload.db_bytes (Seminaive.store engine);
              outbox_peak_rows = 0;
              outbox_peak_bytes = 0;
            })
          engines;
      channel_tuples = Array.make_matrix nprocs nprocs 0;
      pooled_tuples = pooled;
      trace = [];
      faults = Stats.no_faults;
      transport = Stats.no_transport;
      peak_in_flight = 0;
      phase_ns = [];
      comms = Stats.no_comms;
    }
  in
  Ok ({ Sim_runtime.answers; stats }, analysis)
