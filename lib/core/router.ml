open Datalog

module Key = struct
  type t = string * Tuple.t

  let equal (p1, t1) (p2, t2) = String.equal p1 p2 && Tuple.equal t1 t2
  let hash (p, t) = (Hashtbl.hash p * 0x01000193) lxor Tuple.hash t
end

module Ktbl = Hashtbl.Make (Key)

let mark_new seen key =
  if Ktbl.mem seen key then false
  else begin
    Ktbl.add seen key ();
    true
  end

let base_edb (rw : Rewrite.t) edb =
  let combined = Database.copy edb in
  List.iter
    (fun (pred, tuple) ->
      if List.mem pred rw.derived then
        invalid_arg ("derived-predicate facts are not supported: " ^ pred)
      else ignore (Database.add_fact combined pred tuple))
    rw.original.Program.facts;
  combined

let build_edb ?(replicate = false) (rw : Rewrite.t) edb pid =
  let local = Database.create () in
  List.iter
    (fun pred ->
      match Database.find edb pred with
      | None -> ()
      | Some rel ->
        let target = Database.declare local pred (Relation.arity rel) in
        Relation.iter
          (fun t ->
            if replicate || rw.resident pid pred t then
              ignore (Relation.add target t))
          rel)
    (Database.predicates edb);
  local

type route = {
  pred : string;
  in_name : string;
  specs : Rewrite.send_spec list;
}

type t = {
  by_out : (string, route) Hashtbl.t;
  by_pred : (string, route) Hashtbl.t;
  in_place : bool;
  programs : Program.t array;
}

(* The in-place program reads what it writes: every derived body atom
   names [p@out] instead of [p@in], so a fresh tuple is already pending
   in the relation the next step reads as its delta. *)
let read_out (rw : Rewrite.t) (prog : Program.t) =
  let outs =
    List.map (fun p -> (Rewrite.in_pred p, Rewrite.out_pred p)) rw.derived
  in
  let rename (a : Atom.t) =
    match List.assoc_opt a.pred outs with
    | Some out -> Atom.rename_pred out a
    | None -> a
  in
  Program.make ~facts:prog.facts
    (List.map
       (fun (r : Rule.t) -> { r with body = List.map rename r.body })
       prog.rules)

let make ?(in_place = false) (rw : Rewrite.t) =
  if in_place && not rw.communication_free then
    invalid_arg
      "Router.make: in-place evaluation needs a communication-free rewrite";
  let t =
    {
      by_out = Hashtbl.create 8;
      by_pred = Hashtbl.create 8;
      in_place;
      programs =
        (if in_place then Array.map (read_out rw) rw.programs
         else rw.programs);
    }
  in
  List.iter
    (fun pred ->
      let r =
        {
          pred;
          in_name = Rewrite.in_pred pred;
          specs =
            List.filter
              (fun (s : Rewrite.send_spec) -> String.equal s.ss_pred pred)
              rw.sends;
        }
      in
      Hashtbl.replace t.by_out (Rewrite.out_pred pred) r;
      Hashtbl.replace t.by_pred pred r)
    rw.derived;
  t

let in_place t = t.in_place
let program t pid = t.programs.(pid)

let engine t ~pushdown pid ~edb =
  Seminaive.create ~pushdown t.programs.(pid) ~edb

let of_out t name = Hashtbl.find_opt t.by_out name
let find t pred = Hashtbl.find t.by_pred pred

let destinations r sender tuple =
  match r.specs with
  | [] -> []
  (* One spec's destinations are already distinct: a unicast target or
     the whole processor range. *)
  | [ s ] -> s.ss_route sender tuple
  | specs ->
    List.fold_left
      (fun acc (s : Rewrite.send_spec) ->
        List.fold_left
          (fun acc dst -> if List.mem dst acc then acc else dst :: acc)
          acc
          (s.ss_route sender tuple))
      [] specs
    |> List.rev

let travels r sender tuple =
  match destinations r sender tuple with
  | [] -> false
  | [ dst ] when dst = sender -> true
  | dsts ->
    invalid_arg
      (Printf.sprintf
         "Router.travels: %s tuple %s of processor %d routed to %s in a \
          rewrite marked communication-free"
         r.pred (Tuple.to_string tuple) sender
         (String.concat "," (List.map string_of_int dsts)))

let union rels =
  match List.filter (fun r -> not (Relation.is_empty r)) rels with
  | [] -> None
  | first :: rest ->
    let u = Relation.copy first in
    List.iter (fun r -> ignore (Relation.add_all u r)) rest;
    Some u

let pool ~edb preds ~stored stores =
  let answers = Database.copy edb in
  let pooled = ref 0 in
  List.iter
    (fun pred ->
      let rels =
        List.filter_map (fun db -> Database.find db (stored pred)) stores
      in
      List.iter (fun r -> pooled := !pooled + Relation.cardinal r) rels;
      match rels, Database.find answers pred with
      | [], _ -> ()
      | _, Some target ->
        List.iter (fun r -> ignore (Relation.add_all target r)) rels
      | r :: _, None ->
        (match union rels with
         | Some u -> Database.add_relation answers pred u
         | None -> ignore (Database.declare answers pred (Relation.arity r))))
    preds;
  (answers, !pooled)
