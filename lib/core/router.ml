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
}

let make (rw : Rewrite.t) =
  let t = { by_out = Hashtbl.create 8; by_pred = Hashtbl.create 8 } in
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
