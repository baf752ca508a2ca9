open Datalog

let ( let* ) = Result.bind

(* Wrap Rewrite.make's Invalid_argument into a result. *)
let attempt f =
  match f () with
  | rw -> Ok rw
  | exception Invalid_argument msg -> Error msg

let as_sirup = Analysis.as_sirup_string

let exit_policy ?(seed = 0) ~nprocs (s : Analysis.sirup) =
  (* Default v(e): the exit head's variables (deduplicated), which are
     in the exit body by safety. *)
  let ve = Atom.vars s.exit_rule.Rule.head in
  let fn =
    Hash_fn.modulo ~name:"h'" ~seed ~nprocs ~arity:(List.length ve) ()
  in
  Rewrite.Uniform (Discriminant.make ~vars:ve ~fn)

let hash_q ?(seed = 0) ~nprocs ~ve ~vr program =
  let* s = as_sirup program in
  let h' = Hash_fn.modulo ~name:"h'" ~seed ~nprocs ~arity:(List.length ve) () in
  let h = Hash_fn.modulo ~name:"h" ~seed ~nprocs ~arity:(List.length vr) () in
  let policy_of (r : Rule.t) =
    if r == s.rec_rule then Rewrite.Uniform (Discriminant.make ~vars:vr ~fn:h)
    else Rewrite.Uniform (Discriminant.make ~vars:ve ~fn:h')
  in
  attempt (fun () ->
      Rewrite.make program ~policies:(List.map policy_of (Program.rules program)))

let no_communication ?(seed = 0) ~nprocs program =
  let* s = as_sirup program in
  match Dataflow.communication_free_choice s with
  | None ->
    Error
      "the dataflow graph has no cycle: Theorem 3 gives no \
       communication-free discriminating sequence"
  | Some fc ->
    let arity = List.length fc.vr in
    let h = Hash_fn.symmetric_modulo ~seed ~nprocs ~arity () in
    let policy_of (r : Rule.t) =
      if r == s.rec_rule then
        Rewrite.Uniform (Discriminant.make ~vars:fc.vr ~fn:h)
      else Rewrite.Uniform (Discriminant.make ~vars:fc.ve ~fn:h)
    in
    attempt (fun () ->
        {
          (Rewrite.make program
             ~policies:(List.map policy_of (Program.rules program)))
          with
          Rewrite.communication_free = true;
        })

(* Recognize t(X,Y) :- b(X,Y).  t(X,Y) :- b(X,Z), t(Z,Y).  *)
let tc_shape program =
  let* s = as_sirup program in
  let fail msg = Error ("not transitive-closure shaped: " ^ msg) in
  if Array.length s.head_vars <> 2 then fail "head arity is not 2"
  else
    let hx = s.head_vars.(0) and hy = s.head_vars.(1) in
    if String.equal hx hy then fail "repeated head variable"
    else
      match s.base_atoms, s.exit_rule.Rule.body with
      | [ base ], [ ebase ] ->
        let bargs = base.Atom.args and eargs = ebase.Atom.args in
        if Array.length bargs <> 2 || Array.length eargs <> 2 then
          fail "base atoms are not binary"
        else
          (match bargs.(0), bargs.(1), s.rec_vars.(0), s.rec_vars.(1),
                 eargs.(0), eargs.(1) with
           | Term.Var bx, Term.Var bz, ry, rz, Term.Var ex, Term.Var ey
             when String.equal bx hx
                  && String.equal bz ry
                  && String.equal rz hy
                  && (not (String.equal bz hx))
                  && (not (String.equal bz hy))
                  && String.equal ex
                       (match s.exit_rule.Rule.head.Atom.args.(0) with
                        | Term.Var v -> v
                        | Term.Const _ -> "")
                  && String.equal ey
                       (match s.exit_rule.Rule.head.Atom.args.(1) with
                        | Term.Var v -> v
                        | Term.Const _ -> "") ->
             Ok s
           | _ -> fail "rule bodies do not match b(X,Z), t(Z,Y)")
      | _ -> fail "expected exactly one base atom per rule"

(* The exit rule may use different variable names than the recursive
   rule; pick the variable at the same head position in each. *)
let exit_head_var (s : Analysis.sirup) position =
  match s.exit_rule.Rule.head.Atom.args.(position) with
  | Term.Var v -> v
  | Term.Const _ -> assert false (* excluded by tc_shape *)

let example1 ?(seed = 0) ~nprocs program =
  let* s = tc_shape program in
  let h = Hash_fn.modulo ~seed ~nprocs ~arity:1 () in
  let policy_of (r : Rule.t) =
    if r == s.rec_rule then
      Rewrite.Uniform (Discriminant.make ~vars:[ s.head_vars.(1) ] ~fn:h)
    else
      Rewrite.Uniform (Discriminant.make ~vars:[ exit_head_var s 1 ] ~fn:h)
  in
  attempt (fun () ->
      Rewrite.make program ~policies:(List.map policy_of (Program.rules program)))

let example2 ~nprocs ~partition program =
  let* s = tc_shape program in
  let base = List.hd s.base_atoms in
  let vr = Atom.vars base in
  let ve = Atom.vars (List.hd s.exit_rule.Rule.body) in
  let h =
    Hash_fn.of_fun ~name:"h_part" ~arity:2 ~space:(Pid.dense nprocs)
      (fun key -> partition (Tuple.make (Array.copy key)))
  in
  let policy_of (r : Rule.t) =
    if r == s.rec_rule then Rewrite.Uniform (Discriminant.make ~vars:vr ~fn:h)
    else Rewrite.Uniform (Discriminant.make ~vars:ve ~fn:h)
  in
  attempt (fun () ->
      Rewrite.make program ~policies:(List.map policy_of (Program.rules program)))

let example3 ?(seed = 0) ~nprocs program =
  let* s = tc_shape program in
  let z = s.rec_vars.(0) in
  let h = Hash_fn.modulo ~seed ~nprocs ~arity:1 () in
  let policy_of (r : Rule.t) =
    if r == s.rec_rule then
      Rewrite.Uniform (Discriminant.make ~vars:[ z ] ~fn:h)
    else
      Rewrite.Uniform (Discriminant.make ~vars:[ exit_head_var s 0 ] ~fn:h)
  in
  attempt (fun () ->
      Rewrite.make program ~policies:(List.map policy_of (Program.rules program)))

let local_vars (s : Analysis.sirup) =
  (* The recursive atom's variables, deduplicated: the Ȳ into which
     Section 6 requires v(r) to fall. *)
  Atom.vars s.rec_atom

let wolfson_redundant ?(seed = 0) ~nprocs program =
  let* s = as_sirup program in
  let vars = local_vars s in
  let arity = List.length vars in
  let policy_of (r : Rule.t) =
    if r == s.rec_rule then
      Rewrite.Local
        {
          vars;
          fn_for = (fun i -> Hash_fn.constant ~nprocs ~arity i);
        }
    else exit_policy ~seed ~nprocs s
  in
  attempt (fun () ->
      Rewrite.make program ~policies:(List.map policy_of (Program.rules program)))

let tradeoff ?(seed = 0) ~nprocs ~alpha program =
  let* s = as_sirup program in
  let vars = local_vars s in
  let arity = List.length vars in
  let base = Hash_fn.modulo ~seed ~nprocs ~arity () in
  let policy_of (r : Rule.t) =
    if r == s.rec_rule then
      Rewrite.Local
        {
          vars;
          fn_for = (fun i -> Hash_fn.mixture ~seed:(seed + 31) ~alpha ~self:i base);
        }
    else exit_policy ~seed ~nprocs s
  in
  attempt (fun () ->
      Rewrite.make program ~policies:(List.map policy_of (Program.rules program)))

let adaptive_tradeoff ?(seed = 0) ~nprocs ~dial program =
  let* s = as_sirup program in
  let vars = local_vars s in
  let arity = List.length vars in
  let base = Hash_fn.modulo ~seed ~nprocs ~arity () in
  let policy_of (r : Rule.t) =
    if r == s.rec_rule then
      Rewrite.Local
        {
          vars;
          fn_for =
            (fun i ->
              Hash_fn.mixture_dyn ~seed:(seed + 31)
                ~alpha:(fun () -> Overload.alpha dial i)
                ~self:i base);
        }
    else exit_policy ~seed ~nprocs s
  in
  attempt (fun () ->
      Rewrite.make program ~policies:(List.map policy_of (Program.rules program)))

let default_choice program =
  let derived = Program.derived_predicates program in
  fun (rule : Rule.t) ->
    let derived_atoms =
      List.filter (fun (a : Atom.t) -> List.mem a.pred derived) rule.body
    in
    match derived_atoms with
    | first :: _ ->
      let others =
        List.filter (fun a -> not (a == first)) rule.body
        |> List.concat_map Atom.vars
      in
      let join_vars =
        List.filter (fun v -> List.mem v others) (Atom.vars first)
      in
      if join_vars <> [] then join_vars else Atom.vars first
    | [] ->
      let hvs = Rule.head_vars rule in
      if hvs <> [] then hvs
      else
        (match rule.body with
         | a :: _ -> Atom.vars a
         | [] -> [])

let general ?(seed = 0) ?choose ~nprocs program =
  let* () = Program.check program in
  let choose =
    match choose with Some f -> f | None -> default_choice program
  in
  let policy_of (r : Rule.t) =
    let vars = choose r in
    let fn =
      Hash_fn.modulo ~seed ~nprocs ~arity:(List.length vars) ()
    in
    Rewrite.Uniform (Discriminant.make ~vars ~fn)
  in
  attempt (fun () ->
      Rewrite.make program ~policies:(List.map policy_of (Program.rules program)))
