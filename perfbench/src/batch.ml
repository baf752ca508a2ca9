(* The batch block: repeated from-scratch ancestor queries on every
   executor, checked against the sequential engine. *)

open Datalog
open Pardatalog

type ctx = {
  program : Program.t;
  edb : Database.t;
  expect : int * int;  (** Cardinality and digest of the sequential answer. *)
  nocomm1 : Rewrite.t;  (** No-communication scheme, one processor. *)
  ex3 : Rewrite.t;  (** Example 3, two processors. *)
  general2 : Rewrite.t;  (** datalogd's scheme, two processors. *)
  net : Netchild.t;
  inject_wrong : bool ref;  (** Corrupt the next answer, to prove the check counts it. *)
}

type kind = Seq | Sim of Rewrite.t | Domains of Rewrite.t | Net

type result =
  | Seq_r of Seminaive.stats
  | Par_r of Stats.t
  | Net_r of Netchild.reply

(* Seconds one query may take before it counts as failed. *)
let timeout = 60.

type exec = {
  name : string;
  kind : kind;
  parity : bool;  (** Runs Example 3, so its message count must match the others'. *)
  mutable times : float list;  (** Milliseconds of the successful queries. *)
  mutable attempted : int;
  mutable failed : int;
  mutable last : result option;
}

let exec ?(parity = false) name kind =
  { name; kind; parity; times = []; attempted = 0; failed = 0; last = None }

(* The executors, in the order each iteration runs them. Example 3
   routes every tuple by a hash of its value, so every executor of that
   scheme puts the same tuples on the channels. *)
let executors ctx =
  [
    exec "seq" Seq;
    exec "sim_n1" (Sim ctx.nocomm1);
    exec "domains_n1" (Domains ctx.nocomm1);
    exec ~parity:true "sim_n2" (Sim ctx.ex3);
    exec ~parity:true "domains_n2" (Domains ctx.ex3);
    exec ~parity:true "net_n2" Net;
  ]

let messages = function
  | Par_r st -> Some (Stats.total_messages st)
  | Net_r r -> Some r.Netchild.messages
  | Seq_r _ -> None

let span_name = function
  | Seq -> "seminaive.evaluate"
  | Sim _ -> "sim_runtime.run"
  | Domains _ -> "domain_runtime.run"
  | Net -> "net_runtime.run"

let config = Run_config.(default |> with_deadline (Some timeout))

let answer ctx db =
  if !(ctx.inject_wrong) then begin
    ctx.inject_wrong := false;
    ignore (Database.add_fact db "anc" (Tuple.of_ints [ -1; -1 ]))
  end;
  Util.digest db "anc"

(* One query: [Ok (ms, result)] when it answered correctly. *)
let query ctx ~req e =
  (* Every query starts from the same compacted heap, whatever ran
     before it. *)
  Gc.compact ();
  let timed f =
    let t0 = Util.now () in
    let r = Tracer.span ~req (span_name e.kind) (fun _ -> f ()) in
    (Util.ms_since t0, r)
  in
  match e.kind with
  | Seq ->
    let ms, (db, st) = timed (fun () -> Seminaive.evaluate ctx.program ctx.edb) in
    if answer ctx db = ctx.expect then Ok (ms, Seq_r st) else Error "wrong answer"
  | Sim rw | Domains rw ->
    let run =
      match e.kind with
      | Sim _ -> Sim_runtime.run ~config
      | _ -> Domain_runtime.run ~config
    in
    let ms, r = timed (fun () -> run rw ~edb:ctx.edb) in
    if answer ctx r.Sim_runtime.answers = ctx.expect then Ok (ms, Par_r r.Sim_runtime.stats)
    else Error "wrong answer"
  | Net ->
    let _, r = timed (fun () -> Netchild.run ctx.net ~timeout) in
    if not r.Netchild.ok then Error r.Netchild.error
    else if (r.Netchild.card, r.Netchild.digest) = ctx.expect then Ok (r.Netchild.ms, Net_r r)
    else Error "wrong answer"

type block = {
  execs : exec list;
  mutable reference_messages : int option;
  mutable errors : string list;
}

let block ctx = { execs = executors ctx; reference_messages = None; errors = [] }

let record b e ~measured res =
  e.attempted <- e.attempted + 1;
  let fail msg =
    e.failed <- e.failed + 1;
    b.errors <- Printf.sprintf "%s: %s" e.name msg :: b.errors
  in
  match res with
  | Error msg -> fail msg
  | Ok (ms, r) -> (
    e.last <- Some r;
    let keep () = if measured then e.times <- ms :: e.times in
    match ((if e.parity then messages r else None), b.reference_messages) with
    | Some m, Some m0 when m <> m0 ->
      fail (Printf.sprintf "%d messages, expected %d" m m0)
    | Some m, None ->
      b.reference_messages <- Some m;
      keep ()
    | _ -> keep ())

let req_counter = ref 0

(* One query on every executor; [measured] iterations contribute
   timings, warm-up iterations only checks. *)
let iteration ctx b ~measured =
  List.iter
    (fun e ->
      incr req_counter;
      let res =
        try query ctx ~req:!req_counter e with ex -> Error (Printexc.to_string ex)
      in
      record b e ~measured res)
    b.execs

let measure ctx b ~until =
  while Util.now () < until do
    iteration ctx b ~measured:true
  done

let find b name = List.find (fun e -> e.name = name) b.execs
let p50 b name = Util.median (find b name).times
let attempted b = List.fold_left (fun acc e -> acc + e.attempted) 0 b.execs
let failed b = List.fold_left (fun acc e -> acc + e.failed) 0 b.execs
