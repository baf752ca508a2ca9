(* The multi-process runtime, run from a child process.

   [Unix.fork] may not run once a domain or a thread exists, and the
   benchmark process creates both (the domain runtime, the serve
   clients). So the benchmark forks this child first, before anything
   else, and the child forks Net_runtime's workers on request. The
   parent sends one command per query and waits for the reply with a
   timeout, so a worker that cannot spawn is a failed operation rather
   than a hang. Only one query runs at a time: the parent is idle while
   the child works. *)

type reply = {
  ok : bool;
  error : string;
  ms : float;
  card : int;
  digest : int;
  messages : int;
  self_routed : int;
  sent_all : int;
  rounds : int;
  wire_bytes : int;
  retransmits : int;
  restarts : int;
  hb_misses : int;
}

let failed error =
  {
    ok = false;
    error;
    ms = nan;
    card = 0;
    digest = 0;
    messages = 0;
    self_routed = 0;
    sent_all = 0;
    rounds = 0;
    wire_bytes = 0;
    retransmits = 0;
    restarts = 0;
    hb_misses = 0;
  }

(* Tuples a processor sent to itself: the diagonal of the channel
   matrix. *)
let self_routed (st : Pardatalog.Stats.t) =
  let d = ref 0 in
  Array.iteri (fun i row -> d := !d + row.(i)) st.Pardatalog.Stats.channel_tuples;
  !d

type t = {
  pid : int;
  cmd : out_channel;
  rep : in_channel;
  rep_fd : Unix.file_descr;
  mutable alive : bool;
}

(* One query in the child. [setup] is forced on the first query, so
   the child's own input generation stays out of the parent's set-up
   time. *)
let query (setup : (Pardatalog.Rewrite.t * Datalog.Database.t) Lazy.t) timeout =
  match Lazy.force setup with
  | exception e -> failed (Printexc.to_string e)
  | rw, edb -> (
    let config = Pardatalog.Run_config.(default |> with_deadline (Some timeout)) in
    let t0 = Util.now () in
    match
      Net.Net_runtime.run ~config ~program:Inputs.program_text
        ~spec:Net.Wire.Spec_example3 ~seed:0 ~procs:2 ~hb_ms:100 ~hb_miss_limit:100
        ~spawn:Net.Net_runtime.Fork rw ~edb
    with
    | exception e -> failed (Printexc.to_string e)
    | r ->
      let ms = Util.ms_since t0 in
      let st = r.Pardatalog.Sim_runtime.stats in
      let card, digest = Util.digest r.Pardatalog.Sim_runtime.answers "anc" in
      let open Pardatalog.Stats in
      {
        ok = true;
        error = "";
        ms;
        card;
        digest;
        messages = total_messages st;
        self_routed = self_routed st;
        sent_all = total_messages ~include_self:true st;
        rounds = st.rounds;
        wire_bytes = st.transport.bytes_sent + st.transport.bytes_received;
        retransmits = st.transport.wire_retransmits;
        restarts = st.transport.worker_restarts;
        hb_misses = st.transport.heartbeat_misses;
      })

let start ~timeout setup =
  flush stdout;
  flush stderr;
  let cmd_r, cmd_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close cmd_w;
    Unix.close rep_r;
    let ic = Unix.in_channel_of_descr cmd_r in
    let oc = Unix.out_channel_of_descr rep_w in
    let rec loop () =
      match input_line ic with
      | "run" ->
        Marshal.to_channel oc (query setup timeout) [];
        flush oc;
        loop ()
      | _ | (exception End_of_file) -> ()
    in
    loop ();
    Unix._exit 0
  | pid ->
    Unix.close cmd_r;
    Unix.close rep_w;
    {
      pid;
      cmd = Unix.out_channel_of_descr cmd_w;
      rep = Unix.in_channel_of_descr rep_r;
      rep_fd = rep_r;
      alive = true;
    }

let rec select_read fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | r, _, _ -> r <> []
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_read fd timeout

let kill t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] t.pid)
  end

(* Run one query, waiting at most [timeout] seconds for the answer. *)
let run t ~timeout =
  if not t.alive then failed "net runner is gone"
  else
    match
      output_string t.cmd "run\n";
      flush t.cmd;
      select_read t.rep_fd timeout
    with
    | true -> (
      match (Marshal.from_channel t.rep : reply) with
      | r -> r
      | exception e ->
        kill t;
        failed (Printexc.to_string e))
    | false ->
      kill t;
      failed (Printf.sprintf "no answer within %.0fs" timeout)
    | exception e ->
      kill t;
      failed (Printexc.to_string e)

let stop t =
  if t.alive then begin
    t.alive <- false;
    (try close_out t.cmd with Sys_error _ -> ());
    ignore (Unix.waitpid [] t.pid)
  end
