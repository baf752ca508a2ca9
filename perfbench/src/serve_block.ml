(* The serve block: datalogd in its own process on a Unix socket, two
   closed-loop client connections (one request in flight each), every
   reply checked against the answer the closure must have. *)

open Serve

type daemon = { pid : int; addr : Server.addr; mutable reaped : bool }

(* [--max-inflight 1] keeps concurrent evaluation within two cores, so
   the admission wait is part of the measured latency. *)
let spawn ~exe ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let fd =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.create_process exe
          [| exe; "--socket"; sock; "--nprocs"; "2"; "--max-inflight"; "1" |]
          Unix.stdin fd fd)
  in
  { pid; addr = Server.Unix_sock sock; reaped = false }

let stop d =
  if not d.reaped then begin
    d.reaped <- true;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Util.now () +. 5. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
      | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error _ -> ()
    in
    wait ()
  end

(* What the answers must be: [base] anc rows for the loaded dataset,
   and [gain.(c)] more while client [c]'s toggle edge is present. *)
type expect = { base : int; gain : int array }

type client = {
  cid : int;
  mutable scratch : float list;  (** From-scratch QUERY round trips, ms. *)
  mutable writes : float list;  (** UPDATE and RETRACT round trips, ms. *)
  mutable live : float list;  (** QUERY live=true round trips, ms. *)
  mutable connect_ms : float;
  mutable attempted : int;
  mutable failed : int;
  mutable busy : int;
  mutable errs : int;
  mutable errors : string list;
  mutable in_flight_since : float;  (** 0 when idle; read by the watchdog. *)
}

let client cid =
  {
    cid;
    scratch = [];
    writes = [];
    live = [];
    connect_ms = nan;
    attempted = 0;
    failed = 0;
    busy = 0;
    errs = 0;
    errors = [];
    in_flight_since = 0.;
  }

let connect addr =
  match Client.connect ~attempts:400 ~delay_ms:25 addr with
  | Client.Conn conn -> Ok conn
  | Client.Conn_busy { reason; _ } -> Error ("busy at connect: " ^ reason)
  | Client.Conn_error msg -> Error msg

(* Check a reply; BUSY and ERR replies are failures counted on their
   own as well. *)
let check c (reply : (Client.reply, string) result) expected =
  let fail msg =
    c.failed <- c.failed + 1;
    c.errors <- msg :: c.errors;
    false
  in
  match reply with
  | Error msg -> fail msg
  | Ok { Client.head = Protocol.Busy { reason; _ }; _ } ->
    c.busy <- c.busy + 1;
    fail ("BUSY " ^ reason)
  | Ok { Client.head = Protocol.Err { code; msg }; _ } ->
    c.errs <- c.errs + 1;
    fail (Printf.sprintf "ERR %s %s" code msg)
  | Ok { Client.head; raw; _ } -> (
    match expected head with
    | true -> true
    | false -> fail ("unexpected reply: " ^ String.concat " | " raw))

let rows_in allowed = function
  | Protocol.Result_head { partial = false; rows; _ } -> List.mem rows allowed
  | _ -> false

let okay op ~added ~removed = function
  | Protocol.Okay { op = o; kv } ->
    o = op
    && Protocol.find_kv kv "added" = Some (string_of_int added)
    && Protocol.find_kv kv "removed" = Some (string_of_int removed)
  | _ -> false

(* One request; returns the reply and its round trip in ms. *)
let request c conn ~parent ~req name ?payload line =
  c.attempted <- c.attempted + 1;
  let t0 = Util.now () in
  c.in_flight_since <- t0;
  let reply =
    try Tracer.span ~parent ~req name (fun _ -> Client.request conn ?payload line)
    with e -> Error (Printexc.to_string e)
  in
  c.in_flight_since <- 0.;
  (reply, Util.ms_since t0)

let cycles = Atomic.make 0

(* One client: QUERY, UPDATE +e, QUERY live, RETRACT e, QUERY live,
   until [until]. The first failure ends the client, since its own
   edge's state is then unknown. *)
let run_client ~addr ~expect ~toggle ~until c =
  let t0 = Util.now () in
  c.attempted <- c.attempted + 1;
  match Tracer.span "client.connect" (fun _ -> connect addr) with
  | Error msg ->
    c.failed <- c.failed + 1;
    c.errors <- msg :: c.errors
  | Ok conn ->
    c.connect_ms <- Util.ms_since t0;
    let f, x = toggle in
    let other = expect.gain.(1 - c.cid) in
    let mine = expect.gain.(c.cid) in
    let without = [ expect.base; expect.base + other ] in
    let with_mine = List.map (fun r -> r + mine) without in
    let going = ref true in
    while !going && Util.now () < until do
      let k = Atomic.fetch_and_add cycles 1 in
      let id kind = Printf.sprintf "c%d-%d-%s" c.cid k kind in
      Tracer.span ~req:k "serve.cycle" (fun parent ->
          let step name ?payload line expected into =
            if !going then begin
              let reply, ms = request c conn ~parent ~req:k name ?payload line in
              if check c reply expected then into ms else going := false
            end
          in
          let scratch ms = c.scratch <- ms :: c.scratch in
          let write ms = c.writes <- ms :: c.writes in
          let live ms = c.live <- ms :: c.live in
          step "server.query"
            (Printf.sprintf "QUERY id=%s prog=anc goal=anc" (id "q"))
            (rows_in without) scratch;
          step "server.update"
            ~payload:(Printf.sprintf "+par(%d,%d)." f x)
            (Printf.sprintf "UPDATE id=%s prog=anc" (id "u"))
            (okay "update" ~added:(mine + 1) ~removed:0)
            write;
          step "server.query_live"
            (Printf.sprintf "QUERY id=%s prog=anc goal=anc live=true" (id "l1"))
            (rows_in with_mine) live;
          step "server.retract"
            ~payload:(Printf.sprintf "par(%d,%d)." f x)
            (Printf.sprintf "RETRACT id=%s prog=anc" (id "r"))
            (okay "retract" ~added:0 ~removed:(mine + 1))
            write;
          step "server.query_live"
            (Printf.sprintf "QUERY id=%s prog=anc goal=anc live=true" (id "l2"))
            (rows_in without) live)
    done;
    Client.close conn

type result = { clients : client list; wall_s : float; timed_out : bool }

let empty = { clients = []; wall_s = 0.; timed_out = false }

let merge a b =
  { clients = a.clients @ b.clients; wall_s = a.wall_s +. b.wall_s; timed_out = a.timed_out || b.timed_out }

(* Run the clients until [until]. A request outstanding for longer
   than [timeout] seconds kills the daemon, which fails every request
   in flight instead of hanging the run. *)
let run d ~expect ~toggles ~until ~timeout =
  let clients = List.init (Array.length toggles) client in
  let finished = Atomic.make false and timed_out = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        while not (Atomic.get finished) do
          Thread.delay 0.1;
          List.iter
            (fun c ->
              let since = c.in_flight_since in
              if since > 0. && Util.now () -. since > timeout && not (Atomic.get timed_out)
              then begin
                Atomic.set timed_out true;
                try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ()
              end)
            clients
        done)
      ()
  in
  let t0 = Util.now () in
  let threads =
    List.map
      (fun c ->
        Thread.create
          (fun () -> run_client ~addr:d.addr ~expect ~toggle:toggles.(c.cid) ~until c)
          ())
      clients
  in
  List.iter Thread.join threads;
  let wall_s = Util.now () -. t0 in
  Atomic.set finished true;
  Thread.join watchdog;
  { clients; wall_s; timed_out = Atomic.get timed_out }

let all f r = List.concat_map f r.clients
let sum f r = List.fold_left (fun acc c -> acc + f c) 0 r.clients
let completed r = List.length (all (fun c -> c.scratch @ c.writes @ c.live) r)

(* Bring a daemon up with the dataset loaded (the serve part of
   set-up), then open its live session with a first live query. Returns
   the daemon, when the dataset was loaded, the LOAD+FACTS and
   first-live-query round trips, and the failures seen. *)
type setup = {
  daemon : daemon;
  ready_at : float;
  load_ms : float;
  open_ms : float;
  s_attempted : int;
  s_errors : string list;
}

let setup ~exe ~sock ~log ~facts ~base =
  let daemon = Tracer.span "datalogd.spawn" (fun _ -> spawn ~exe ~sock ~log) in
  let c = client 0 in
  match Tracer.span "client.connect" (fun _ -> connect daemon.addr) with
  | Error msg ->
    {
      daemon;
      ready_at = Util.now ();
      load_ms = nan;
      open_ms = nan;
      s_attempted = 1;
      s_errors = [ msg ];
    }
  | Ok conn ->
    let timed name ?payload line expected =
      let reply, ms = request c conn ~parent:0 ~req:0 name ?payload line in
      if check c reply expected then ms else nan
    in
    let load =
      timed "server.load" ~payload:Inputs.program_text "LOAD anc" (function
        | Protocol.Okay { op = "load"; _ } -> true
        | _ -> false)
    in
    let facts =
      timed "server.load" ~payload:facts "FACTS anc" (function
        | Protocol.Okay { op = "facts"; _ } -> true
        | _ -> false)
    in
    let ready_at = Util.now () in
    let open_ms =
      timed "session.open" "QUERY id=open prog=anc goal=anc live=true" (rows_in [ base ])
    in
    Client.close conn;
    {
      daemon;
      ready_at;
      load_ms = load +. facts;
      open_ms;
      s_attempted = c.attempted + 1;
      s_errors = c.errors;
    }
