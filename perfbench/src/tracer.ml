(* Spans recorded by the benchmark around its own calls into the
   library's public functions. Spans stay in memory and are written
   out once, at the end of a traced run. When tracing is off a span is
   a plain function call: no clock read, no allocation. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root span. *)
  req : int;  (** Request id shared by every span of one request. *)
  start : float;
  stop : float;
}

let on = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 0

(* [span ~parent ~req name f] calls [f id], where [id] names the new
   span as the parent of spans opened inside [f]. *)
let span ?(parent = 0) ?(req = 0) name f =
  if not !on then f 0
  else begin
    let id =
      Mutex.protect lock (fun () ->
          incr next_id;
          !next_id)
    in
    let start = Unix.gettimeofday () in
    let finish () =
      let stop = Unix.gettimeofday () in
      Mutex.protect lock (fun () ->
          recorded := { id; name; parent; req; start; stop } :: !recorded)
    in
    Fun.protect ~finally:finish (fun () -> f id)
  end

let spans () = List.rev !recorded

(* Self time: the span's duration minus the part of it that its child
   spans cover (children are clipped to the parent and overlaps are
   counted once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let intervals =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) intervals
      in
      (s, s.stop -. s.start -. covered))
    spans

let write path =
  let spans = spans () in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"spans\":[";
      List.iteri
        (fun i (s, self) ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"start_ms\":%.3f,\"end_ms\":%.3f,\"self_ms\":%.3f}"
            s.id s.name s.parent s.req (s.start *. 1000.) (s.stop *. 1000.)
            (self *. 1000.))
        (self_times spans);
      output_string oc "]}\n")
