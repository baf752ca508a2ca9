(* Clock, order statistics, answer digests and process memory. *)

let now = Unix.gettimeofday
let ms_since t0 = (now () -. t0) *. 1000.

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The highest percentile that still has at least [beyond] samples
   above it, with that percentile; the median when there are too few
   samples for one. *)
let tail ?(beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (nan, 0.)
  else if n <= 2 * beyond then (median xs, 50.)
  else
    let k = n - beyond - 1 in
    (a.(k), 100. *. float_of_int (k + 1) /. float_of_int n)

let ratio a b = if b = 0. then 0. else a /. b

(* Order-independent answer digest: cardinality and the wrapping sum
   of the tuples' structural hashes. *)
let digest db pred =
  match Datalog.Database.find db pred with
  | None -> (0, 0)
  | Some rel ->
    Datalog.Relation.fold
      (fun t (n, h) -> (n + 1, h + Hashtbl.hash (Datalog.Tuple.to_array t)))
      rel (0, 0)

(* Peak resident set (VmHWM) of this process, in MB. *)
let vm_hwm_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> nan
          | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          | _ -> go ()
        in
        go ())

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit of a measured value; JSON has no NaN or infinity, so a
   value that could not be measured reads 0 (and the run is marked
   incorrect elsewhere). *)
let json_number f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

