(* Shared helpers of the benchmark: clock, order statistics, seeded
   choice, process memory, a minimal JSON writer with full float digits,
   and the in-memory span recorder of traced runs. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics --------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile ([q] in (0, 100]) of a non-empty sample. *)
let percentile_arr a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n /. 100.)) - 1)))

let percentile xs q = percentile_arr (sorted xs) q

(* Midpoint median (the mean of the two middle values for even counts). *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let sum = List.fold_left ( +. ) 0.
let mean xs = sum xs /. float_of_int (List.length xs)

(* The quieter quarter of a run's windows (request windows, repetitions
   of an operation), ranked by [key].  Other guests of the shared VM
   slow its cores by up to 1.7x, in bursts and in stretches of seconds,
   and the hypervisor steals CPU time in bursts: that interference only
   ever adds time and spares some windows, so the quieter windows track
   the program, while a change to the program moves every window. *)
let quiet_part ~key xs =
  let keep = (List.length xs + 3) / 4 in
  List.map (fun x -> (key x, x)) xs
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.filteri (fun i _ -> i < keep)
  |> List.map snd

(* The mean of the quieter quarter of [xs]. *)
let quiet xs = mean (quiet_part ~key:Fun.id xs)

(* Samples strictly above the nearest-rank [q] percentile. *)
let beyond xs q =
  let p = percentile xs q in
  List.length (List.filter (fun x -> x > p) xs)

module Splitmix = Vc_rng.Splitmix

(* --- process memory ----------------------------------------------------------- *)

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.)
            else scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* --- JSON output -------------------------------------------------------------- *)

(* The program's own encoder rounds floats to 6 significant digits; the
   benchmark's results keep every digit, so it writes its own. *)
type json =
  | Num of float
  | Int of int
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec to_json_string = function
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
      else if Float.is_finite f then Printf.sprintf "%.17g" f
      else "null"
  | Int i -> string_of_int i
  | Str s -> "\"" ^ Vc_obs.Json.escape s ^ "\""
  | Bool b -> string_of_bool b
  | Arr xs -> "[" ^ String.concat "," (List.map to_json_string xs) ^ "]"
  | Obj kv ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> "\"" ^ Vc_obs.Json.escape k ^ "\":" ^ to_json_string v) kv)
      ^ "}"

(* --- spans -------------------------------------------------------------------- *)

(* One span per call the traced run makes into a layer: name, start, end,
   the enclosing span and the request it served.  Spans stay in memory
   until the run ends; [self_times] subtracts from each span the part of
   its interval its direct children cover. *)
module Span = struct
  type t = { id : int; name : string; parent : int; req : int; t0 : float; mutable t1 : float }

  let on = ref false
  let spans : t list ref = ref []
  let next = ref 1
  let stack : int list ref = ref []

  let with_ ?(req = 0) name f =
    if not !on then f ()
    else begin
      let id = !next in
      incr next;
      let parent = match !stack with p :: _ -> p | [] -> 0 in
      let s = { id; name; parent; req; t0 = now (); t1 = nan } in
      stack := id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          s.t1 <- now ();
          stack := List.tl !stack;
          spans := s :: !spans)
        f
    end

  (* A span timed elsewhere (e.g. a request's send and reply seen by the
     load generator); returns its id (0 when tracing is off). *)
  let record ?(parent = 0) ?(req = 0) name t0 t1 =
    if not !on then 0
    else begin
      let id = !next in
      incr next;
      spans := { id; name; parent; req; t0; t1 } :: !spans;
      id
    end

  (* (name, count, total seconds, self seconds), by total descending. *)
  let self_times () =
    let children = Hashtbl.create 64 in
    List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) !spans;
    let covered s =
      let ivs =
        Hashtbl.find_all children s.id
        |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
        |> List.filter (fun (a, b) -> b > a)
        |> List.sort compare
      in
      fst
        (List.fold_left
           (fun (acc, hi) (a, b) ->
             if b <= hi then (acc, hi) else (acc +. (b -. Float.max a hi), b))
           (0., neg_infinity) ivs)
    in
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun s ->
        let d = s.t1 -. s.t0 in
        let c, tot, self = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0.) in
        Hashtbl.replace tbl s.name (c + 1, tot +. d, self +. (d -. covered s)))
      !spans;
    Hashtbl.fold (fun name (c, tot, self) acc -> (name, c, tot, self) :: acc) tbl []
    |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc
          (to_json_string
             (Obj
                [
                  ("id", Int s.id);
                  ("name", Str s.name);
                  ("parent", Int s.parent);
                  ("req", Int s.req);
                  ("start", Num s.t0);
                  ("end", Num s.t1);
                ]));
        output_char oc '\n')
      (List.rev !spans);
    close_out oc
end

(* --- what a workload run reports ------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  metrics : metric list;
  attempted : int;
  failed : int;  (** attempted operations that failed, wrong outputs included *)
  wrong : int;  (** outputs that differ from the twin's or the pinned ones *)
  invalid : string list;  (** broken workload self-checks; any makes the run incorrect *)
  detail : (string * json) list;  (** run metadata and per-phase counts *)
}

let m name value unit_ = { name; value; unit_ }

(* (all, steal) CPU ticks of the machine so far: the share of steal
   between two readings is how much of the run the hypervisor gave to
   other guests. *)
let cpu_ticks () =
  match open_in "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | ic ->
      let line = input_line ic in
      close_in ic;
      let fields =
        String.split_on_char ' ' line |> List.filter (( <> ) "") |> List.tl |> List.map int_of_string
      in
      (List.fold_left ( + ) 0 fields, match List.nth_opt fields 7 with Some s -> s | None -> 0)

let loadavg () =
  match open_in "/proc/loadavg" with
  | exception Sys_error _ -> Arr []
  | ic ->
      let line = input_line ic in
      close_in ic;
      Scanf.sscanf line "%f %f %f" (fun a b c -> Arr [ Num a; Num b; Num c ])
