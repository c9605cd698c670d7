(* The two serving workloads: open-loop traffic into a 2-worker
   `volcomp serve` tier, checked byte for byte against an in-process
   Handler twin once the timed phases are over. *)

module P = Vc_serve.Protocol
module H = Vc_serve.Handler
module R = Vc_check.Registry
module Ring = Vc_serve.Ring
module Json = Vc_obs.Json
module Sm = Util.Splitmix

type config = {
  name : string;
  problems : string list;
  full_size : bool;  (** the entry's largest full-profile size, else its smallest quick size *)
  seeds_per_shard : int;  (** sessions per (problem, shard) *)
  mix : (string * int) list;
  snap : bool;  (** serve from a snapshot store built during set-up *)
  workers : int;
  cache : int;  (** per-worker session cache slots *)
  ref_rate : float;  (** requests/s of the p50/p99 phase *)
  load_rate : float;  (** requests/s of the p99_ms_at_load phase *)
  limit_ms : float;  (** p99 limit that defines the knee *)
  knee_hi : float;  (** first upper probe of the knee search *)
  batch_n : int;  (** requests in the batch client's fixed batch (wall_s) *)
  lag_bound_ms : float;  (** generator lateness (p99) above which a run is invalid *)
}

(* Probe-dominated traffic over a session set that fits every worker's
   cache: after warm-up every request is a cache hit, so the codec, the
   supervisor hop and the select loops dominate. *)
let hot =
  {
    name = "serve-hot";
    problems = [ "DegreeParity"; "LeafColoring"; "LeafBitCopy (Ex 7.6)"; "Hierarchical-THC(2)" ];
    full_size = false;
    seeds_per_shard = 1;
    mix = [ ("probe", 19); ("trace", 1) ];
    snap = false;
    workers = 2;
    cache = 8;
    ref_rate = 2000.;
    load_rate = 5000.;
    limit_ms = 10.;
    knee_hi = 16000.;
    batch_n = 20000;
    lag_bound_ms = 10.;
  }

(* Solve/probe/warm traffic over 4x as many sessions as the tier has
   cache slots, served from a snapshot store: requests miss, evict,
   snapshot-load and run whole solver sweeps. *)
let churn =
  {
    name = "serve-churn";
    problems =
      [
        "CycleColoring3";
        "SinklessOrientation";
        "LeafColoring";
        "BalancedTree";
        "Hierarchical-THC(2)";
        "LeafBitCopy (Ex 7.6)";
        "RegularColoring4";
        "ExpanderMIS";
      ];
    full_size = true;
    seeds_per_shard = 4;
    mix = [ ("solve", 2); ("probe", 5); ("warm", 3) ];
    snap = true;
    workers = 2;
    cache = 8;
    ref_rate = 1200.;
    load_rate = 1600.;
    (* solver sweeps make churn's p99 climb gradually from ~2000 req/s;
       a 50 ms limit puts the knee at saturation, where the tier starts
       to shed, instead of on that slope where noise moves it most *)
    limit_ms = 50.;
    knee_hi = 2000.;
    batch_n = 2000;
    lag_bound_ms = 20.;
  }

let of_name = function "serve-hot" -> Some hot | "serve-churn" -> Some churn | _ -> None

(* --- sessions and requests ------------------------------------------------- *)

type session = { problem : string; size : int; seed : int64; n : int; shard : int }

let entry name =
  match List.find_opt (fun (e : R.entry) -> e.R.name = name) (R.all ()) with
  | Some e -> e
  | None -> failwith ("unknown registry problem " ^ name)

(* Sessions are chosen on purpose: for every problem, [seeds_per_shard]
   instance seeds that the tier's ring places on each shard, so every
   shard holds the same problem mix.  The set is the same for every run
   seed (which picks the request plans, origins and arrival times): an
   instance's solve cost varies with its seed, and runs compared with
   each other serve the same instances. *)
let sessions cfg twin =
  let rng = Sm.create 0x5e55L in
  let ring = Ring.create (List.init cfg.workers Fun.id) in
  List.concat_map
    (fun name ->
      let e = entry name in
      let size =
        if cfg.full_size then List.fold_left max 0 e.R.sizes
        else List.fold_left min max_int e.R.quick_sizes
      in
      List.concat_map
        (fun shard ->
          let rec pick k acc =
            if k = 0 then List.rev acc
            else
              let seed = Sm.next rng in
              if Ring.lookup_session ring ~problem:name ~size ~seed <> shard then pick k acc
              else
                let n =
                  match H.instance_n twin ~problem:name ~size ~seed with
                  | Ok n -> n
                  | Error (_, msg) -> failwith msg
                in
                pick (k - 1) ({ problem = name; size; seed; n; shard } :: acc)
          in
          pick cfg.seeds_per_shard [])
        (List.init cfg.workers Fun.id))
    cfg.problems

let query_of rng cfg sessions =
  let total = List.fold_left (fun a (_, w) -> a + w) 0 cfg.mix in
  let r = Sm.int rng ~bound:total in
  let rec kind acc = function
    | [] -> assert false
    | (k, w) :: rest -> if r < acc + w then k else kind (acc + w) rest
  in
  let s = sessions.(Sm.int rng ~bound:(Array.length sessions)) in
  let problem = s.problem and size = s.size and seed = s.seed in
  match kind 0 cfg.mix with
  | "solve" -> P.Solve { problem; size; seed }
  | "warm" -> P.Warm { problem; size; seed }
  | "probe" -> P.Probe { problem; size; seed; origin = Sm.int rng ~bound:s.n }
  | "trace" -> P.Trace { problem; size; seed; origin = Sm.int rng ~bound:s.n }
  | k -> failwith ("unsupported kind " ^ k)

let plan rng cfg sessions n = Array.init n (fun _ -> query_of rng cfg sessions)
let frames qs = Array.mapi (fun i q -> Tier.request_frame (i + 1) q) qs

(* --- set-up ---------------------------------------------------------------- *)

type live = { tier : Tier.t; snap_dir : string option }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Build the snapshot store (when the workload has one), spawn the tier
   and warm every session once. *)
let setup cfg ~exe ~dir sessions =
  let snap_dir =
    if not cfg.snap then None
    else begin
      let d = Filename.concat dir (cfg.name ^ "-snaps") in
      rm_rf d;
      Sys.mkdir d 0o755;
      let store = R.store ~dir:d in
      List.iter
        (fun s -> ignore ((entry s.problem).R.acquire ~store ~size:s.size ~seed:s.seed () : int))
        sessions;
      Some d
    end
  in
  let tier =
    Tier.spawn ~exe ~socket:(Filename.concat dir (cfg.name ^ ".sock")) ~workers:cfg.workers
      ?snap_dir ~cache:cfg.cache ()
  in
  (try
     let c = Tier.open_conn tier in
     List.iteri
       (fun i s ->
         match
           (Tier.rpc c (i + 1) (P.Warm { problem = s.problem; size = s.size; seed = s.seed }))
             .P.body
         with
         | Ok _ -> ()
         | Error (_, msg) -> failwith ("prewarm: " ^ msg))
       sessions;
     Tier.close_conn c
   with e ->
     Tier.kill tier;
     raise e);
  { tier; snap_dir }

(* --- reply classification and verification --------------------------------- *)

let is_ok body =
  let i = try String.index body ',' with Not_found -> -1 in
  i > 0 && String.length body > i + 5 && String.sub body (i + 1) 5 = "\"ok\":"

let error_code body =
  if body = "" then "no_reply"
  else
    match Result.bind (Json.parse body) P.reply_of_json with
    | Ok { P.body = Error (code, _); _ } -> P.code_to_string code
    | Ok { P.body = Ok _; _ } -> "ok"
    | Error _ -> "unparsable"

let strip_source = function
  | Json.Obj ms -> Json.Obj (List.filter (fun (k, _) -> k <> "source") ms)
  | j -> j

(* The in-process twin: a Handler over the same registry with room for
   every session.  Answers are memoized per query (equal queries have
   equal answers). *)
type twin = { h : H.t; memo : (P.query, Json.t option) Hashtbl.t }

let twin_create () = { h = H.create ~cache_capacity:256 (); memo = Hashtbl.create 4096 }

let expected twin q =
  match Hashtbl.find_opt twin.memo q with
  | Some e -> e
  | None ->
      let e =
        match H.handle twin.h q with
        | Ok payload -> Some (match q with P.Warm _ -> strip_source payload | _ -> payload)
        | Error _ -> None
      in
      Hashtbl.replace twin.memo q e;
      e

(* A successful reply matches when its bytes are exactly the reply the
   twin's payload encodes to; a warm reply's [source] says which path
   made the session resident on that server, so it is compared without
   it. *)
let matches twin ~id q body =
  match (expected twin q, q) with
  | None, _ -> false
  | Some want, P.Warm _ -> (
      match Result.bind (Json.parse body) P.reply_of_json with
      | Ok { P.r_id; body = Ok payload } ->
          r_id = id && Json.to_string (strip_source payload) = Json.to_string want
      | _ -> false)
  | Some want, _ -> body = Json.to_string (P.ok_reply ~id want)

(* --- phases ---------------------------------------------------------------- *)

type phase = {
  label : string;
  rate : float;  (** offered requests/s; 0 for the batch client *)
  queries : P.query array;
  ph : Load.phase;
  counted : bool;
      (** every failure counts toward the run's failed share; knee steps
          probe overload on purpose, so only their wrong replies count *)
}

let open_phase cfg rng sessions socket ~label ~rate ~seconds ~counted =
  let n = max 1 (int_of_float (rate *. seconds)) in
  let queries = plan rng cfg sessions n in
  let fr = frames queries in
  let sched = Load.schedule rng ~rate ~n ~start:(Util.now () +. 0.02) in
  let ph = Load.open_loop ~socket ~conns:cfg.workers ~sched fr in
  { label; rate; queries; ph; counted }

(* Batch client: [n] requests over [workers] connections, each keeping
   [window] in flight; seconds from the first send to the last reply. *)
let batch_phase cfg rng sessions socket ~n ~window =
  let queries = plan rng cfg sessions n in
  let fr = frames queries in
  let ph = Load.windowed ~socket ~conns:cfg.workers ~window fr in
  let t0 = ph.Load.sched.(0) in
  let last = Array.fold_left (fun a r -> if Float.is_nan r then a else Float.max a r) t0 ph.Load.recv in
  ({ label = "batch"; rate = 0.; queries; ph; counted = true }, last -. t0)

let n_ok p = Array.fold_left (fun a b -> if b <> "" && is_ok b then a + 1 else a) 0 p.ph.Load.body
let failed_share p = 1. -. (float_of_int (n_ok p) /. float_of_int (max 1 (Array.length p.queries)))

(* A phase's requests cut, in schedule order, into windows of
   [window_s] of traffic at the phase's rate (the remainder joins the
   last one): short enough that bursts of stolen CPU time, which come
   every few hundred milliseconds while the host is busy, spare many of
   them. *)
let window_s = 0.05

let windows p =
  let n = Array.length p.queries and size = max 1 (int_of_float (p.rate *. window_s)) in
  let k = max 1 (n / size) in
  List.init k (fun w ->
      let lo = w * size and hi = if w = k - 1 then n else (w + 1) * size in
      List.init (hi - lo) (fun j -> lo + j))

(* Latency (ms, from the scheduled send) of request [i]; [None] without a
   successful reply. *)
let latency_ms p i =
  let r = p.ph.Load.recv.(i) in
  if Float.is_nan r || not (is_ok p.ph.Load.body.(i)) then None else Some ((r -. p.ph.Load.sched.(i)) *. 1e3)

(* Latencies of all the successful replies of a phase. *)
let ok_latencies p = List.filter_map (latency_ms p) (List.init (Array.length p.queries) Fun.id)

(* What a request costs the program: its kind and problem (a solve of
   one problem can take a hundred times a probe of another). *)
let request_class = function
  | P.Solve { problem; _ } -> "solve " ^ problem
  | P.Probe { problem; _ } -> "probe " ^ problem
  | P.Trace { problem; _ } -> "trace " ^ problem
  | P.Warm { problem; _ } -> "warm " ^ problem
  | _ -> "other"

(* Latencies of the successful replies in the quieter quarter of a
   phase's windows ({!Util.quiet_part}), pooled so that its percentiles
   rest on thousands of samples.  A window's rank is the mean, over its
   requests, of latency divided by the phase's median latency for the
   request's class: a stall of the host raises it even when it delays
   only a few requests, while the classes a window happened to draw (how
   many solver sweeps) do not. *)
let quiet_latencies p =
  let lats = Array.init (Array.length p.queries) (latency_ms p) in
  let by_class = Hashtbl.create 64 in
  Array.iteri
    (fun i l -> Option.iter (fun l -> Hashtbl.add by_class (request_class p.queries.(i)) l) l)
    lats;
  let typical = Hashtbl.create 64 in
  Hashtbl.iter
    (fun c _ ->
      if not (Hashtbl.mem typical c) then Hashtbl.replace typical c (Util.median (Hashtbl.find_all by_class c)))
    by_class;
  windows p
  |> List.map
       (List.filter_map (fun i ->
            Option.map (fun l -> (l, l /. Hashtbl.find typical (request_class p.queries.(i)))) lats.(i)))
  |> List.filter (( <> ) [])
  |> Util.quiet_part ~key:(fun w -> Util.mean (List.map snd w))
  |> List.concat_map (List.map fst)

(* A knee step passes when under 1% of its requests fail, its p99 (a
   request without a successful reply counting as infinitely late) meets
   the limit, and no backlog built up: at the last scheduled send at most
   twice as many requests were outstanding as the rate sustains within
   the latency limit. *)
let step_p99_ms p =
  Util.percentile (List.init (Array.length p.queries) (fun i -> Option.value (latency_ms p i) ~default:infinity)) 99.

let step_passes cfg p =
  let n = Array.length p.queries in
  let last = p.ph.Load.sched.(n - 1) in
  let outstanding = ref 0 in
  Array.iter (fun r -> if Float.is_nan r || r > last then incr outstanding) p.ph.Load.recv;
  failed_share p < 0.01
  && step_p99_ms p <= cfg.limit_ms
  && float_of_int !outstanding <= Float.max 64. (2. *. p.rate *. cfg.limit_ms /. 1e3)

(* Bounded bisection for the highest offered rate that passes: grow the
   upper probe by 1.5x while it passes, then bisect geometrically, for a
   fixed number of decisions.  Each step is followed by a stats round
   trip that waits until every worker has drained its queue.  A decision
   is the majority of up to three steps at the rate: near the knee
   whether a single step sheds 1% is a matter of chance (a burst of
   solves on one shard, a stall of the shared host), and the majority
   neither takes a lucky pass nor an unlucky failure for the rate. *)
let knee_search cfg rng sessions socket ctl ~lo ~steps ~step_s =
  let probes = ref [] in
  let step rate =
    let p =
      open_phase cfg rng sessions socket ~label:(Printf.sprintf "knee@%.0f" rate) ~rate
        ~seconds:step_s ~counted:false
    in
    ignore (Tier.stats ctl : Json.t);
    let ok = step_passes cfg p in
    probes := (p, ok) :: !probes;
    ok
  in
  let probe rate =
    let a = step rate in
    let b = step rate in
    if a = b then a else step rate
  in
  let lo = ref lo and hi = ref (Float.max cfg.knee_hi (lo *. 1.5)) and expanding = ref true in
  for _ = 1 to steps do
    if !expanding then
      if probe !hi then begin
        lo := !hi;
        hi := !hi *. 1.5
      end
      else expanding := false
    else
      let mid = sqrt (!lo *. !hi) in
      if probe mid then lo := mid else hi := mid
  done;
  (!lo, List.rev !probes)

(* --- per-shard accounting from the tier's stats ----------------------------- *)

let request_kinds = [ "solve"; "probe"; "trace"; "warm" ]

type shard_delta = { requests : int; hits : int; misses : int; evictions : int; snap_hits : int; snap_misses : int }

let shard_deltas (tier : Tier.t) st0 st1 =
  let rows st = Tier.shards st ~pid:tier.Tier.pid in
  List.map2
    (fun (_, a) (_, b) ->
      let d name = Tier.counter b name - Tier.counter a name in
      {
        requests = List.fold_left (fun acc k -> acc + d ("serve.requests." ^ k)) 0 request_kinds;
        hits = d "serve.cache.hits";
        misses = d "serve.cache.misses";
        evictions = d "serve.cache.evictions";
        snap_hits = d "serve.snap.hits";
        snap_misses = d "serve.snap.misses";
      })
    (rows st0) (rows st1)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let hit_ratio ds =
  let h = List.fold_left (fun a d -> a + d.hits) 0 ds and m = List.fold_left (fun a d -> a + d.misses) 0 ds in
  ratio h (h + m)

let imbalance ds =
  let reqs = List.map (fun d -> float_of_int d.requests) ds in
  let mean = Util.sum reqs /. float_of_int (max 1 (List.length reqs)) in
  if mean = 0. then 0. else List.fold_left Float.max 0. reqs /. mean

let shard_json ds =
  Util.Arr
    (List.mapi
       (fun i d ->
         Util.Obj
           [
             ("shard", Util.Int i);
             ("requests", Util.Int d.requests);
             ("cache_hits", Util.Int d.hits);
             ("cache_misses", Util.Int d.misses);
             ("cache_hit_ratio", Util.Num (ratio d.hits (d.hits + d.misses)));
             ("evictions", Util.Int d.evictions);
             ("snap_hits", Util.Int d.snap_hits);
             ("snap_misses", Util.Int d.snap_misses);
           ])
       ds)

(* --- verification ----------------------------------------------------------- *)

type tally = { t_sent : int; t_ok : int; t_failed : int; t_errors : (string * int) list; t_mismatch : int }

(* Classify every request of a phase: no reply, an error reply, or a
   successful reply that differs from the twin's. *)
let verify twin p =
  let errors = Hashtbl.create 4 and ok = ref 0 and mismatch = ref 0 in
  Array.iteri
    (fun i body ->
      if body <> "" && is_ok body then begin
        incr ok;
        if not (matches twin ~id:(i + 1) p.queries.(i) body) then incr mismatch
      end
      else
        let c = error_code body in
        Hashtbl.replace errors c (1 + Option.value (Hashtbl.find_opt errors c) ~default:0))
    p.ph.Load.body;
  let n = Array.length p.queries in
  {
    t_sent = n;
    t_ok = !ok;
    t_failed = (if p.counted then n - !ok else 0) + !mismatch;
    t_errors = Hashtbl.fold (fun k v acc -> (k, v) :: acc) errors [] |> List.sort compare;
    t_mismatch = !mismatch;
  }

let phase_json p t =
  let lat = ok_latencies p and lag = Load.lags_ms p.ph in
  Util.Obj
    [
      ("phase", Util.Str p.label);
      ("rate", Util.Num p.rate);
      ("sent", Util.Int t.t_sent);
      ("ok", Util.Int t.t_ok);
      ("failed", Util.Int (t.t_sent - t.t_ok + t.t_mismatch));
      ("counted", Util.Bool p.counted);
      ("errors", Util.Obj (List.map (fun (k, v) -> (k, Util.Int v)) t.t_errors));
      ("mismatches", Util.Int t.t_mismatch);
      ("samples", Util.Int (List.length lat));
      ("p50_ms", Util.Num (Util.median lat));
      ("p99_ms", Util.Num (Util.percentile lat 99.));
      ("samples_beyond_p99", Util.Int (Util.beyond lat 99.));
      ("lag_p99_ms", Util.Num (Util.percentile lag 99.));
    ]

(* --- one serve run, tracing off ---------------------------------------------- *)

let setup_reps = 9
let rounds = 10
let knee_steps = 7

let with_tier ~exe ~dir cfg sessions f =
  let live = setup cfg ~exe ~dir sessions in
  match f live with
  | r ->
      Tier.stop live.tier;
      r
  | exception e ->
      Tier.kill live.tier;
      raise e

(* [setup_reps] set-ups, timed; all but the last are torn down again. *)
let timed_setups cfg ~exe ~dir sessions =
  let rec go k acc =
    let live, t = Util.time (fun () -> setup cfg ~exe ~dir sessions) in
    if k = 1 then (live, List.rev (t :: acc))
    else begin
      Tier.stop live.tier;
      go (k - 1) (t :: acc)
    end
  in
  go setup_reps []

let validity cfg ~sessions ~hit_ratio ~ref_phase ~load_phase ~quiet_pools =
  let slots = cfg.workers * cfg.cache in
  let lag p = Util.percentile (Load.lags_ms p.ph) 99. in
  List.concat
    [
      (if cfg.snap && List.length sessions < 4 * slots then
         [ Printf.sprintf "%d sessions is under 4x the tier's %d cache slots" (List.length sessions) slots ]
       else []);
      (if (not cfg.snap) && hit_ratio < 0.999 then
         [ Printf.sprintf "post-warm cache hit ratio %.4f is not 1" hit_ratio ]
       else []);
      List.filter_map
        (fun p ->
          if lag p > cfg.lag_bound_ms then
            Some (Printf.sprintf "%s: generator lag p99 %.2f ms exceeds %.1f ms" p.label (lag p) cfg.lag_bound_ms)
          else None)
        [ ref_phase; load_phase ];
      List.filter_map
        (fun (label, xs) ->
          if List.length xs < 1000 then
            Some (Printf.sprintf "%s: %d samples in the quieter quarter, under the 1000 a p99 needs" label (List.length xs))
          else None)
        quiet_pools;
    ]

(* Phases run back to back, joined into one for the statistics. *)
let concat label = function
  | [] -> invalid_arg "concat: no phases"
  | p :: _ as ps ->
      let cat f = Array.concat (List.map f ps) in
      {
        p with
        label;
        queries = cat (fun p -> p.queries);
        ph =
          {
            Load.sched = cat (fun p -> p.ph.Load.sched);
            sent = cat (fun p -> p.ph.Load.sent);
            recv = cat (fun p -> p.ph.Load.recv);
            body = cat (fun p -> p.ph.Load.body);
          };
      }

(* One run: set-up [setup_reps] times, a warm-up, then [rounds] rounds of
   (reference-rate chunk, at-load chunk, one batch-client batch) so that
   a slow stretch of the shared machine lands in a few windows of every
   metric rather than in all windows of one, then the knee search. *)
let run cfg ~exe ~dir ~seed ~seconds =
  let rng = Sm.create seed in
  let twin = twin_create () in
  let sessions = sessions cfg twin.h in
  let sa = Array.of_list sessions in
  let live, setups = timed_setups cfg ~exe ~dir sessions in
  let socket = live.tier.Tier.socket in
  let chunk ~label ~rate ~share =
    open_phase cfg rng sa socket ~label ~rate ~seconds:(share *. seconds) ~counted:true
  in
  let r =
    try
      let ctl = Tier.open_conn live.tier in
      let warm = chunk ~label:"warm-up" ~rate:cfg.ref_rate ~share:0.05 in
      let st0 = Tier.stats ctl in
      let per_round =
        List.init rounds (fun _ ->
            let r = chunk ~label:"reference" ~rate:cfg.ref_rate ~share:(0.25 /. float_of_int rounds) in
            let l = chunk ~label:"at-load" ~rate:cfg.load_rate ~share:(0.25 /. float_of_int rounds) in
            (r, l, batch_phase cfg rng sa socket ~n:cfg.batch_n ~window:16))
      in
      let st1 = Tier.stats ctl in
      let rss = Tier.peak_rss_mb live.tier st1 in
      let ref_chunks = List.map (fun (r, _, _) -> r) per_round in
      let load_chunks = List.map (fun (_, l, _) -> l) per_round in
      let batches = List.map (fun (_, _, b) -> b) per_round in
      let load_phase = concat "at-load" load_chunks in
      let lo = if step_passes cfg load_phase then cfg.load_rate else cfg.ref_rate in
      let knee, probes =
        knee_search cfg rng sa socket ctl ~lo ~steps:knee_steps
          ~step_s:(0.02 *. seconds)
      in
      Tier.close_conn ctl;
      Tier.stop live.tier;
      (warm, st0, ref_chunks, load_chunks, st1, batches, knee, probes, rss)
    with e ->
      Tier.kill live.tier;
      raise e
  in
  let warm, st0, ref_chunks, load_chunks, st1, batches, knee, probes, rss = r in
  let ref_phase = concat "reference" ref_chunks and load_phase = concat "at-load" load_chunks in
  let deltas = shard_deltas live.tier st0 st1 in
  (* replies carry per-chunk ids, so verification goes chunk by chunk *)
  let verified label ps =
    let ts = List.map (verify twin) ps in
    let sum f = List.fold_left (fun a t -> a + f t) 0 ts in
    ( concat label ps,
      {
        t_sent = sum (fun t -> t.t_sent);
        t_ok = sum (fun t -> t.t_ok);
        t_failed = sum (fun t -> t.t_failed);
        t_errors =
          List.concat_map (fun t -> t.t_errors) ts
          |> List.sort compare
          |> List.fold_left
               (fun acc (k, v) ->
                 match acc with (k0, v0) :: rest when k0 = k -> (k, v0 + v) :: rest | _ -> (k, v) :: acc)
               []
          |> List.rev;
        t_mismatch = sum (fun t -> t.t_mismatch);
      } )
  in
  let tallies =
    [ verified "warm-up" [ warm ]; verified "reference" ref_chunks; verified "at-load" load_chunks;
      verified "batch" (List.map fst batches) ]
    @ List.map (fun (p, _) -> (p, verify twin p)) probes
  in
  let attempted =
    List.fold_left (fun a (p, t) -> a + if p.counted then t.t_sent else t.t_ok) 0 tallies
  in
  let failed = List.fold_left (fun a (_, t) -> a + t.t_failed) 0 tallies in
  let hr = hit_ratio deltas in
  let ref_quiet = quiet_latencies ref_phase and load_quiet = quiet_latencies load_phase in
  {
    Util.metrics =
      [
        Util.m "p50_ms" (Util.median ref_quiet) "ms";
        Util.m "p99_ms" (Util.percentile ref_quiet 99.) "ms";
        Util.m "p99_ms_at_load" (Util.percentile load_quiet 99.) "ms";
        Util.m "knee_rps" knee "req/s";
        Util.m "wall_s" (Util.quiet (List.map snd batches)) "s";
        Util.m "setup_s" (Util.median setups) "s";
        Util.m "peak_rss_mb" rss "MiB";
      ];
    attempted;
    failed;
    wrong = List.fold_left (fun a (_, t) -> a + t.t_mismatch) 0 tallies;
    invalid =
      validity cfg ~sessions ~hit_ratio:hr ~ref_phase ~load_phase
        ~quiet_pools:[ ("reference", ref_quiet); ("at-load", load_quiet) ];
    detail =
      [
        ("sessions", Util.Int (List.length sessions));
        ("cache_slots", Util.Int (cfg.workers * cfg.cache));
        ("setup_s", Util.Arr (List.map (fun t -> Util.Num t) setups));
        ("batch_wall_s", Util.Arr (List.map (fun (_, w) -> Util.Num w) batches));
        ("phases", Util.Arr (List.map (fun (p, t) -> phase_json p t) tallies));
        ( "knee_probes",
          Util.Arr
            (List.map
               (fun (p, ok) ->
                 Util.Obj
                   [
                     ("rate", Util.Num p.rate);
                     ("pass", Util.Bool ok);
                     ("failed_share", Util.Num (failed_share p));
                     ("p99_ms", Util.Num (step_p99_ms p));
                   ])
               probes) );
        ("shards", shard_json deltas);
        ("cache_hit_ratio", Util.Num hr);
        ("ring_imbalance", Util.Num (imbalance deltas));
        ("loadgen_lag_p99_ms", Util.Num (Util.percentile (Load.lags_ms ref_phase.ph) 99.));
        ("quiet_samples", Util.Obj [ ("reference", Util.Int (List.length ref_quiet)); ("at-load", Util.Int (List.length load_quiet)) ]);
        ( "quiet_samples_beyond_p99",
          Util.Obj
            [ ("reference", Util.Int (Util.beyond ref_quiet 99.)); ("at-load", Util.Int (Util.beyond load_quiet 99.)) ] );
      ];
  }
