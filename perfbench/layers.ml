(* The traced run: per-layer metrics, each timed from outside around
   calls into the layer's public functions or through the `volcomp`
   binary, and counts read from the program's stats reply and
   Vc_obs.Metrics.  Every traced run measures every layer: the serving
   layers on the workload's own traffic (serve-hot's for the batch
   workloads), the experiment and synthesis layers on their fixed
   batches.  Each sweep also gives its path's tracing overhead: the
   same work timed with tracing off and on. *)

module P = Vc_serve.Protocol
module H = Vc_serve.Handler
module R = Vc_check.Registry
module Json = Vc_obs.Json
module Metrics = Vc_obs.Metrics
module Span = Util.Span
module S = Serve_wl
module B = Batch_wl

type sweep = {
  metrics : Util.metric list;
  checked : int;
  failed : int;
  wrong : int;
  overhead_ms : float;  (** traced minus untraced headline time of this path *)
  detail : (string * Util.json) list;
}

let mean = function [] -> nan | xs -> Util.sum xs /. float_of_int (List.length xs)

(* --- serving ------------------------------------------------------------------ *)

(* The values of each request kind's requests, and of all of them. *)
let per_kind queries values =
  let kinds = List.sort_uniq compare (Array.to_list (Array.map P.kind queries)) in
  let pick k =
    List.filteri (fun i _ -> k = "all" || P.kind queries.(i) = k) (Array.to_list values)
    |> List.filter (fun x -> not (Float.is_nan x))
  in
  List.map (fun k -> (k, pick k)) ("all" :: kinds)

let codec_us twin queries bodies =
  Array.mapi
    (fun i q ->
      let id = i + 1 in
      let t0 = Util.now () in
      Span.with_ ~req:id "protocol.codec" (fun () ->
          let frame = Tier.request_frame id q in
          let d = P.decoder () in
          P.feed d (Bytes.unsafe_of_string frame) (String.length frame);
          (match P.next_frame d with
          | Ok (Some body) -> ignore (Result.bind (Json.parse body) P.request_of_json)
          | _ -> failwith "codec: request frame did not decode");
          let reply =
            match S.expected twin q with
            | Some payload -> P.frame (Json.to_string (P.ok_reply ~id payload))
            | None -> P.frame bodies.(i)
          in
          let d = P.decoder () in
          P.feed d (Bytes.unsafe_of_string reply) (String.length reply);
          match P.next_frame d with
          | Ok (Some body) -> ignore (Result.bind (Json.parse body) P.reply_of_json)
          | _ -> failwith "codec: reply frame did not decode");
      (Util.now () -. t0) *. 1e6)
    queries

(* Replay the requests through an in-process Handler with the tier's
   total cache slots (and its store), as the single-process server sees
   them: (µs per request). *)
let handler_replay_us cfg store queries =
  let h = H.create ~cache_capacity:(cfg.S.workers * cfg.S.cache) ?store () in
  Array.mapi
    (fun i q ->
      let t0 = Util.now () in
      Span.with_ ~req:(i + 1) "handler.handle" (fun () -> ignore (H.handle h q));
      (Util.now () -. t0) *. 1e6)
    queries

let closed_rtt_us ~name socket frames =
  Array.map (fun (body, s) -> (body, s *. 1e6)) (Load.closed_loop ~span:name ~socket frames)

let median_of xs = Util.median (List.filter (fun x -> not (Float.is_nan x)) xs)

let serve cfg ~exe ~dir ~seed ~seconds =
  let rng = Util.Splitmix.create seed in
  let twin = S.twin_create () in
  let sessions = S.sessions cfg twin.S.h in
  let sa = Array.of_list sessions in
  let phase socket ~label ~share =
    S.open_phase cfg rng sa socket ~label ~rate:cfg.S.ref_rate ~seconds:(share *. seconds) ~counted:true
  in
  let k = min 2000 (int_of_float (cfg.S.ref_rate *. seconds *. 0.1)) in
  let closed_queries = S.plan rng cfg sa k in
  let closed_frames = S.frames closed_queries in
  let store = ref None in
  let warm, untraced, traced, st0, st1, tier_rtt, rss, pid =
    S.with_tier ~exe ~dir cfg sessions (fun live ->
        store := Option.map (fun d -> R.store ~dir:d) live.S.snap_dir;
        let socket = live.S.tier.Tier.socket in
        let ctl = Tier.open_conn live.S.tier in
        let warm = phase socket ~label:"warm-up" ~share:0.05 in
        let st0 = Tier.stats ctl in
        let untraced = phase socket ~label:"reference" ~share:0.12 in
        Span.on := true;
        let traced = phase socket ~label:"reference-traced" ~share:0.12 in
        let st1 = Tier.stats ctl in
        let tier_rtt = closed_rtt_us ~name:"closed.tier" socket closed_frames in
        let st = Tier.stats ctl in
        let rss = Tier.peak_rss_mb live.S.tier st in
        Tier.close_conn ctl;
        (warm, untraced, traced, st0, st1, tier_rtt, rss, live.S.tier))
  in
  (* the same requests, closed loop, through one process and no supervisor *)
  let single =
    let snap_dir = match !store with Some s -> Some (Vc_snap.Store.dir s) | None -> None in
    let t =
      Tier.spawn ~exe ~socket:(Filename.concat dir "single.sock") ~workers:0 ?snap_dir
        ~cache:(cfg.S.workers * cfg.S.cache) ()
    in
    match closed_rtt_us ~name:"closed.single" t.Tier.socket closed_frames with
    | r ->
        Tier.stop t;
        r
    | exception e ->
        Tier.kill t;
        raise e
  in
  let bodies = Array.map fst tier_rtt in
  let codec = codec_us twin closed_queries bodies in
  let handler = handler_replay_us cfg !store closed_queries in
  (* pure compute costs on a warm handler *)
  let warm_us q =
    ignore (S.expected twin q);
    let t0 = Util.now () in
    Span.with_ "handler.warm" (fun () -> ignore (H.handle twin.S.h q));
    (Util.now () -. t0) *. 1e6
  in
  let probe_us =
    Util.median (List.map warm_us (Array.to_list (S.plan rng { cfg with S.mix = [ ("probe", 1) ] } sa 2000)))
  in
  let solve_ms =
    Util.median
      (List.map
         (fun s -> warm_us (P.Solve { problem = s.S.problem; size = s.S.size; seed = s.S.seed }) /. 1e3)
         sessions)
  in
  (* snapshot loads: the workload's store, or one built here for its sessions *)
  let store =
    match !store with
    | Some s -> s
    | None ->
        let d = Filename.concat dir "layers-snaps" in
        S.rm_rf d;
        Sys.mkdir d 0o755;
        let s = R.store ~dir:d in
        List.iter (fun x -> ignore ((S.entry x.S.problem).R.acquire ~store:s ~size:x.S.size ~seed:x.S.seed () : int)) sessions;
        s
  in
  let snap_load_ms =
    Util.median
      (List.map
         (fun x ->
           let t0 = Util.now () in
           Span.with_ "snap.load" (fun () ->
               ignore ((S.entry x.S.problem).R.make ~store ~size:x.S.size ~seed:x.S.seed () : R.trial));
           (Util.now () -. t0) *. 1e3)
         sessions)
  in
  let build_ms =
    List.map
      (fun (e : R.entry) ->
        let size = List.fold_left max 0 e.R.sizes and seed = Util.Splitmix.next rng in
        let t =
          List.init 5 (fun _ ->
              let t0 = Util.now () in
              Span.with_ "registry.acquire" (fun () -> ignore (e.R.acquire ~size ~seed () : int));
              (Util.now () -. t0) *. 1e3)
        in
        Util.m ("registry.build_ms." ^ B.slug e.R.name) (Util.median t) "ms")
      (R.all ())
  in
  Span.on := false;
  (* verification of every reply the sweep received *)
  let closed_phase label out =
    {
      S.label;
      rate = 0.;
      queries = closed_queries;
      ph =
        {
          Load.sched = Array.make k 0.;
          sent = Array.make k 0.;
          recv = Array.map (fun (_, us) -> us /. 1e6) out;
          body = Array.map fst out;
        };
      counted = true;
    }
  in
  let tallies =
    List.map (fun p -> (p, S.verify twin p))
      [ warm; untraced; traced; closed_phase "closed-tier" tier_rtt; closed_phase "closed-single" single ]
  in
  (* the ledger: stages of a served request at the reference rate *)
  let deltas = S.shard_deltas pid st0 st1 in
  let sched_ms = Array.mapi (fun i r -> if S.is_ok untraced.S.ph.Load.body.(i) then (r -. untraced.S.ph.Load.sched.(i)) *. 1e3 else nan) untraced.S.ph.Load.recv in
  let lag_ms = Array.mapi (fun i s -> (s -. untraced.S.ph.Load.sched.(i)) *. 1e3) untraced.S.ph.Load.sent in
  let wire_ms = Array.mapi (fun i r -> if S.is_ok untraced.S.ph.Load.body.(i) then (r -. untraced.S.ph.Load.sent.(i)) *. 1e3 else nan) untraced.S.ph.Load.recv in
  let open_rows k =
    let get a = List.assoc k (per_kind untraced.S.queries a) in
    (median_of (get sched_ms) *. 1e3, median_of (get lag_ms) *. 1e3, median_of (get wire_ms) *. 1e3)
  in
  (* every stage is a median over the same requests, so a heavy-tailed
     kind (solve) does not pit a mean against a median *)
  let closed k a = median_of (List.assoc k (per_kind closed_queries a)) in
  let ledger =
    List.map
      (fun (k, _) ->
        let p50, lag, wire = open_rows k in
        let rtt_tier = closed k (Array.map snd tier_rtt) and rtt_single = closed k (Array.map snd single) in
        let codec = closed k codec and hand = closed k handler in
        let loop = rtt_single -. hand -. codec and hop = rtt_tier -. rtt_single and wait = wire -. rtt_tier in
        (k, [ ("p50_us", p50); ("lag_us", lag); ("codec_us", codec); ("handler_us", hand);
              ("server_loop_us", loop); ("supervisor_hop_us", hop); ("queue_wait_us", wait);
              ("residual_us", p50 -. (lag +. codec +. hand +. loop +. hop +. wait)) ]))
      (per_kind untraced.S.queries (Array.make (Array.length untraced.S.queries) 0.))
  in
  let all = List.assoc "all" ledger in
  let req_bytes = mean (Array.to_list (Array.map (fun f -> float_of_int (String.length f)) closed_frames)) in
  let reply_bytes = mean (Array.to_list (Array.map (fun (b, _) -> float_of_int (String.length (P.frame b))) tier_rtt)) in
  let evictions = List.fold_left (fun a d -> a + d.S.evictions) 0 deltas in
  let requests = List.fold_left (fun a d -> a + d.S.requests) 0 deltas in
  let snap_h = List.fold_left (fun a d -> a + d.S.snap_hits) 0 deltas in
  let snap_m = List.fold_left (fun a d -> a + d.S.snap_misses) 0 deltas in
  let p50 p = Util.median (S.ok_latencies p) in
  {
    metrics =
      [
        Util.m "protocol.codec_us" (List.assoc "codec_us" all) "us";
        Util.m "protocol.req_bytes" req_bytes "bytes";
        Util.m "protocol.reply_bytes" reply_bytes "bytes";
        Util.m "server.loop_us" (List.assoc "server_loop_us" all) "us";
        Util.m "supervisor.hop_us" (List.assoc "supervisor_hop_us" all) "us";
        Util.m "queue.wait_us" (List.assoc "queue_wait_us" all) "us";
        Util.m "residual_us" (List.assoc "residual_us" all) "us";
        Util.m "ring.imbalance" (S.imbalance deltas) "ratio";
        Util.m "handler.probe_us" probe_us "us";
        Util.m "handler.solve_ms" solve_ms "ms";
        Util.m "cache.hit_ratio" (S.hit_ratio deltas) "ratio";
        Util.m "lru.evictions_per_req" (S.ratio evictions requests) "ratio";
        Util.m "snap.load_ms" snap_load_ms "ms";
        Util.m "snap.hit_ratio" (S.ratio snap_h (snap_h + snap_m)) "ratio";
        Util.m "loadgen.lag_p99_ms" (Util.percentile (Load.lags_ms untraced.S.ph) 99.) "ms";
      ]
      @ build_ms;
    checked = List.fold_left (fun a (_, t) -> a + t.S.t_sent) 0 tallies;
    failed = List.fold_left (fun a (_, t) -> a + t.S.t_failed) 0 tallies;
    wrong = List.fold_left (fun a (_, t) -> a + t.S.t_mismatch) 0 tallies;
    overhead_ms = p50 traced -. p50 untraced;
    detail =
      [
        ("serve_config", Util.Str cfg.S.name);
        ("peak_rss_mb", Util.Num rss);
        ("phases", Util.Arr (List.map (fun (p, t) -> S.phase_json p t) tallies));
        ("shards", S.shard_json deltas);
        ( "ledger",
          Util.Arr
            (List.map
               (fun (k, row) ->
                 Util.Obj (("kind", Util.Str k) :: List.map (fun (n, v) -> (n, Util.Num v)) row))
               ledger) );
      ];
  }

(* --- experiments ----------------------------------------------------------------- *)

let counters = [ "probe.queries"; "world.bfs_expanded"; "ir.batch.origins"; "pool.chunks" ]

let ladder_rep ?pool () =
  List.fold_left
    (fun (acc, n, bad) (op : B.op) ->
      let t0 = Util.now () in
      let c, b = Span.with_ ("experiments." ^ op.B.slug) op.B.run in
      ((op.B.slug, Util.now () -. t0) :: acc, n + c, bad + b))
    ([], 0, 0) (B.ladder_ops ?pool ())

let ns_per_origin ~seed =
  match Vc_ir.Library.instance ~name:"leaf-coloring" ~size:4095 ~seed with
  | None -> failwith "leaf-coloring IR instance missing"
  | Some (Vc_ir.Library.Packed { spec; graph; input; world; solver; _ }) ->
      let n = Vc_graph.Graph.n graph in
      let origins = Array.init n Fun.id in
      let reps f = Util.median (List.init 5 (fun _ -> snd (Util.time f) *. 1e9 /. float_of_int n)) in
      let probe =
        reps (fun () ->
            Span.with_ "probe.run" (fun () ->
                Array.iter (fun origin -> ignore (Vc_model.Probe.run ~world ~origin solver.Vc_lcl.Lcl.solve)) origins))
      in
      let ir =
        reps (fun () ->
            Span.with_ "ir.run_batch" (fun () ->
                ignore (Vc_ir.Exec.run_batch spec ~graph ~input ~origins)))
      in
      (probe, ir)

let ladder ~seed =
  let run_wall ~domains =
    Vc_exec.Pool.with_pool ~domains (fun pool -> Util.time (fun () -> ladder_rep ~pool ()))
  in
  let (_, n0, bad0), untraced = run_wall ~domains:2 in
  Metrics.reset ();
  Metrics.set_enabled true;
  Span.on := true;
  let (per_call, n1, bad1), traced = run_wall ~domains:2 in
  let counts = List.map (fun c -> (c, Metrics.value (Metrics.counter c))) counters in
  Metrics.set_enabled false;
  let probe_ns, ir_ns = ns_per_origin ~seed in
  Span.on := false;
  let (_, n2, bad2), one_domain = run_wall ~domains:1 in
  {
    metrics =
      [
        Util.m "probe.ns_per_origin" probe_ns "ns";
        Util.m "ir.ns_per_origin" ir_ns "ns";
        Util.m "pool.speedup" (one_domain /. untraced) "ratio";
      ]
      @ List.map (fun (c, v) -> Util.m c (float_of_int v) "count") counts
      @ List.map (fun (slug, s) -> Util.m ("report_s." ^ slug) s "s") per_call;
    checked = n0 + n1 + n2;
    failed = bad0 + bad1 + bad2;
    wrong = bad0 + bad1 + bad2;
    overhead_ms = (traced -. untraced) *. 1e3;
    detail =
      [
        ("ladder_wall_s", Util.Obj [ ("untraced", Util.Num untraced); ("traced", Util.Num traced); ("one_domain", Util.Num one_domain) ]);
      ];
  }

(* --- synthesis ------------------------------------------------------------------- *)

(* Every rung once with tracing off, then again traced: the final CNF of
   each rung is dumped, parsed back, re-solved and (for the pinned
   certified rungs) DRUP-certified on its own. *)
let synth ~dir =
  let rungs = B.rungs in
  let untraced, t_untraced =
    Util.time (fun () ->
        List.fold_left
          (fun (n, bad) r ->
            match B.run_rung r with
            | Ok v -> (n + 1, if B.rung_matches r v then bad else bad + 1)
            | Error _ -> (n + 1, bad + 1))
          (0, 0) rungs)
  in
  Span.on := true;
  let cnf = Filename.concat dir "synth-final.cnf" in
  let rung_s = ref 0. and solve_s = ref 0. and certify_s = ref 0. in
  let clauses = ref 0 and conflicts = ref 0 and props = ref 0 in
  let timed acc name f =
    let r, t = Util.time (fun () -> Span.with_ name f) in
    acc := !acc +. t;
    r
  in
  (* the re-loaded final CNF must give the pinned verdict again (and
     certify, for the certified rungs); a rung the VOL >= 1 axiom decides
     encodes no clause, so there is nothing to re-solve *)
  let recheck r (rep : Vc_synth.Encode.report) =
    if rep.Vc_synth.Encode.n_clauses = 0 then r.B.volume < 1
    else
      match
        Span.with_ "synth.cnf.of_dimacs" (fun () ->
            Vc_synth.Cnf.of_dimacs (In_channel.with_open_bin cnf In_channel.input_all))
      with
      | Error _ -> false
      | Ok f ->
          let verdict = timed solve_s "synth.cnf.solve" (fun () -> Vc_synth.Cnf.solve f) in
          (verdict = Vc_synth.Sat.Sat) = r.B.sat
          && (r.B.certified <> Some true
             || Result.is_ok (timed certify_s "synth.cnf.certify_unsat" (fun () -> Vc_synth.Cnf.certify_unsat f)))
  in
  let traced =
    List.fold_left
      (fun (n, bad) r ->
        match timed rung_s ("synth.rung." ^ B.rung_slug r) (fun () -> B.run_rung ~dimacs_out:cnf r) with
        | Error _ -> (n + 2, bad + 2)
        | Ok v ->
            let rep = v.Vc_synth.Classify.v_report in
            clauses := !clauses + rep.Vc_synth.Encode.n_clauses;
            conflicts := !conflicts + rep.Vc_synth.Encode.sat_stats.Vc_synth.Sat.conflicts;
            props := !props + rep.Vc_synth.Encode.sat_stats.Vc_synth.Sat.propagations;
            (n + 2, bad + Bool.to_int (not (B.rung_matches r v)) + Bool.to_int (not (recheck r rep))))
      (0, 0) rungs
  in
  Span.on := false;
  (try Sys.remove cnf with Sys_error _ -> ());
  {
    metrics =
      [
        Util.m "encode.clauses" (float_of_int !clauses) "count";
        Util.m "sat.conflicts" (float_of_int !conflicts) "count";
        Util.m "sat.propagations" (float_of_int !props) "count";
        Util.m "sat.solve_s" !solve_s "s";
        Util.m "certify_s" !certify_s "s";
      ];
    checked = fst untraced + fst traced;
    failed = snd untraced + snd traced;
    wrong = snd untraced + snd traced;
    overhead_ms = (!rung_s -. t_untraced) *. 1e3;
    detail = [ ("synth_wall_s", Util.Obj [ ("untraced", Util.Num t_untraced); ("traced", Util.Num !rung_s) ]) ];
  }
