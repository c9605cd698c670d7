(* The two in-process batch workloads.

   ladder: every Experiments call of `Experiments.all ~quick:true`, on a
   2-domain Vc_exec.Pool -- builders, lazy worlds, probes, batched IR,
   Runner fan-out and Fit.  It never enters lib/serve or lib/snap.

   synth: every spec's SAT rung at its known-feasible volume, the two
   DRUP-certified pinned UNSAT rungs, the uncertified leaf@3 UNSAT solve
   and the degree-parity@0 axiom rung.

   Each batch is a list of operations (one Experiments call, one rung)
   whose outputs are compared with pinned values. *)

module E = Vc_measure.Experiments
module C = Vc_synth.Classify
module Pool = Vc_exec.Pool

type op = {
  slug : string;
  run : unit -> int * int;  (** (outputs checked, outputs differing from the pins) *)
}

(* --- ladder -------------------------------------------------------------------- *)

(* Fitted class of every measurement at quick size, as observed at the
   commit that introduced this benchmark (Hierarchical-THC(3) R-VOL fits
   Θ(n^(1/2)) there; the lax [agrees] set would also accept n^(1/3)). *)
let fitted_pins =
  [
    ("Table 1, row LeafColoring (Thm 3.6)",
     [ ("R-DIST", "Theta(log n)"); ("D-DIST", "Theta(log n)"); ("R-VOL", "Theta(log n)");
       ("D-VOL", "Theta(n)") ]);
    ("Table 1, row BalancedTree (Thm 4.5)",
     [ ("R-DIST", "Theta(log n)"); ("D-DIST", "Theta(log n)"); ("R-VOL", "Theta(n)");
       ("D-VOL", "Theta(n)") ]);
    ("Table 1, row Hierarchical-THC(2) (Thm 5.9)",
     [ ("R-DIST", "Theta(n^(1/2))"); ("D-DIST", "Theta(n^(1/2))"); ("R-VOL", "Theta(n^(1/2))");
       ("D-VOL", "Theta(n)") ]);
    ("Table 1, row Hierarchical-THC(3) (Thm 5.9)",
     [ ("R-DIST", "Theta(n^(1/3))"); ("D-DIST", "Theta(n^(1/3))"); ("R-VOL", "Theta(n^(1/2))");
       ("D-VOL", "Theta(n)") ]);
    ("Table 1, row Hybrid-THC(2) (Thm 6.3)",
     [ ("R-DIST", "Theta(log n)"); ("D-DIST", "Theta(log n)"); ("R-VOL", "Theta(n^(1/3))");
       ("D-VOL", "Theta(n)") ]);
    ("Table 1, row HH-THC(2,3) (Thm 6.5)",
     [ ("R-DIST", "Theta(n^(1/3))"); ("D-DIST", "Theta(n^(1/3))"); ("R-VOL", "Theta(n^(1/2))");
       ("D-VOL", "Theta(n)") ]);
    ("Figures 1-2: class A (DegreeParity) and class B (Cole-Vishkin 3-coloring)",
     [ ("A:VOL", "Theta(1)"); ("B:DIST", "Theta(1)"); ("B:VOL", "Theta(1)") ]);
    ("Prop 3.13 (Fig 8 flavor): interactive D-VOL adversary for LeafColoring",
     [ ("D-VOL", "Theta(n)") ]);
    ("Example 7.6: volume vs CONGEST (n = 510)", [ ("VOL", "Theta(log n)") ]);
    ("Observation 7.4: BalancedTree solved in CONGEST",
     [ ("ROUNDS", "Theta(log n)"); ("VOL", "Theta(n)") ]);
    ("Families: 2-d torus grid (seeing far: DIST Theta(sqrt n))",
     [ ("C4:DIST", "Theta(n^(1/2))"); ("C4:VOL", "Theta(n)"); ("MM:DIST", "Theta(n^(1/2))");
       ("MM:VOL", "Theta(n)") ]);
    ("Families: random 4-regular + expander (seeing wide: DIST Theta(log n), Q7.3)",
     [ ("MIS:DIST", "Theta(n^(1/3))"); ("MIS:VOL", "Theta(n)"); ("SO:DIST", "Theta(n^(1/3))");
       ("SO:VOL", "Theta(n)"); ("XMIS:DIST", "Theta(log n)"); ("XMIS:VOL", "Theta(n)") ]);
    ("Ablation: way-point rate constant c (p = c log n / n^(1/k))", []);
    ("Ablation: RWtoLeaf revisit-flip rule (Alg 1 lines 4-5)", []);
    ("Figure 3: volume <-> distance lines (fitted classes per problem)", []);
  ]

let fitted_string m = Format.asprintf "%a" Vc_measure.Fit.pp_model (E.fitted m)

(* Every measurement of every report must carry its pinned class, and
   every pinned measurement must be present. *)
let check_reports reports =
  List.fold_left
    (fun (n, bad) (r : E.report) ->
      match List.assoc_opt r.E.title fitted_pins with
      | None -> (n + 1, bad + 1)
      | Some pins ->
          let got = List.map (fun m -> (m.E.quantity, fitted_string m)) r.E.measurements in
          let missing = List.filter (fun p -> not (List.mem p got)) pins in
          let extra = List.filter (fun g -> not (List.mem g pins)) got in
          (n + max 1 (List.length pins), bad + List.length missing + List.length extra))
    (0, 0) reports

let slug title =
  let b = Buffer.create 32 in
  String.iter
    (fun ch ->
      match Char.lowercase_ascii ch with
      | ('a' .. 'z' | '0' .. '9') as c -> Buffer.add_char b c
      | _ ->
          if Buffer.length b > 0 && Buffer.nth b (Buffer.length b - 1) <> '-' then
            Buffer.add_char b '-')
    title;
  let s = Buffer.contents b in
  if String.length s > 0 && s.[String.length s - 1] = '-' then String.sub s 0 (String.length s - 1)
  else s

(* The Experiments calls of [Experiments.all ~quick:true], in its order
   (Figure 3 renders the Table 1 reports of the same batch).  The order
   is fixed: an operation's time depends on the heap the operations
   before it left behind. *)
let ladder_ops ?pool () =
  let quick = true in
  let t1 = ref [] in
  let call name ?(table1 = false) f =
    {
      slug = name;
      run =
        (fun () ->
          let rs = f () in
          if table1 then t1 := rs @ !t1;
          check_reports rs);
    }
  in
  let independent =
    [
      call "table1-leafcoloring" ~table1:true (fun () -> [ E.table1_leafcoloring ?pool ~quick () ]);
      call "table1-balancedtree" ~table1:true (fun () -> [ E.table1_balancedtree ?pool ~quick () ]);
      call "table1-hierarchical-thc-2" ~table1:true (fun () ->
          [ E.table1_hierarchical_thc ?pool ~quick ~k:2 () ]);
      call "table1-hierarchical-thc-3" ~table1:true (fun () ->
          [ E.table1_hierarchical_thc ?pool ~quick ~k:3 () ]);
      call "table1-hybrid-thc" ~table1:true (fun () -> [ E.table1_hybrid_thc ?pool ~quick () ]);
      call "table1-hh-thc" ~table1:true (fun () -> [ E.table1_hh_thc ?pool ~quick () ]);
      call "figure12-classes" (fun () -> [ E.figure12_classes ?pool ~quick () ]);
      call "figure8-adversary" (fun () -> [ E.figure8_adversary ?pool ~quick () ]);
      call "congest-gap" (fun () -> [ E.congest_gap ?pool ~quick () ]);
      call "congest-balancedtree" (fun () -> [ E.congest_balancedtree ?pool ~quick () ]);
      call "family-torus" (fun () -> [ E.family_torus ?pool ~quick () ]);
      call "family-regular" (fun () -> [ E.family_regular ?pool ~quick () ]);
      call "ablation-waypoint-rate" (fun () -> [ E.ablation_waypoint_rate ?pool ~quick () ]);
      call "ablation-walk-flip" (fun () -> [ E.ablation_walk_flip ~quick () ]);
    ]
  in
  let table1_order =
    [ "Table 1, row LeafColoring (Thm 3.6)"; "Table 1, row BalancedTree (Thm 4.5)";
      "Table 1, row Hierarchical-THC(2) (Thm 5.9)"; "Table 1, row Hierarchical-THC(3) (Thm 5.9)";
      "Table 1, row Hybrid-THC(2) (Thm 6.3)"; "Table 1, row HH-THC(2,3) (Thm 6.5)" ]
  in
  let figure3 =
    call "figure3-lines" (fun () ->
        let by_title t = List.find (fun (r : E.report) -> r.E.title = t) !t1 in
        [ E.figure3_lines ~quick (List.map by_title table1_order) ])
  in
  independent @ [ figure3 ]

(* --- synth --------------------------------------------------------------------- *)

type rung = { problem : string; volume : int; certify : bool; sat : bool; certified : bool option }

(* Pinned verdicts: SAT at each spec's known-feasible volume, certified
   UNSAT at cycle@1 and leaf@2, uncertified UNSAT at leaf@3, and the
   degree-parity@0 UNSAT that the VOL >= 1 axiom decides without a
   solve.  The axiom rung keeps the batch at an odd 7 operations, so
   the median operation (cycle-coloring@3) is far from both neighbours
   and p50_ms does not jump between two of them. *)
let rungs =
  [
    { problem = "degree-parity"; volume = 1; certify = false; sat = true; certified = None };
    { problem = "degree-parity"; volume = 0; certify = false; sat = false; certified = None };
    { problem = "cycle-coloring"; volume = 3; certify = false; sat = true; certified = None };
    { problem = "leaf-coloring"; volume = 4; certify = false; sat = true; certified = None };
    { problem = "cycle-coloring"; volume = 1; certify = true; sat = false; certified = Some true };
    { problem = "leaf-coloring"; volume = 2; certify = true; sat = false; certified = Some true };
    { problem = "leaf-coloring"; volume = 3; certify = false; sat = false; certified = None };
  ]

let rung_slug r = Printf.sprintf "%s-%d%s" r.problem r.volume (if r.certify then "-certified" else "")

let spec name =
  match C.find name with Some s -> s | None -> failwith ("unknown synthesis spec " ^ name)

(* One rung: (verdict, or the error the pipeline returned). *)
let run_rung ?dimacs_out r = C.run ~certify:r.certify ?dimacs_out (spec r.problem) ~volume:r.volume

let rung_matches r (v : C.verdict) =
  v.C.v_sat = r.sat && v.C.v_report.Vc_synth.Encode.certified = r.certified

(* The rungs in the order above, fixed for the same reason as the
   ladder's. *)
let synth_ops () =
  List.map
    (fun r ->
      {
        slug = rung_slug r;
        run =
          (fun () ->
            match run_rung r with
            | Ok v -> (1, if rung_matches r v then 0 else 1)
            | Error _ -> (1, 1));
      })
    rungs

(* --- one batch run, tracing off ------------------------------------------------ *)

(* The batch workloads' inputs are fixed by the program, so the seed
   does not change them. *)
let ops_of workload ?pool () =
  match workload with
  | "ladder" -> ladder_ops ?pool ()
  | "synth" -> synth_ops ()
  | w -> invalid_arg ("not a batch workload: " ^ w)

(* What a fresh process does before its first operation: start the
   runtime and initialise every library, then the workload's own
   preparation -- the 2-domain pool for ladder, the synthesis specs and
   their certificate corpora for synth. *)
let setup_work = function
  | "ladder" -> Pool.shutdown (Pool.create ~domains:2 ())
  | "synth" -> List.iter (fun r -> ignore (spec r.problem : C.spec)) rungs
  | w -> invalid_arg ("not a batch workload: " ^ w)

let setup_reps = 21

(* Set-up is timed in fresh processes: spawn this executable in its
   set-up mode and wait for it to exit. *)
let timed_setups ~self workload =
  List.init setup_reps (fun _ ->
      let t0 = Util.now () in
      let pid = Unix.create_process self [| self; "setup"; workload |] Unix.stdin Unix.stdout Unix.stderr in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Util.now () -. t0
      | _ -> failwith ("set-up process failed for " ^ workload))

type batch = { wall : float;  (** seconds *) ops_ms : float list }

type client = { batches : batch list; checked : int; differing : int }

(* Run whole batches back to back until [until] (at least [min_reps]). *)
let client ~ops ~until ~min_reps =
  let rec go reps acc =
    if reps >= min_reps && Util.now () >= until then acc
    else
      let t0 = Util.now () in
      let ops_ms, checked, differing =
        List.fold_left
          (fun (ms, n, bad) (op : op) ->
            let (c, b), t = Util.time op.run in
            ((t *. 1e3) :: ms, n + c, bad + b))
          ([], acc.checked, acc.differing) (ops ())
      in
      go (reps + 1)
        { batches = { wall = Util.now () -. t0; ops_ms } :: acc.batches; checked; differing }
  in
  go 0 { batches = []; checked = 0; differing = 0 }

(* Each operation's time (ms) over the repetitions of [batches], as the
   mean of its quieter quarter ({!Util.quiet}), in batch order.  The
   batch-time metrics sum these, so a slow stretch of the host costs
   only the repetitions it covers, operation by operation. *)
let op_quiet batches =
  let reps = List.map (fun b -> Array.of_list (List.rev b.ops_ms)) batches in
  List.init (Array.length (List.hd reps)) (fun i -> Util.quiet (List.map (fun a -> a.(i)) reps))

let run workload ~self ~seconds =
  let setups = timed_setups ~self workload in
  (* one client; the ladder fans out over a 2-domain pool *)
  let single =
    let pool = if workload = "ladder" then Some (Pool.create ~domains:2 ()) else None in
    let c =
      client ~ops:(ops_of workload ?pool) ~until:(Util.now () +. (0.55 *. seconds)) ~min_reps:3
    in
    Option.iter Pool.shutdown pool;
    c
  in
  (* two clients on their own domains, both cores busy *)
  let until = Util.now () +. (0.4 *. seconds) in
  let other = Domain.spawn (fun () -> client ~ops:(ops_of workload) ~until ~min_reps:1) in
  let mine = client ~ops:(ops_of workload) ~until ~min_reps:1 in
  let other = Domain.join other in
  let loaded = mine.batches @ other.batches in
  let n_ops = List.length (List.hd single.batches).ops_ms in
  let clients = [ single; mine; other ] in
  let phase_json label batches =
    let ms = List.concat_map (fun b -> b.ops_ms) batches in
    Util.Obj
      [
        ("phase", Util.Str label);
        ("batches", Util.Int (List.length batches));
        ("batch_wall_s", Util.Arr (List.map (fun b -> Util.Num b.wall) (List.rev batches)));
        ("operations", Util.Int (List.length ms));
        ("op_p50_ms", Util.Num (Util.median ms));
        ("op_p99_ms", Util.Num (Util.percentile ms 99.));
        ("samples_beyond_p99", Util.Int (Util.beyond ms 99.));
        ("op_quiet_ms", Util.Arr (List.map (fun x -> Util.Num x) (op_quiet batches)));
      ]
  in
  let one = op_quiet single.batches and two = op_quiet loaded in
  {
    Util.metrics =
      [
        Util.m "p50_ms" (Util.median one) "ms";
        Util.m "p99_ms" (Util.percentile one 99.) "ms";
        Util.m "p99_ms_at_load" (Util.percentile two 99.) "ms";
        Util.m "knee_rps" (float_of_int (2 * n_ops) /. (Util.sum two /. 1e3)) "req/s";
        Util.m "wall_s" (Util.sum one /. 1e3) "s";
        Util.m "setup_s" (Util.median setups) "s";
        Util.m "peak_rss_mb" (Util.vm_hwm_mb 0) "MiB";
      ];
    attempted = List.fold_left (fun a c -> a + c.checked) 0 clients;
    failed = List.fold_left (fun a c -> a + c.differing) 0 clients;
    wrong = List.fold_left (fun a c -> a + c.differing) 0 clients;
    invalid = [];
    detail =
      [
        ("setup_s", Util.Arr (List.map (fun t -> Util.Num t) setups));
        ("phases", Util.Arr [ phase_json "one-client" single.batches; phase_json "two-clients" loaded ]);
        ("checked", Util.Int (List.fold_left (fun a c -> a + c.checked) 0 clients));
      ];
  }
