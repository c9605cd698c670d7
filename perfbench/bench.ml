(* Entry point of the benchmark executable.

     bench.exe run --workload W --seed N --seconds S --trace 0|1
                   --exe VOLCOMP --dir WORKDIR [--commit ID]
     bench.exe setup ladder|synth

   [run] prints a readable report, one `meta` line and, last, the
   result object.  With --trace 0 it measures the workload's end-to-end
   metrics; with --trace 1 it runs the per-layer sweep (Layers).
   [setup] is the fresh-process set-up that the batch workloads time. *)

module S = Serve_wl
module B = Batch_wl

let workloads = [ "serve-hot"; "serve-churn"; "ladder"; "synth" ]

let usage () =
  prerr_endline
    "usage: bench.exe run --workload W --seed N --seconds S --trace 0|1 --exe PATH --dir DIR \
     [--commit ID]\n       bench.exe setup ladder|synth";
  exit 2

let traced workload ~exe ~dir ~seed ~seconds =
  let cfg = Option.value (S.of_name workload) ~default:S.hot in
  let sv = Layers.serve cfg ~exe ~dir ~seed ~seconds in
  let ld = Layers.ladder ~seed in
  let sy = Layers.synth ~dir in
  let own = match workload with "ladder" -> ld | "synth" -> sy | _ -> sv in
  Util.Span.write (Filename.concat dir (Printf.sprintf "spans-%s-%Ld.jsonl" workload seed));
  {
    Util.metrics =
      sv.Layers.metrics @ ld.Layers.metrics @ sy.Layers.metrics
      @ [ Util.m "trace.overhead_ms" own.Layers.overhead_ms "ms" ];
    attempted = sv.Layers.checked + ld.Layers.checked + sy.Layers.checked;
    failed = sv.Layers.failed + ld.Layers.failed + sy.Layers.failed;
    wrong = sv.Layers.wrong + ld.Layers.wrong + sy.Layers.wrong;
    invalid = [];
    detail = sv.Layers.detail @ ld.Layers.detail @ sy.Layers.detail;
  }

let untraced workload ~self ~exe ~dir ~seed ~seconds =
  match S.of_name workload with
  | Some cfg -> S.run cfg ~exe ~dir ~seed ~seconds
  | None -> B.run workload ~self ~seconds

let print_report workload (o : Util.outcome) =
  Printf.printf "== %s ==\n" workload;
  List.iter (fun (m : Util.metric) -> Printf.printf "  %-40s %16.6f %s\n" m.Util.name m.Util.value m.Util.unit_) o.Util.metrics;
  Printf.printf "  attempted %d, failed %d, wrong outputs %d\n" o.Util.attempted o.Util.failed
    o.Util.wrong;
  List.iter (fun s -> Printf.printf "  INVALID: %s\n" s) o.Util.invalid;
  match Util.Span.self_times () with
  | [] -> ()
  | rows ->
      Printf.printf "  span self times (name, count, total s, self s):\n";
      List.iter (fun (name, c, tot, self) -> Printf.printf "    %-44s %7d %10.4f %10.4f\n" name c tot self) rows

let run args =
  let get k = List.assoc_opt k args in
  let workload = Option.value (get "--workload") ~default:"" in
  let seed = Option.bind (get "--seed") Int64.of_string_opt in
  let seconds = Option.bind (get "--seconds") float_of_string_opt in
  let trace = get "--trace" in
  match (seed, seconds, trace, get "--exe", get "--dir") with
  | Some seed, Some seconds, Some (("0" | "1") as trace), Some exe, Some dir
    when List.mem workload workloads && seconds > 0. ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let load_before = Util.loadavg () and all0, steal0 = Util.cpu_ticks () in
      let o =
        if trace = "1" then traced workload ~exe ~dir ~seed ~seconds
        else untraced workload ~self:Sys.executable_name ~exe ~dir ~seed ~seconds
      in
      (* a figure with no sample behind it (every request of a phase
         failed) makes the run incorrect and is printed as 0 *)
      let unmeasured = List.filter (fun (m : Util.metric) -> not (Float.is_finite m.Util.value)) o.Util.metrics in
      let o =
        {
          o with
          Util.metrics =
            List.map (fun (m : Util.metric) -> if Float.is_finite m.Util.value then m else { m with Util.value = 0. }) o.Util.metrics;
          invalid = o.Util.invalid @ List.map (fun (m : Util.metric) -> m.Util.name ^ " has no sample") unmeasured;
        }
      in
      let meta =
        Util.Obj
          ([
             ("workload", Util.Str workload);
             ("seed", Util.Str (Int64.to_string seed));
             ("seconds", Util.Num seconds);
             ("trace", Util.Bool (trace = "1"));
             ("commit", Util.Str (Option.value (get "--commit") ~default:"unknown"));
             ("nproc", Util.Int (Domain.recommended_domain_count ()));
             ("ocaml", Util.Str Sys.ocaml_version);
             ("loadavg_before", load_before);
             ("loadavg_after", Util.loadavg ());
             ( "steal_share",
               let all1, steal1 = Util.cpu_ticks () in
               Util.Num (float_of_int (steal1 - steal0) /. float_of_int (max 1 (all1 - all0))) );
             ("invalid", Util.Arr (List.map (fun s -> Util.Str s) o.Util.invalid));
           ]
          @ o.Util.detail)
      in
      let file = Filename.concat dir (Printf.sprintf "%s-%Ld-trace%s.json" workload seed trace) in
      Out_channel.with_open_bin file (fun oc -> output_string oc (Util.to_json_string meta));
      print_report workload o;
      print_endline ("meta " ^ Util.to_json_string meta);
      let result =
        Util.Obj
          [
            ("correct", Util.Bool (o.Util.wrong = 0 && o.Util.invalid = []));
            ("attempted", Util.Int o.Util.attempted);
            ("failed", Util.Int o.Util.failed);
            ( "metrics",
              Util.Obj
                (List.map
                   (fun (m : Util.metric) ->
                     (m.Util.name, Util.Obj [ ("value", Util.Num m.Util.value); ("unit", Util.Str m.Util.unit_) ]))
                   o.Util.metrics) );
          ]
      in
      print_endline (Util.to_json_string result)
  | _ -> usage ()

let rec pairs = function
  | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> (k, v) :: pairs rest
  | [] -> []
  | _ -> usage ()

let () =
  match Array.to_list Sys.argv with
  | _ :: "setup" :: [ w ] when w = "ladder" || w = "synth" -> B.setup_work w
  | _ :: "run" :: rest -> run (pairs rest)
  | _ -> usage ()
