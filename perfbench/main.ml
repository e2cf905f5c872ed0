(* The repository's benchmark. One run:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   starts the server in its own process (this executable, re-run with
   [--role server]), drives it over the wire from this process, checks
   every answer, and prints one JSON object as the last line of stdout:
   the end-to-end metrics with [--trace 0], the per-layer metrics of
   the traced replay with [--trace 1]. See perfbench/README.md. *)

open Perfbench
module Nepal = Core.Nepal
module Client = Nepal.Server_client
module Json = Nepal.Wire_json
module J = Nepal.Event_log

let now = Unix.gettimeofday
let nproc = Domain.recommended_domain_count ()

(* Set-up time is the median of this many server start-ups. *)
let setup_spawns = 5

let usage () =
  prerr_endline
    "usage: main.exe --workload (t1_virt|t2_legacy|t1_churn) --seed N --seconds S --trace 0|1";
  exit 2

(* -- output ------------------------------------------------------------------ *)

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "non-finite metric"

let print_result ~tally metrics =
  let failed = Check.failed tally in
  let metric (name, unit_, v) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit_
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) tally.Check.attempted failed
    (String.concat ", " (List.map metric metrics))

let print_failures tally =
  match Check.causes tally with
  | [] -> ()
  | causes ->
      Printf.printf "failed operations by cause: %s\n"
        (String.concat ", " (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) causes))

(* nproc, OCaml, executor width, seed, topology and pool sizes, reply sizes *)
let fingerprint kind ~seed ~sizes:(nodes, edges, versions) (pool : Workload.pool) ~workers =
  let sizes =
    Array.to_list pool.stream |> List.map (fun (i : Workload.instance) -> float_of_int i.reply_bytes)
  in
  let fams =
    List.map (fun (f, a) -> (f, J.Int (Array.length a))) pool.families
  in
  Printf.printf "fingerprint: %s\n"
    (J.json_to_string
       (J.Obj
          [
            ("workload", J.Str (Workload.name kind));
            ("seed", J.Int seed);
            ("nproc", J.Int nproc);
            ("ocaml", J.Str Sys.ocaml_version);
            ("executor_workers", J.Int workers);
            ("nodes", J.Int nodes);
            ("edges", J.Int edges);
            ("versions", J.Int versions);
            ("pool", J.Obj fams);
            ("reply_bytes_p50", J.Float (Loadgen.median sizes));
            ("reply_bytes_max", J.Float (List.fold_left max 0. sizes));
          ]))

(* -- introspect ---------------------------------------------------------------- *)

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun j -> path j rest)

let fnum j keys =
  match path j keys with
  | Some (J.Float f) -> f
  | Some (J.Int i) -> float_of_int i
  | Some J.Null -> 0. (* quantile of an empty histogram: nothing waited *)
  | _ -> failwith ("introspect: missing " ^ String.concat "." keys)

let introspect c =
  match Client.introspect c with Ok j -> j | Error e -> failwith ("introspect: " ^ e)

(* -- end-to-end run ------------------------------------------------------------- *)

let is_at (inst : Workload.instance) = Check.starts_with ~prefix:"AT " inst.text

(* On t1_churn the snapshot answers move with the writes: those replies
   are checked for shape; AT '<clock>' replies read a clock before the
   first batch and must still match exactly. *)
let verdict kind (inst : Workload.instance) r =
  match kind with
  | Workload.T1_churn when not (is_at inst) -> Check.shape r
  | _ -> Check.exact inst r

let end_to_end kind ~seed ~seconds =
  let built = Workload.build kind ~seed in
  let sizes = Workload.sizes built.topo in
  let pool = Workload.pool built.topo ~seed in
  let plan =
    match kind with
    | Workload.T1_churn -> Some (Watchers.plan pool ~seed ~n:(Churn.batches ~seconds))
    | _ -> None
  in
  let tally = Check.tally () in
  let setups = ref [] and server = ref None in
  for i = 1 to setup_spawns do
    let s, dt = Proc.spawn kind ~seed in
    setups := dt :: !setups;
    if i < setup_spawns then Proc.stop s else server := Some s
  done;
  let server = Option.get !server in
  (* Two readers on every workload, t1_churn too: with one active query
     at a time a run's throughput is bimodal (see README), which no
     bound could hold. *)
  let nconn = min 2 nproc in
  let clients = Array.init nconn (fun _ -> Loadgen.connect server.port) in
  let stream = pool.stream in
  let n = Array.length stream in
  let verdict = verdict kind in
  (* warm-up: one pass over the stream, checked but not timed *)
  ignore
    (Loadgen.run clients ~stream ~from:0 ~stop:(Loadgen.until_count n ~from:0) ~verdict ~tally
      : Loadgen.phase);
  let watchers = Option.map (fun p -> Watchers.start server p ~lead_s:0.3) plan in
  let t_begin = match watchers with Some w -> w.t0 | None -> now () in
  let wait = t_begin -. now () in
  if wait > 0. then Thread.delay wait;
  let phase =
    Loadgen.run clients ~stream ~from:n
      ~stop:(Loadgen.until_time (t_begin +. float_of_int seconds))
      ~verdict ~tally
  in
  let alerts =
    Option.map
      (fun w ->
        let r = Watchers.finish w ~reader:clients.(0) ~tally in
        Watchers.close w;
        r)
      watchers
  in
  let intro = introspect clients.(0) in
  let rss = Proc.peak_rss_mb server in
  Array.iter Client.close clients;
  Proc.stop server;
  fingerprint kind ~seed ~sizes pool ~workers:(int_of_float (fnum intro [ "executor"; "workers" ]));
  let lat = phase.latencies_ms in
  Printf.printf "queries: %d in %.2f s over %d connection(s), %d correct\n"
    (Array.length lat) phase.elapsed_s nconn phase.correct;
  Option.iter
    (fun (r : Watchers.report) ->
      let q l p = Loadgen.quantile (Array.of_list l) p in
      Printf.printf
        "alerts: %d, due->arrival p50 %.2f ms p99 %.2f ms; batch schedule late p50 %.3f ms max %.3f ms\n"
        (List.length r.alert_ms) (q r.alert_ms 0.5) (q r.alert_ms 0.99) (q r.lateness_ms 0.5)
        (List.fold_left max 0. r.lateness_ms))
    alerts;
  Printf.printf "failed_ratio: %d/%d\n" (Check.failed tally) tally.attempted;
  print_failures tally;
  print_result ~tally
    [
      ("setup_s", "s", Loadgen.median !setups);
      ("throughput_qps", "1/s", float_of_int phase.correct /. phase.elapsed_s);
      ("query_p50_ms", "ms", Loadgen.quantile lat 0.5);
      ("query_p99_ms", "ms", Loadgen.quantile lat 0.99);
      ("server_rss_mb", "MB", rss);
    ]

(* -- traced run --------------------------------------------------------------------- *)

(* Per-layer metrics: name, unit, and the end-to-end metric each should
   move, on which workload. *)
let layer_map =
  [
    ("client.roundtrip_ms", "ms", "query_p50_ms @ t1_virt");
    ("net.read_line_ms", "ms", "query_p99_ms, throughput_qps @ t2_legacy");
    ("wire.encode_ms", "ms", "query_p99_ms, throughput_qps @ t2_legacy");
    ("json.decode_ms", "ms", "query_p99_ms, throughput_qps @ t2_legacy");
    ("wire.reply_bytes_p50", "bytes", "query_p50_ms @ t2_legacy");
    ("wire.reply_bytes_max", "bytes", "query_p99_ms @ t2_legacy");
    ("wire.overhead_ms", "ms", "query_p50_ms @ t1_virt, query_p99_ms @ t2_legacy");
    ("net.read_line_gap_share", "ratio", "query_p99_ms @ t2_legacy");
    ("wire.parse_request_us", "us", "query_p50_ms @ t1_virt");
    ("executor.queue_wait_p50_ms", "ms", "query_p50_ms @ t1_virt");
    ("executor.queue_wait_p99_ms", "ms", "query_p99_ms @ t1_virt");
    ("rwlock.read_wait_p99_ms", "ms", "query_p99_ms, alert_p99 @ t1_churn");
    ("rwlock.write_wait_p99_ms", "ms", "query_p99_ms, alert_p99 @ t1_churn");
    ("server.query_p50_ms", "ms", "query_p50_ms (client minus server = wire share)");
    ("server.query_p99_ms", "ms", "query_p99_ms (client minus server = wire share)");
    ("outbox.high_water", "count", "failed alerts @ t1_churn");
    ("server.alerts_dropped", "count", "failed alerts @ t1_churn");
    ("cdc.published", "count", "failed alerts @ t1_churn");
    ("cdc.dropped", "count", "failed alerts @ t1_churn");
    ("query.parse_us", "us", "query_p50_ms @ t1_virt");
    ("query.run_ms", "ms", "throughput_qps, query_p99_ms @ t2_legacy; query_p50_ms @ t1_virt");
    ("query.render_ms", "ms", "throughput_qps, query_p99_ms @ t2_legacy");
    ("query.roundtrips", "count", "throughput_qps @ t2_legacy");
    ("query.paths", "count", "throughput_qps @ t2_legacy");
    ("eval.selects", "count", "throughput_qps @ t2_legacy");
    ("eval.extends", "count", "throughput_qps @ t2_legacy");
    ("eval.frontier_peak", "count", "query_p99_ms @ t2_legacy");
    ("eval.merged_partials", "count", "throughput_qps @ t2_legacy");
    ("eval.saved_fetches", "count", "throughput_qps @ t2_legacy");
    ("eval.walk_tasks", "count", "throughput_qps @ t2_legacy");
    ("query.minor_words", "words/1k", "throughput_qps, server_rss_mb @ t2_legacy");
    ("query.major_gcs", "count/1k", "query_p99_ms, server_rss_mb @ t2_legacy");
    ("eval.pcache_hit_ratio", "ratio", "query_p50_ms @ t1_churn vs t1_virt");
    ("analysis.analyze_us", "us", "query_p50_ms @ t1_virt");
    ("planner.plan_warm_us", "us", "query_p50_ms @ t1_virt, t1_churn");
    ("planner.plan_cold_us", "us", "query_p50_ms @ t1_churn");
    ("planner.cache_hit_ratio", "ratio", "query_p50_ms @ t1_virt, t1_churn");
    ("setup.generate_s", "s", "setup_s @ all");
    ("setup.history_s", "s", "setup_s @ all");
    ("store.versions", "count", "query_p99_ms, alert_p99 @ t1_churn");
    ("store.batch_apply_ms", "ms", "alert_p50, query_p99_ms @ t1_churn");
    ("server.with_write_ms", "ms", "alert_p99, query_p99_ms @ t1_churn");
    ("churn.late_max_ms", "ms", "alert_p99 @ t1_churn");
    ("monitor.flush_ms", "ms", "alert_p50 @ t1_churn");
    ("monitor.evaluations", "count", "alert_p50 @ t1_churn");
    ("monitor.skipped", "count", "alert_p50 @ t1_churn");
    ("monitor.alert_ratio", "ratio", "alert_p50 @ t1_churn");
    ("alert.p50_ms", "ms", "(end-to-end alert latency @ t1_churn)");
    ("alert.p99_ms", "ms", "(end-to-end alert latency @ t1_churn)");
    ("trace.overhead_pct", "%", "(traced vs untraced client p50, same stream)");
  ]

(* Layers only a workload with writes exercises: 0 elsewhere. *)
let write_path =
  [
    "rwlock.write_wait_p99_ms"; "store.batch_apply_ms"; "server.with_write_ms"; "churn.late_max_ms";
    "monitor.flush_ms"; "monitor.evaluations"; "monitor.skipped"; "monitor.alert_ratio";
    "alert.p50_ms"; "alert.p99_ms"; "server.alerts_dropped"; "cdc.published"; "cdc.dropped";
  ]

(* Printed, but left out of the JSON result, whose per-layer metrics
   are measured on every workload: the write path, read waits (under
   p99 even beside writes), and the presence memo (consulted only under
   AT ranges, which no instance uses). *)
let unmeasured = write_path @ [ "rwlock.read_wait_p99_ms"; "eval.pcache_hit_ratio" ]

(* Requests replayed by the traced run: whole passes over the stream. *)
let traced_requests kind (pool : Workload.pool) =
  let passes = match kind with Workload.T2_legacy -> 1 | _ -> 2 in
  passes * Array.length pool.stream

let cold_plans = 40

let traced kind ~seed ~seconds =
  let origin = now () in
  let built = Workload.build kind ~seed in
  let sizes = Workload.sizes built.topo in
  let pool = Workload.pool built.topo ~seed in
  let plan =
    match kind with
    | Workload.T1_churn -> Some (Watchers.plan pool ~seed ~n:(Churn.batches ~seconds))
    | _ -> None
  in
  let tally = Check.tally () in
  let server, _ = Proc.spawn kind ~seed in
  let client = Loadgen.connect server.port in
  let n = traced_requests kind pool in
  let verdict = verdict kind in
  let stream = pool.stream in
  (* a pass of untraced roundtrips over the first [n] stream positions *)
  let roundtrips () =
    (Loadgen.run [| client |] ~stream ~from:0 ~stop:(Loadgen.until_count n ~from:0) ~verdict
       ~tally)
      .latencies_ms
  in
  ignore (roundtrips () : float array);
  let watchers = Option.map (fun p -> Watchers.start server p ~lead_s:0.05) plan in
  let untraced_ms = roundtrips () in
  let churn =
    match (kind, built.topo) with
    | Workload.T1_churn, Workload.Virt v -> Some (Churn.create v ~seed)
    | _ -> None
  in
  let conn = Nepal.native_conn (Workload.store built.topo) in
  Nepal.Planner.cache_clear ();
  let env = Traced.replay ~client ?churn ~pool ~conn ~tally ~n () in
  let cold =
    List.init (min cold_plans n) (fun i ->
        let q = Nepal.Query_parser.parse_exn stream.(i mod Array.length stream).text in
        Nepal.Planner.cache_clear ();
        let t0 = now () in
        ignore (Nepal.Engine.plan ~conn q : (Nepal.Engine.plan, string) result);
        now () -. t0)
  in
  let report = Option.map (fun w -> Watchers.finish w ~reader:client ~tally) watchers in
  let intro = introspect client in
  Option.iter Watchers.close watchers;
  Client.close client;
  Proc.stop server;
  let dir = "_perfbench" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let spans_file = Printf.sprintf "%s/spans-%s-%d.jsonl" dir (Workload.name kind) seed in
  Traced.write_spans spans_file ~origin env.spans;
  fingerprint kind ~seed ~sizes pool ~workers:(int_of_float (fnum intro [ "executor"; "workers" ]));
  (* per-layer values *)
  let reqs = Traced.by_request env.spans in
  let mean name = Traced.mean_of reqs name in
  let total f = List.fold_left (fun a r -> a +. f r) 0. reqs in
  let per_req f = total f /. float_of_int (max 1 (List.length reqs)) in
  let roundtrip (_, l) = Traced.get l "client.roundtrip" in
  let gap r = roundtrip r -. Traced.sum (snd r) Traced.server_stages in
  let overhead r = gap r -. Traced.sum (snd r) Traced.client_stages in
  let read_line (_, l) = Traced.get l "net.read_line" in
  let c = env.counters in
  let s = c.stats in
  let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b) in
  let per_1k x = x *. 1000. /. float_of_int (max 1 c.requests) in
  let bytes = Array.to_list stream |> List.map (fun (i : Workload.instance) -> float_of_int i.reply_bytes) in
  let traced_ms = List.map (fun r -> roundtrip r *. 1e3) reqs in
  let q l p = if l = [] then 0. else Loadgen.quantile (Array.of_list l) p in
  let mean_l l = if l = [] then 0. else List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  let from_report f = match report with Some r -> f r | None -> 0. in
  let sessions_hw =
    match path intro [ "sessions" ] with
    | Some (J.List ss) -> List.fold_left (fun m s -> max m (fnum s [ "outbox_high_water" ])) 0. ss
    | _ -> 0.
  in
  let monitor f = match plan with Some p -> f p.Watchers.expected | None -> 0. in
  let untraced_p50 = Loadgen.quantile untraced_ms 0.5 in
  let values =
    [
      ("client.roundtrip_ms", mean "client.roundtrip" *. 1e3);
      ("net.read_line_ms", mean "net.read_line" *. 1e3);
      ("wire.encode_ms", mean "wire.encode" *. 1e3);
      ("json.decode_ms", mean "json.decode" *. 1e3);
      ("wire.reply_bytes_p50", Loadgen.median bytes);
      ("wire.reply_bytes_max", List.fold_left max 0. bytes);
      ("wire.overhead_ms", per_req overhead *. 1e3);
      ("net.read_line_gap_share", total read_line /. total gap);
      ("wire.parse_request_us", mean "wire.parse_request" *. 1e6);
      ("executor.queue_wait_p50_ms", fnum intro [ "executor"; "queue_wait"; "p50_ms" ]);
      ("executor.queue_wait_p99_ms", fnum intro [ "executor"; "queue_wait"; "p99_ms" ]);
      ("rwlock.read_wait_p99_ms", fnum intro [ "rwlock"; "read_wait"; "p99_ms" ]);
      ("rwlock.write_wait_p99_ms", fnum intro [ "rwlock"; "write_wait"; "p99_ms" ]);
      ("server.query_p50_ms", fnum intro [ "query_seconds"; "p50_ms" ]);
      ("server.query_p99_ms", fnum intro [ "query_seconds"; "p99_ms" ]);
      ("outbox.high_water", sessions_hw);
      ("server.alerts_dropped", fnum intro [ "alerts_dropped" ]);
      ("cdc.published", fnum intro [ "cdc"; "published" ]);
      ("cdc.dropped", fnum intro [ "cdc"; "dropped" ]);
      ("query.parse_us", mean "query.parse" *. 1e6);
      ("query.run_ms", mean "query.run" *. 1e3);
      ("query.render_ms", mean "query.render" *. 1e3);
      ("query.roundtrips", float_of_int c.roundtrips);
      ("query.paths", float_of_int c.paths);
      ("eval.selects", float_of_int s.selects);
      ("eval.extends", float_of_int s.extends);
      ("eval.frontier_peak", float_of_int s.frontier_peak);
      ("eval.merged_partials", float_of_int s.merged_partials);
      ("eval.saved_fetches", float_of_int s.saved_fetches);
      ("eval.walk_tasks", float_of_int s.walk_tasks);
      ("query.minor_words", per_1k c.minor_words);
      ("query.major_gcs", per_1k (float_of_int c.major_gcs));
      ("eval.pcache_hit_ratio", ratio s.cache_hits s.cache_misses);
      ("analysis.analyze_us", mean "analysis.analyze" *. 1e6);
      ("planner.plan_warm_us", mean "planner.plan" *. 1e6);
      ("planner.plan_cold_us", mean_l cold *. 1e6);
      ("planner.cache_hit_ratio", ratio c.plan_hits c.plan_misses);
      ("setup.generate_s", built.generate_s);
      ("setup.history_s", built.history_s);
      ("store.versions", float_of_int (Nepal.Graph_store.count_versions (Workload.store built.topo)));
      ("store.batch_apply_ms", from_report (fun r -> mean_l r.apply_ms));
      ("server.with_write_ms", from_report (fun r -> mean_l r.with_write_ms));
      ("churn.late_max_ms", from_report (fun r -> List.fold_left max 0. r.lateness_ms));
      ("monitor.flush_ms", monitor (fun e -> mean_l (Array.to_list e.flush_ms)));
      ("monitor.evaluations", monitor (fun e -> float_of_int e.evaluations));
      ("monitor.skipped", monitor (fun e -> float_of_int e.skipped));
      ( "monitor.alert_ratio",
        monitor (fun e ->
            float_of_int (List.length e.alerts) /. float_of_int (max 1 e.evaluations)) );
      ("alert.p50_ms", from_report (fun r -> q r.alert_ms 0.5));
      ("alert.p99_ms", from_report (fun r -> q r.alert_ms 0.99));
      ("trace.overhead_pct", ((q traced_ms 0.5 /. untraced_p50) -. 1.) *. 100.);
    ]
  in
  Printf.printf "traced replay: %d requests on one connection; spans in %s\n" n spans_file;
  let applies name =
    kind = Workload.T1_churn || not (List.mem name write_path)
  in
  List.iter
    (fun (name, unit_, maps) ->
      Printf.printf "  %-28s %14.4f %-9s -> %s%s\n" name (List.assoc name values) unit_ maps
        ((if applies name then "" else "  (not exercised on this workload)")
        ^ if List.mem name unmeasured then "  [not in the JSON result]" else ""))
    layer_map;
  (* the wire gap on large replies, and how much of it the read path is *)
  let big = List.filter (fun (req, _) -> stream.(req mod Array.length stream).reply_bytes >= 500_000) reqs in
  let sum_big f = List.fold_left (fun a r -> a +. f r) 0. big in
  Printf.printf
    "replies >= 500 KB: %d; mean roundtrip %.2f ms, wire gap %.2f ms, read_line %.2f ms (%.0f%% of the gap)\n"
    (List.length big)
    (sum_big roundtrip *. 1e3 /. float_of_int (max 1 (List.length big)))
    (sum_big gap *. 1e3 /. float_of_int (max 1 (List.length big)))
    (sum_big read_line *. 1e3 /. float_of_int (max 1 (List.length big)))
    (if big = [] then 0. else 100. *. sum_big read_line /. sum_big gap);
  Printf.printf "tracing overhead: client p50 %.3f ms traced vs %.3f ms untraced\n"
    (q traced_ms 0.5) untraced_p50;
  print_failures tally;
  print_result ~tally
    (List.filter_map
       (fun (name, unit_, _) ->
         if List.mem name unmeasured then None else Some (name, unit_, List.assoc name values))
       layer_map)

(* -- command line ---------------------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse acc = function
    | [] -> acc
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = List.assoc_opt k opts in
  let int k = match get k with Some v -> (try int_of_string v with _ -> usage ()) | None -> usage () in
  let kind =
    match Option.bind (get "workload") Workload.of_string with Some k -> k | None -> usage ()
  in
  let seed = int "seed" in
  match get "role" with
  | Some "server" -> Proc.serve kind ~seed
  | Some _ -> usage ()
  | None -> (
      let seconds = int "seconds" in
      if seconds < 1 then usage ();
      try
        match int "trace" with
        | 0 -> end_to_end kind ~seed ~seconds
        | 1 -> traced kind ~seed ~seconds
        | _ -> usage ()
      with e ->
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        exit 1)
