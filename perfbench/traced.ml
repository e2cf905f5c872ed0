(* The traced replay: each request of the seeded instance stream is run
   through the public entry point of every layer, in the order the
   server runs them, from this process — Wire.parse_request,
   Query_parser.parse, Analysis.analyze, Engine.plan, Engine.run,
   Engine.pp_result, Wire.query_result, then the client read path
   (Net.read_line over a socketpair, Wire_json.parse) — plus the real
   wire roundtrip through Server_client.query when a server is given.
   Every call is a span; spans stay in memory until the run ends. *)

module Nepal = Core.Nepal
module Net = Nepal_server.Net
module J = Nepal.Event_log
module Engine = Nepal.Engine

let now = Unix.gettimeofday

type span = { req : int; name : string; parent : string; t0 : float; t1 : float }

let dur s = s.t1 -. s.t0

(* -- the client read path, replayed ------------------------------------- *)

(* A socketpair. The writer end is non-blocking: a frame that fits in
   the socket buffer is written before [read_line] is timed, so the span
   holds the read path alone; the rest of a larger frame streams from a
   writer thread while [read_line] consumes it, as from a real peer. *)
type pipe = {
  lr : Net.line_reader;
  wfd : Unix.file_descr;
  ch : (string * int) option Event.channel;
  writer : Thread.t;
  fds : Unix.file_descr list;
}

(* Write from [off] until done or the buffer is full; the new offset. *)
let rec write_some fd s off =
  if off >= String.length s then off
  else
    match Unix.single_write_substring fd s off (String.length s - off) with
    | n -> write_some fd s (off + n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_some fd s off

let rec write_rest fd s off =
  if off < String.length s then begin
    ignore (Unix.select [] [ fd ] [] (-1.) : _ * _ * _);
    write_rest fd s (write_some fd s off)
  end

let pipe () =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock a;
  let ch = Event.new_channel () in
  let rec write () =
    match Event.sync (Event.receive ch) with
    | None -> ()
    | Some (frame, off) ->
        write_rest a frame off;
        write ()
  in
  { lr = Net.line_reader b; wfd = a; ch; writer = Thread.create write (); fds = [ a; b ] }

let close_pipe p =
  Event.sync (Event.send p.ch None);
  Thread.join p.writer;
  List.iter Net.close_noerr p.fds

let feed p frame =
  let off = write_some p.wfd frame 0 in
  if off < String.length frame then Event.sync (Event.send p.ch (Some (frame, off)))

(* Read the fed frame back as the client does; [None] when it is over
   the client's line limit. *)
let read_back p =
  match Net.read_line p.lr with
  | Net.Line l -> Some l
  | Net.Too_long _ -> None
  | Net.Timeout | Net.Eof -> failwith "socketpair replay: no line"

(* -- counters ------------------------------------------------------------ *)

type counters = {
  stats : Nepal.Eval_rpe.stats;  (** summed over the replay *)
  mutable roundtrips : int;  (** backend round-trips *)
  mutable paths : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable minor_words : float;
  mutable major_gcs : int;
  mutable requests : int;
}

let deterministic c =
  let s = c.stats in
  [
    ("eval.selects", s.selects);
    ("eval.extends", s.extends);
    ("eval.frontier_peak", s.frontier_peak);
    ("eval.merged_partials", s.merged_partials);
    ("eval.saved_fetches", s.saved_fetches);
    ("eval.walk_tasks", s.walk_tasks);
    ("query.roundtrips", c.roundtrips);
    ("query.paths", c.paths);
    ("planner.cache_hits", c.plan_hits);
    ("planner.cache_misses", c.plan_misses);
  ]

(* -- one request through every layer ------------------------------------- *)

type env = {
  conn : Nepal.Backend.conn;
  pipe : pipe;
  counters : counters;
  mutable spans : span list;
  exact : bool;  (** answers are fixed (no churn): check count and digest *)
  tally : Check.tally;
}

let ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let span env ~req name f =
  let t0 = now () in
  let r = f () in
  env.spans <- { req; name; parent = "request"; t0; t1 = now () } :: env.spans;
  r

let stages env ~req (inst : Workload.instance) =
  let span name f = span env ~req name f in
  let frame =
    J.json_to_string (J.Obj [ ("id", J.Int req); ("op", J.Str "query"); ("q", J.Str inst.text) ])
  in
  let text =
    match span "wire.parse_request" (fun () -> Nepal.Wire.parse_request frame) with
    | Ok (_, Nepal.Wire.Query { q; _ }) -> q
    | _ -> failwith "request frame did not parse as a query"
  in
  let q = span "query.parse" (fun () -> Nepal.Query_parser.parse text) |> ok "parse" in
  let schema = Nepal.Backend.conn_schema env.conn in
  ignore
    (span "analysis.analyze" (fun () ->
         Nepal.Analysis.analyze ~schema ~schema_of:(fun _ -> schema)
           ~cost:(fun _ a -> try Nepal.Backend.estimate_atom env.conn a with _ -> 1.0)
           q)
      : Nepal.Diagnostic.t list);
  let _, h0, m0 = Nepal.Planner.cache_stats () in
  ignore (span "planner.plan" (fun () -> Engine.plan ~conn:env.conn q) |> ok "plan" : Engine.plan);
  let rt0 = Nepal.Backend.conn_roundtrips env.conn in
  let r =
    span "query.run" (fun () -> Engine.run ~conn:env.conn ~stats:env.counters.stats ~analyze:`Off q)
    |> ok "run"
  in
  let _, h1, m1 = Nepal.Planner.cache_stats () in
  let c = env.counters in
  c.roundtrips <- c.roundtrips + Nepal.Backend.conn_roundtrips env.conn - rt0;
  c.plan_hits <- c.plan_hits + h1 - h0;
  c.plan_misses <- c.plan_misses + m1 - m0;
  let count = Engine.result_count r in
  c.paths <- c.paths + count;
  let body = span "query.render" (fun () -> Format.asprintf "%a" Engine.pp_result r) in
  let reply = span "wire.encode" (fun () -> Nepal.Wire.query_result ~id:(J.Int req) ~count ~text:body ()) in
  let verdict =
    feed env.pipe reply;
    match span "net.read_line" (fun () -> read_back env.pipe) with
    | None -> Check.Too_long
    | Some line -> (
        match span "json.decode" (fun () -> Nepal.Wire_json.parse line) with
        | Error _ -> Check.Malformed
        | Ok _ ->
            let r = Ok { Nepal.Server.qr_count = count; qr_text = body; qr_trace = None } in
            if env.exact then Check.exact inst r else Check.shape r)
  in
  Check.record env.tally verdict

(* One traced request: the wire roundtrip (when a client is given), then
   the in-process stages; allocation is counted over the stages only. *)
let request env ?client ~req (inst : Workload.instance) =
  let t0 = now () in
  Option.iter
    (fun c ->
      let r = Nepal.Server_client.query c inst.text in
      let t1 = now () in
      env.spans <- { req; name = "client.roundtrip"; parent = "request"; t0; t1 } :: env.spans;
      Check.record env.tally (if env.exact then Check.exact inst r else Check.shape r))
    client;
  let w0 = Gc.minor_words () and g0 = (Gc.quick_stat ()).major_collections in
  stages env ~req inst;
  let c = env.counters in
  c.minor_words <- c.minor_words +. Gc.minor_words () -. w0;
  c.major_gcs <- c.major_gcs + (Gc.quick_stat ()).major_collections - g0;
  c.requests <- c.requests + 1;
  env.spans <- { req; name = "request"; parent = ""; t0; t1 = now () } :: env.spans

let churn_every = 40

(* Replay [n] requests of the stream. With [churn], one batch is applied
   to the in-process store every [churn_every] requests, so cache
   invalidation shows in the in-process counters deterministically. *)
let replay ?client ?churn ~(pool : Workload.pool) ~conn ~tally ~n () =
  let env =
    {
      conn;
      pipe = pipe ();
      counters =
        {
          stats = Nepal.Eval_rpe.new_stats ();
          roundtrips = 0;
          paths = 0;
          plan_hits = 0;
          plan_misses = 0;
          minor_words = 0.;
          major_gcs = 0;
          requests = 0;
        };
      spans = [];
      exact = churn = None;
      tally;
    }
  in
  Fun.protect
    ~finally:(fun () -> close_pipe env.pipe)
    (fun () ->
      for req = 0 to n - 1 do
        (match churn with
        | Some c when req > 0 && req mod churn_every = 0 -> ignore (Churn.apply_batch c : string)
        | _ -> ());
        request env ?client ~req pool.stream.(req mod Array.length pool.stream)
      done);
  env

(* The deterministic counters of an in-process replay on a fresh,
   seeded topology (what the benchmark's own test compares). *)
let inproc_counters ?(scale = Workload.Full) kind ~seed ~n =
  let built = Workload.build ~scale kind ~seed in
  let pool = Workload.pool ~scale built.topo ~seed in
  let churn =
    match (kind, built.topo) with
    | Workload.T1_churn, Workload.Virt v -> Some (Churn.create v ~seed)
    | _ -> None
  in
  Nepal.Planner.cache_clear ();
  let tally = Check.tally () in
  let env =
    replay ?churn ~pool ~conn:(Nepal.native_conn (Workload.store built.topo)) ~tally ~n ()
  in
  (deterministic env.counters, tally)

(* -- summaries --------------------------------------------------------------- *)

let server_stages =
  [ "wire.parse_request"; "query.parse"; "analysis.analyze"; "planner.plan"; "query.run"; "query.render"; "wire.encode" ]

let client_stages = [ "net.read_line"; "json.decode" ]

(* Per request: span name -> duration in seconds. *)
let by_request spans =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let l = Option.value ~default:[] (Hashtbl.find_opt tbl s.req) in
      Hashtbl.replace tbl s.req ((s.name, dur s) :: l))
    spans;
  Hashtbl.fold (fun req l acc -> (req, l) :: acc) tbl [] |> List.sort compare

let get l name = Option.value ~default:0. (List.assoc_opt name l)
let sum l names = List.fold_left (fun a n -> a +. get l n) 0. names

(* Mean duration of a span over the requests, in seconds. *)
let mean_of reqs name =
  let n = List.length reqs in
  if n = 0 then 0. else List.fold_left (fun a (_, l) -> a +. get l name) 0. reqs /. float_of_int n

(* Write the spans as JSON lines, times in microseconds from [origin]. *)
let write_spans file ~origin spans =
  let oc = open_out file in
  List.iter
    (fun s ->
      output_string oc
        (J.json_to_string
           (J.Obj
              [
                ("req", J.Int s.req);
                ("name", J.Str s.name);
                ("parent", J.Str s.parent);
                ("start_us", J.Float ((s.t0 -. origin) *. 1e6));
                ("end_us", J.Float ((s.t1 -. origin) *. 1e6));
              ]));
      output_char oc '\n')
    (List.rev spans);
  close_out oc
