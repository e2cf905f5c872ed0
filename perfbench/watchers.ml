(* The t1_churn alert side, at the client: standing watches on their own
   connection, the open-loop batch schedule started in the server, and
   the check of every alert against the in-process replay. *)

module Nepal = Core.Nepal
module Client = Nepal.Server_client
module Json = Nepal.Wire_json

let now = Unix.gettimeofday

type plan = {
  watches : string array;
  baseline : int array;  (** result count of each watch before churn *)
  n : int;  (** batches *)
  expected : Churn.expected;
}

(* Predict the alerts of [n] batches on a fresh, identically seeded
   copy of the topology. *)
let plan (pool : Workload.pool) ~seed ~n =
  let watches = Churn.watch_texts pool in
  let baseline =
    Array.map
      (fun q ->
        let inst =
          List.find (fun (i : Workload.instance) -> i.text = q) (Array.to_list pool.stream)
        in
        inst.count)
      watches
  in
  let v =
    match (Workload.build Workload.T1_churn ~seed).topo with
    | Workload.Virt v -> v
    | Workload.Legacy _ -> assert false
  in
  { watches; baseline; n; expected = Churn.replay v ~seed ~watches ~n }

type arrival = { a_watch : int; a_at : string; a_total : int; a_dropped : int; a_wall : float }

type t = {
  plan : plan;
  conn : Client.t;
  ids : int array;  (** server watch id of each watch *)
  arrivals : arrival list ref;
  lock : Mutex.t;
  stop : bool Atomic.t;
  listener : Thread.t;
  t0 : float;  (** due time of batch 0 *)
  server : Proc.t;
}

let alert_of_json wall j =
  match
    ( Json.string_field "event" j,
      Json.int_field "watch" j,
      Json.string_field "at" j,
      Json.int_field "total" j,
      Json.int_field "dropped" j )
  with
  | Some "alert", Some w, Some at, Some total, Some dropped ->
      Some { a_watch = w; a_at = at; a_total = total; a_dropped = dropped; a_wall = wall }
  | _ -> None

(* Register the watches, then start the batch schedule [lead_s] from now. *)
let start (server : Proc.t) plan ~lead_s =
  let conn = Loadgen.connect server.port in
  let ids =
    Array.map
      (fun q ->
        match Client.watch conn q with Ok id -> id | Error e -> failwith ("watch: " ^ e))
      plan.watches
  in
  let arrivals = ref [] and lock = Mutex.create () and stop = Atomic.make false in
  let listener =
    Thread.create
      (fun () ->
        while not (Atomic.get stop) do
          match Client.next_event ~timeout_s:0.05 conn with
          | Some j -> (
              match alert_of_json (now ()) j with
              | Some a ->
                  Mutex.lock lock;
                  arrivals := a :: !arrivals;
                  Mutex.unlock lock
              | None -> ())
          | None -> ()
        done)
      ()
  in
  let t0 = now () +. lead_s in
  Proc.send server (Printf.sprintf "churn %d %.6f" plan.n t0);
  { plan; conn; ids; arrivals; lock; stop; listener; t0; server }

type report = {
  alert_ms : float list;  (** due time of the batch -> alert arrival *)
  lateness_ms : float list;  (** how late each batch's write was called *)
  with_write_ms : float list;  (** due time -> write returned *)
  apply_ms : float list;  (** the batch's churn steps inside the lock *)
}

let num j k =
  match Json.member k j with
  | Some (Nepal.Event_log.Float f) -> f
  | Some (Nepal.Event_log.Int i) -> float_of_int i
  | _ -> failwith ("churn report: no " ^ k)

let close t = Client.close t.conn

(* Wait for the schedule to finish and the monitor to settle, then check
   every alert and each watch's final total against a fresh wire count. *)
let finish t ~(reader : Client.t) ~tally =
  let plan = t.plan in
  let rows =
    let line = Proc.read_line t.server in
    let prefix = "churn-report " in
    let body =
      if Check.starts_with ~prefix line then
        String.sub line (String.length prefix) (String.length line - String.length prefix)
      else failwith ("unexpected server line: " ^ line)
    in
    match Json.parse body with
    | Ok (Nepal.Event_log.List rows) -> rows
    | _ -> failwith "bad churn report"
  in
  let expected = plan.expected.alerts in
  let received () =
    Mutex.lock t.lock;
    let l = !(t.arrivals) in
    Mutex.unlock t.lock;
    l
  in
  (* settle: every predicted alert in, or 3 s of quiet *)
  let deadline = now () +. 3. in
  while List.length (received ()) < List.length expected && now () < deadline do
    Thread.delay 0.02
  done;
  Thread.delay 0.2;
  Atomic.set t.stop true;
  Thread.join t.listener;
  let arrivals = List.rev (received ()) in
  let batch_of_at at =
    let rec go k = if k >= plan.n then None else if plan.expected.batch_at.(k) = at then Some k else go (k + 1) in
    go 0
  in
  let index_of id =
    let rec go i = if i >= Array.length t.ids then None else if t.ids.(i) = id then Some i else go (i + 1) in
    go 0
  in
  let pending = ref expected and alert_ms = ref [] in
  List.iter
    (fun a ->
      if a.a_dropped > 0 then Check.fail tally "dropped_alert";
      match (index_of a.a_watch, batch_of_at a.a_at) with
      | Some w, Some k when List.mem (w, k, a.a_total) !pending ->
          pending := List.filter (( <> ) (w, k, a.a_total)) !pending;
          Check.record tally Check.Correct;
          let due = t.t0 +. (Churn.interval_s *. float_of_int k) in
          alert_ms := ((a.a_wall -. due) *. 1e3) :: !alert_ms
      | _ -> Check.fail tally "unexpected_alert")
    arrivals;
  List.iter (fun _ -> Check.fail tally "missing_alert") !pending;
  (* final totals *)
  Array.iteri
    (fun w q ->
      let last =
        List.fold_left
          (fun acc a -> if index_of a.a_watch = Some w then a.a_total else acc)
          plan.baseline.(w) arrivals
      in
      match Client.query reader q with
      | Ok r when r.qr_count = last -> Check.record tally Check.Correct
      | Ok _ -> Check.fail tally "watch_total"
      | Error e -> Check.record tally (Check.classify_error e))
    plan.watches;
  let col f = List.map f rows in
  {
    alert_ms = List.rev !alert_ms;
    lateness_ms = col (fun r -> (num r "called" -. num r "due") *. 1e3);
    with_write_ms = col (fun r -> (num r "done" -. num r "due") *. 1e3);
    apply_ms = col (fun r -> (num r "done" -. num r "acquired") *. 1e3);
  }
