(* The t1_churn write side: a deterministic sequence of snapshot-diff
   batches, applied by the server process under [Server.with_write] and
   replayed by the generator on an in-process [Monitor] to predict every
   alert the standing watches must receive. *)

module Nepal = Core.Nepal
module Virt = Nepal.Virt_service
module Store = Nepal.Graph_store
module Time_point = Nepal.Time_point
module Monitor = Nepal.Monitor
module Metrics = Nepal.Metrics

let steps_per_batch = 8
let interval_s = 0.25
let batches ~seconds = 4 * seconds

type t = { v : Virt.t; rng : Nepal.Prng.t; base : Time_point.t; mutable next : int }

let create (v : Virt.t) ~seed =
  { v; rng = Nepal.Prng.create ((seed * 104_729) + 17); base = Store.clock v.store; next = 0 }

(* Apply the next batch; returns the store clock after it, which is the
   [at] stamp of every alert the batch causes. *)
let apply_batch t =
  for _ = 1 to steps_per_batch do
    let j = t.next in
    t.next <- j + 1;
    Virt.churn_step ~rng:t.rng
      ~at:(Time_point.add_seconds t.base (60. *. float_of_int (j + 1)))
      ~scale_tag:(1_000_000 + j) t.v
  done;
  Time_point.to_string (Store.clock t.v.store)

(* Standing watches: snapshot-form VM-VM and Bottom-up instances of the
   pool (AT forms read a fixed past clock, which churn never changes). *)
let watch_texts (pool : Workload.pool) =
  let snapshot family =
    List.assoc family pool.families |> Array.to_list
    |> List.filteri (fun i _ -> i mod 2 = 0)
    |> List.filteri (fun i _ -> i < 4)
    |> List.map (fun (i : Workload.instance) -> i.text)
  in
  Array.of_list (snapshot "VM-VM(4)" @ snapshot "Bottom-up")

type expected = {
  batch_at : string array;  (** store clock after each batch *)
  alerts : (int * int * int) list;  (** (watch index, batch, total after it) *)
  flush_ms : float array;  (** in-process monitor flush time per batch *)
  evaluations : int;
  skipped : int;
}

let counter name = Metrics.counter_value (Metrics.counter name)

(* Replay [n] batches on [v] (mutating it) with the watches registered
   on a fresh in-process monitor, flushing after each batch. *)
let replay (v : Virt.t) ~seed ~watches ~n =
  let mon = Monitor.create v.store in
  let ids =
    Array.map
      (fun q ->
        match Monitor.watch mon q with
        | Ok w -> Monitor.watch_id w
        | Error e -> failwith ("watch refused in-process: " ^ e))
      watches
  in
  let index_of id =
    let rec go i = if ids.(i) = id then i else go (i + 1) in
    go 0
  in
  let ev0 = counter "monitor.evaluations" and sk0 = counter "monitor.skipped" in
  let c = create v ~seed in
  let alerts = ref [] in
  let flush_ms = Array.make n 0. in
  let batch_at =
    Array.init n (fun k ->
        let at = apply_batch c in
        let t0 = Unix.gettimeofday () in
        let fired = Monitor.flush mon in
        flush_ms.(k) <- (Unix.gettimeofday () -. t0) *. 1e3;
        List.iter
          (fun (a : Monitor.alert) -> alerts := (index_of a.al_watch, k, a.al_total) :: !alerts)
          fired;
        at)
  in
  Monitor.close mon;
  {
    batch_at;
    alerts = List.rev !alerts;
    flush_ms;
    evaluations = counter "monitor.evaluations" - ev0;
    skipped = counter "monitor.skipped" - sk0;
  }
