(* Closed-loop load: each connection sends its next query only after the
   previous reply arrived and was checked. Connections take positions of
   one shared instance stream, so the queries run in a window are always
   a prefix of the same seeded sequence. *)

module Nepal = Core.Nepal
module Client = Nepal.Server_client

let now = Unix.gettimeofday

let connect port =
  match Client.connect ~port () with Ok c -> c | Error e -> failwith ("connect: " ^ e)

type phase = {
  latencies_ms : float array;  (** every reply, send to parsed reply *)
  correct : int;
  elapsed_s : float;  (** first send to last reply *)
}

(* Run [clients] concurrently over [stream] from position [from] until
   [stop] says so; [verdict] checks each reply into [tally]. *)
let run clients ~(stream : Workload.instance array) ~from ~stop ~verdict ~tally =
  let next = Atomic.make from in
  let n = Array.length stream in
  let t_start = now () in
  let worker c =
    let lat = ref [] and correct = ref 0 and last = ref t_start in
    let rec go () =
      let k = Atomic.fetch_and_add next 1 in
      if not (stop k) then begin
        let inst = stream.(k mod n) in
        let t0 = now () in
        let r = Client.query c inst.text in
        let t1 = now () in
        let v = verdict inst r in
        Check.record tally v;
        lat := ((t1 -. t0) *. 1e3) :: !lat;
        if v = Check.Correct then incr correct;
        last := t1;
        go ()
      end
    in
    go ();
    (!lat, !correct, !last)
  in
  let results = Array.make (Array.length clients) ([], 0, t_start) in
  let threads =
    Array.mapi (fun i c -> Thread.create (fun () -> results.(i) <- worker c) ()) clients
  in
  Array.iter Thread.join threads;
  let lat = Array.to_list results |> List.concat_map (fun (l, _, _) -> l) in
  {
    latencies_ms = Array.of_list lat;
    correct = Array.fold_left (fun a (_, c, _) -> a + c) 0 results;
    elapsed_s = Array.fold_left (fun a (_, _, l) -> max a l) t_start results -. t_start;
  }

let until_count n ~from k = k >= from + n
let until_time deadline (_ : int) = now () >= deadline

(* Linear-interpolated quantile of an unsorted sample. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile (Array.of_list xs) 0.5
