(* The benchmark's own tests: the answer checker catches a corrupted
   reply, and the traced replay's work counters repeat exactly. *)

open Perfbench
module Nepal = Core.Nepal

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("selftest: " ^ s); exit 1) fmt

let checker_catches_corruption () =
  let built = Workload.build ~scale:Small T1_virt ~seed:5 in
  let pool = Workload.pool ~scale:Small built.topo ~seed:5 in
  let inst = pool.stream.(0) in
  let conn = Nepal.native_conn (Workload.store built.topo) in
  let count, text =
    match Workload.evaluate conn inst.text with Ok r -> r | Error e -> fail "%s" e
  in
  let reply text = Ok { Nepal.Server.qr_count = count; qr_text = text; qr_trace = None } in
  let corrupted = Bytes.of_string text in
  let i = Bytes.length corrupted - 2 in
  Bytes.set corrupted i (if Bytes.get corrupted i = '1' then '2' else '1');
  let tally = Check.tally () in
  List.iter
    (fun r -> Check.record tally (Check.exact inst r))
    [ reply text; reply (Bytes.to_string corrupted) ];
  if Check.failed tally <> 1 || tally.attempted <> 2 then
    fail "checker: %d failed of %d, expected 1 of 2" (Check.failed tally) tally.attempted;
  print_endline "ok: the checker counts a corrupted reply as one failure"

let counters_repeat kind =
  let run () = Traced.inproc_counters ~scale:Small kind ~seed:3 ~n:60 in
  let (a, ta), (b, tb) = (run (), run ()) in
  if Check.failed ta + Check.failed tb > 0 then
    fail "%s: replay answers failed the check" (Workload.name kind);
  List.iter2
    (fun (name, x) (_, y) ->
      if x <> y then fail "%s: %s differs between replays: %d vs %d" (Workload.name kind) name x y)
    a b;
  Printf.printf "ok: %s counters repeat (%s)\n" (Workload.name kind)
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) a))

let () =
  checker_catches_corruption ();
  List.iter counters_repeat [ T1_virt; T2_legacy; T1_churn ]
