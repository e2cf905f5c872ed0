(* The three workloads: the topology each one serves (built from the
   seed, identically in the server process and in the load generator),
   and the pool of query instances the generator replays, each with its
   expected answer computed in-process before anything is timed. *)

module Nepal = Core.Nepal
module Virt = Nepal.Virt_service
module Legacy = Nepal.Legacy
module Store = Nepal.Graph_store
module Prng = Nepal.Prng

type kind = T1_virt | T2_legacy | T1_churn

let kinds = [ ("t1_virt", T1_virt); ("t2_legacy", T2_legacy); ("t1_churn", T1_churn) ]
let of_string s = List.assoc_opt s kinds
let name k = fst (List.find (fun (_, k') -> k' = k) kinds)

(* [Small] is a shrunken topology for the benchmark's own tests. *)
type scale = Full | Small

type topo = Virt of Virt.t | Legacy of Legacy.t

type built = { topo : topo; generate_s : float; history_s : float }

let now = Unix.gettimeofday

(* Table 2 at 1/80 of the paper's 1.6M nodes: large enough that the
   Reverse-path replies reach 0.2-0.9 MB, small enough for two copies
   (server and generator) on a small machine. *)
let legacy_nodes = function Full -> 20_000 | Small -> 2_000

let build ?(scale = Full) kind ~seed =
  let t0 = now () in
  match kind with
  | T1_virt | T1_churn ->
      let v =
        match scale with
        | Full -> Virt.generate ~seed ()
        | Small -> Virt.generate ~seed ~vnf_count:8 ~server_count:30 ~virtual_networks:10 ()
      in
      let t1 = now () in
      Virt.simulate_history ~seed:(seed + 1)
        ~days:(match scale with Full -> 60 | Small -> 10)
        v;
      { topo = Virt v; generate_s = t1 -. t0; history_s = now () -. t1 }
  | T2_legacy ->
      let l = Legacy.generate ~seed ~nodes:(legacy_nodes scale) Legacy.Flat in
      let t1 = now () in
      Legacy.simulate_history ~seed:(seed + 1) ~days:60 l;
      { topo = Legacy l; generate_s = t1 -. t0; history_s = now () -. t1 }

let store = function Virt v -> v.Virt.store | Legacy l -> l.Legacy.store

(* (current nodes, current edges, stored versions) *)
let sizes topo =
  let s = store topo in
  let node, edge =
    match topo with Virt _ -> ("Node", "Edge") | Legacy _ -> ("LegacyNode", "LegacyEdge")
  in
  (Store.count_current s ~cls:node, Store.count_current s ~cls:edge, Store.count_versions s)

(* -- instances ---------------------------------------------------------- *)

type instance = {
  family : string;
  text : string;
  count : int;  (** expected result count *)
  digest : Digest.t;  (** expected digest of the reply text *)
  reply_bytes : int;  (** size of the reply frame on the wire *)
}

(* What the server's default runner answers for [text]: the count and
   the exact pretty-printed rendering. *)
let evaluate conn text =
  match Nepal.Explain.run_string ~conn text with
  | Ok r -> Ok (Nepal.Engine.result_count r, Format.asprintf "%a" Nepal.Engine.pp_result r)
  | Error e -> Error e

let reply_frame ~count ~text =
  Nepal.Wire.query_result ~id:(Nepal.Event_log.Int 1) ~count ~text ()

let instance_of conn ~family text =
  match evaluate conn text with
  | Ok (count, body) when count > 0 ->
      Some
        {
          family;
          text;
          count;
          digest = Digest.string body;
          reply_bytes = String.length (reply_frame ~count ~text:body);
        }
  | Ok _ -> None
  | Error e -> failwith (Printf.sprintf "instance %S failed in-process: %s" text e)

(* Non-empty instances only, as in the paper. [gen i] makes the i-th
   candidate; sampling gives up after [20 * n] candidates. *)
let sample_family conn ~family ~n gen =
  let rec go acc got i =
    if got = n || i >= 20 * n then List.rev acc
    else
      match instance_of conn ~family (gen got) with
      | Some inst -> go (inst :: acc) (got + 1) (i + 1)
      | None -> go acc got (i + 1)
  in
  go [] 0 0

(* Instances per family. Table 1 queries are cheap, so its pool is
   larger: the run-to-run spread across seeds shrinks with pool size. *)
let per_family scale topo =
  match (scale, topo) with Small, _ -> 6 | Full, Virt _ -> 96 | Full, Legacy _ -> 24

(* Candidate generators per family, [fun i -> text] for the family's
   i-th instance; sampled in list order from one seeded stream.

   Table 1: five families; even-numbered instances of a family run on
   the current snapshot, odd ones through AT '<clock>'. *)
let t1_families v rng =
  let clock = Nepal.Time_point.to_string (Store.clock v.Virt.store) in
  let form i q = if i mod 2 = 0 then q else Printf.sprintf "AT '%s' %s" clock q in
  let server () = Virt.sample_server_id rng v in
  let container () = Virt.sample_container_id rng v in
  let fam family gen = (family, fun i -> form i (gen ())) in
  [
    fam "Top-down" (fun () -> Virt.q_top_down ~vnf_id:(Virt.sample_vnf_id rng v));
    fam "Bottom-up" (fun () -> Virt.q_bottom_up ~server_id:(server ()));
    fam "VM-VM(4)" (fun () ->
        let a = container () in
        Virt.q_vm_vm ~a ~b:(container ()));
    fam "Host-Host(4)" (fun () ->
        let a = server () in
        Virt.q_host_host ~hops:4 ~a ~b:(server ()));
    fam "Host-Host(6)" (fun () ->
        let a = server () in
        Virt.q_host_host ~hops:6 ~a ~b:(server ()));
  ]

(* Table 2: four families on the flat legacy graph, snapshot form. *)
let t2_families l rng =
  let fam family gen = (family, fun (_ : int) -> gen ()) in
  [
    fam "Service path" (fun () -> Legacy.q_service_path l ~src:(Legacy.sample_source rng l));
    fam "Reverse path" (fun () -> Legacy.q_reverse_path l ~sink:(Legacy.sample_sink rng l));
    fam "Top-down" (fun () -> Legacy.q_top_down l ~src:(Legacy.sample_top rng l));
    fam "Bottom-up" (fun () -> Legacy.q_bottom_up l ~dst:(Legacy.sample_physical rng l));
  ]

type pool = {
  families : (string * instance array) list;
  stream : instance array;
      (** the replay order: families in rotation, one instance each *)
}

let pool ?(scale = Full) topo ~seed =
  let conn = Nepal.native_conn (store topo) in
  let rng = Prng.create ((seed * 7919) + 101) in
  let families =
    (match topo with Virt v -> t1_families v rng | Legacy l -> t2_families l rng)
    |> List.map (fun (family, gen) ->
           (family, Array.of_list (sample_family conn ~family ~n:(per_family scale topo) gen)))
  in
  List.iter
    (fun (f, a) ->
      if Array.length a = 0 then failwith ("no non-empty instance found for " ^ f))
    families;
  let rounds = List.fold_left (fun m (_, a) -> max m (Array.length a)) 0 families in
  let stream =
    List.init rounds (fun i ->
        List.map (fun (_, a) -> a.(i mod Array.length a)) families)
    |> List.concat |> Array.of_list
  in
  { families; stream }
