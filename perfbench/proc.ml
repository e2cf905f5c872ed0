(* The server process: its own role (this executable re-run with
   [--role server]) and the parent's handle on it.

   Protocol on the child's stdin/stdout, one line each:
   - child -> parent  [ready PORT] once the server listens;
   - parent -> child  [churn N T0]: apply N churn batches, batch k due
     at wall time T0 + k * 0.25 s, each under one [Server.with_write];
   - child -> parent  [churn-report JSON] when the batches are done;
   - parent -> child  [quit] (or EOF): stop the server and exit. *)

module Nepal = Core.Nepal
module Server = Nepal.Server
module J = Nepal.Event_log

let now = Unix.gettimeofday

(* -- child side ---------------------------------------------------------- *)

let churn_loop srv (v : Nepal.Virt_service.t) ~seed ~n ~t0 =
  let c = Churn.create v ~seed in
  let rows =
    List.init n (fun k ->
        let due = t0 +. (Churn.interval_s *. float_of_int k) in
        let wait = due -. now () in
        if wait > 0. then Thread.delay wait;
        let called = now () in
        let acquired = ref called in
        let at =
          Server.with_write srv (fun _ ->
              acquired := now ();
              Churn.apply_batch c)
        in
        let finished = now () in
        J.Obj
          [
            ("due", J.Float due);
            ("called", J.Float called);
            ("acquired", J.Float !acquired);
            ("done", J.Float finished);
            ("at", J.Str at);
          ])
  in
  Printf.printf "churn-report %s\n%!" (J.json_to_string (J.List rows))

let serve kind ~seed =
  let b = Workload.build kind ~seed in
  match
    Server.start ~config:{ Server.default_config with port = 0 } (Workload.store b.topo)
  with
  | Error e ->
      prerr_endline ("perfbench server: " ^ e);
      exit 1
  | Ok srv ->
      Printf.printf "ready %d\n%!" (Server.port srv);
      let churn = ref None in
      let rec loop () =
        match input_line stdin with
        | exception End_of_file -> ()
        | "quit" -> ()
        | line -> (
            match (String.split_on_char ' ' line, b.topo) with
            | [ "churn"; n; t0 ], Workload.Virt v when !churn = None ->
                let n = int_of_string n and t0 = float_of_string t0 in
                churn := Some (Thread.create (fun () -> churn_loop srv v ~seed ~n ~t0) ());
                loop ()
            | _ ->
                prerr_endline ("perfbench server: bad command " ^ line);
                loop ())
      in
      loop ();
      Option.iter Thread.join !churn;
      Server.stop srv;
      exit 0

(* -- parent side ----------------------------------------------------------- *)

type t = { pid : int; to_child : out_channel; from_child : in_channel; port : int }

let live : t list ref = ref []

(* Wait up to [grace] seconds for the child to exit, then kill it. *)
let reap ?(grace = 20.) pid =
  let deadline = now () +. grace in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.02;
        go ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  go ()

let stop t =
  if List.memq t !live then begin
    live := List.filter (fun x -> x != t) !live;
    (try
       output_string t.to_child "quit\n";
       close_out t.to_child
     with Sys_error _ -> ());
    reap t.pid;
    close_in_noerr t.from_child
  end

(* Never leave a server behind, whatever path the benchmark exits by. *)
let () = at_exit (fun () -> List.iter stop !live)

let read_line t = input_line t.from_child

let send t line =
  output_string t.to_child (line ^ "\n");
  flush t.to_child

(* Spawn a server for the workload; returns it with the set-up time:
   from spawning the process to its first answered ping. *)
let spawn kind ~seed =
  let t0 = now () in
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "--role"; "server"; "--workload"; Workload.name kind; "--seed"; string_of_int seed |]
      in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  let from_child = Unix.in_channel_of_descr out_r in
  let to_child = Unix.out_channel_of_descr in_w in
  let port =
    match input_line from_child with
    | line -> Scanf.sscanf_opt line "ready %d" Fun.id
    | exception End_of_file -> None
  in
  match port with
  | None ->
      close_out_noerr to_child;
      reap pid;
      failwith "server process did not start"
  | Some port -> (
      let t = { pid; to_child; from_child; port } in
      live := t :: !live;
      match Nepal.Server_client.connect ~port () with
      | Error e -> failwith ("connect: " ^ e)
      | Ok c ->
          let r = Nepal.Server_client.ping c in
          let setup = now () -. t0 in
          Nepal.Server_client.close c;
          (match r with Ok () -> () | Error e -> failwith ("ping: " ^ e));
          (t, setup))

(* Peak resident set of the server process (VmHWM), in MB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line -> (
            match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
            | Some kb -> float_of_int kb /. 1024.
            | None -> go ())
        | exception End_of_file -> failwith "VmHWM not found"
      in
      go ())
