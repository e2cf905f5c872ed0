(* Answer checking. Every reply is classified; anything but [Correct]
   counts as a failed operation, by cause. *)

module Nepal = Core.Nepal

type verdict =
  | Correct
  | Mismatch  (** count or text digest differs from the in-process answer *)
  | Malformed  (** rendering inconsistent with its own count *)
  | Too_long  (** reply over the client's 1 MiB line limit *)
  | Error_reply  (** the server or the connection reported an error *)

let cause = function
  | Correct -> "correct"
  | Mismatch -> "mismatch"
  | Malformed -> "malformed"
  | Too_long -> "too_long"
  | Error_reply -> "error"

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let classify_error e =
  if starts_with ~prefix:"oversized frame" e then Too_long else Error_reply

(* Exact check against the expected answer. *)
let exact (inst : Workload.instance) = function
  | Error e -> classify_error e
  | Ok (r : Nepal.Server.query_reply) ->
      if r.qr_count = inst.count && Digest.string r.qr_text = inst.digest then Correct
      else Mismatch

(* A rows rendering is "N row(s) of (VARS)" followed by one
   "  VAR = path" line per variable per row. *)
let well_formed_text ~count text =
  match String.split_on_char '\n' text with
  | header :: lines -> (
      match Scanf.sscanf_opt header "%d row(s) of (%[^)])" (fun n vars -> (n, vars)) with
      | Some (n, vars) ->
          let nvars = List.length (String.split_on_char ',' vars) in
          let bindings = List.filter (starts_with ~prefix:"  ") lines in
          n = count && List.length bindings = count * nvars
      | None -> false)
  | [] -> false

(* For replies whose expected answer moves under churn: the reply must
   parse and be consistent with itself. *)
let shape = function
  | Error e -> classify_error e
  | Ok (r : Nepal.Server.query_reply) ->
      if well_formed_text ~count:r.qr_count r.qr_text then Correct else Malformed

(* Failure tally by cause; thread-safe. *)
type tally = { lock : Mutex.t; causes : (string, int) Hashtbl.t; mutable attempted : int }

let tally () = { lock = Mutex.create (); causes = Hashtbl.create 8; attempted = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let bump t c = Hashtbl.replace t.causes c (1 + Option.value ~default:0 (Hashtbl.find_opt t.causes c))

let record t v =
  locked t (fun () ->
      t.attempted <- t.attempted + 1;
      if v <> Correct then bump t (cause v))

(* An operation that failed without a reply to classify, e.g. an alert
   that never arrived. *)
let fail t c =
  locked t (fun () ->
      t.attempted <- t.attempted + 1;
      bump t c)

let failed t = Hashtbl.fold (fun _ n acc -> acc + n) t.causes 0

let causes t =
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) t.causes [] |> List.sort compare
