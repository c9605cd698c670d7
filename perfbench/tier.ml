(* A `volcomp serve` process under the benchmark's control: spawn it,
   talk to it over its Unix-domain socket, read its stats, stop it. *)

module Json = Vc_obs.Json
module P = Vc_serve.Protocol

type t = { pid : int; socket : string }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with e ->
     Unix.close fd;
     raise e);
  fd

(* [workers = 0] is the single-process server; otherwise a supervisor
   with that many shard workers, each at one domain. *)
let spawn ~exe ~socket ~workers ?snap_dir ~cache () =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let args =
    [ exe; "serve"; "--socket"; socket; "--cache"; string_of_int cache; "-j"; "1" ]
    @ (if workers > 0 then [ "--workers"; string_of_int workers ] else [])
    @ match snap_dir with Some d -> [ "--snap-dir"; d ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process exe (Array.of_list args) devnull devnull Unix.stderr in
  Unix.close devnull;
  let deadline = Util.now () +. 10. in
  let rec wait () =
    match connect socket with
    | fd -> Unix.close fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        if Util.now () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          failwith "serve tier did not come up within 10 s"
        end;
        Unix.sleepf 0.002;
        wait ()
  in
  wait ();
  { pid; socket }

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Blocking connection for control traffic and closed-loop timing. *)
type conn = { fd : Unix.file_descr; dec : P.decoder; buf : Bytes.t }

let open_conn t = { fd = connect t.socket; dec = P.decoder (); buf = Bytes.create 65536 }
let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec read_frame c =
  match P.next_frame c.dec with
  | Ok (Some body) -> body
  | Error msg -> failwith ("reply framing: " ^ msg)
  | Ok None -> (
      match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
      | 0 -> failwith "server closed the connection"
      | n ->
          P.feed c.dec c.buf n;
          read_frame c)

(* Send one pre-framed request and return the reply body. *)
let rpc_raw c frame =
  write_all c.fd frame;
  read_frame c

let request_frame id query =
  P.frame (Json.to_string (P.request_to_json { P.id; deadline_ms = None; query }))

let rpc c id query =
  let body = rpc_raw c (request_frame id query) in
  match Result.bind (Json.parse body) P.reply_of_json with
  | Ok r -> r
  | Error msg -> failwith ("bad reply: " ^ msg)

let stats c =
  match (rpc c 0 P.Stats).P.body with
  | Ok payload -> payload
  | Error (_, msg) -> failwith ("stats: " ^ msg)

let counter payload name =
  match
    Option.bind (Json.member payload "metrics") (fun m ->
        Option.bind (Json.member m "counters") (fun c -> Json.member c name))
  with
  | Some v -> Option.value (Json.to_int v) ~default:0
  | None -> 0

(* Per-shard (pid, worker stats payload) rows of a supervisor's stats
   reply; a single-process server is one row of its own. *)
let shards payload ~pid =
  match Json.member payload "shards" with
  | Some (Json.List rows) ->
      List.filter_map
        (fun row ->
          match (Option.bind (Json.member row "pid") Json.to_int, Json.member row "stats") with
          | Some p, Some s -> Some (p, s)
          | _ -> None)
        rows
  | _ -> [ (pid, payload) ]

(* Peak RSS of the server and, for a tier, every worker. *)
let peak_rss_mb t payload =
  let workers = List.filter (fun (p, _) -> p <> t.pid) (shards payload ~pid:t.pid) in
  Util.vm_hwm_mb t.pid +. Util.sum (List.map (fun (p, _) -> Util.vm_hwm_mb p) workers)

let stop t =
  (match open_conn t with
  | c ->
      (try ignore (rpc c 0 P.Shutdown : P.reply) with Failure _ | Unix.Unix_error _ -> ());
      close_conn c
  | exception Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if Util.now () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid)
        end
        else begin
          Unix.sleepf 0.005;
          reap ()
        end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  try Unix.unlink t.socket with Unix.Unix_error _ -> ()

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
  try Unix.unlink t.socket with Unix.Unix_error _ -> ()
