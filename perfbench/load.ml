(* Load generators over pre-encoded request frames.

   Open loop: requests are due on a Poisson schedule fixed before the
   phase starts and are written when due, whatever the server is doing,
   round-robin over non-blocking connections.  Latency runs from the
   scheduled send, so a stall is charged to every request it delays;
   the generator's own lateness (actual write minus schedule) is kept
   per request so a run can show it was not the bottleneck.

   Closed loop: one connection, one request in flight. *)

module P = Vc_serve.Protocol

type phase = {
  sched : float array;  (** scheduled send *)
  sent : float array;  (** handed to the socket *)
  recv : float array;  (** reply complete; [nan] when none came *)
  body : string array;  (** reply body; [""] when none came *)
}

(* Replies are [{"id":N,...}]; the generator reads only the id so that
   parsing large replies does not compete with the server for cores. *)
let reply_id body =
  let prefix = "{\"id\":" in
  let lp = String.length prefix in
  if String.length body <= lp || String.sub body 0 lp <> prefix then -1
  else
    let rec go i acc =
      if i < String.length body && body.[i] >= '0' && body.[i] <= '9' then
        go (i + 1) ((acc * 10) + Char.code body.[i] - 48)
      else acc
    in
    go lp 0

type oconn = {
  fd : Unix.file_descr;
  dec : P.decoder;
  out : Buffer.t;
  mutable off : int;
  mutable outstanding : int;
}

(* Poisson arrival times for [n] requests at [rate], from [rng]. *)
let schedule rng ~rate ~n ~start =
  let t = ref start in
  Array.init n (fun _ ->
      let u = Util.Splitmix.float rng in
      t := !t +. (-.log (1. -. u) /. rate);
      !t)

(* [frames.(i)] must carry request id [i + 1] and goes out on connection
   [i mod conns].  With [window], a due request also waits until its
   connection has fewer than [window] replies outstanding (a closed loop
   with that many requests in flight per connection). *)
let open_loop ?(window = max_int) ~socket ~conns ~sched frames =
  let n = Array.length frames in
  let ph =
    {
      sched;
      sent = Array.make n nan;
      recv = Array.make n nan;
      body = Array.make n "";
    }
  in
  let cs =
    Array.init conns (fun _ ->
        let fd = Tier.connect socket in
        Unix.set_nonblock fd;
        { fd; dec = P.decoder (); out = Buffer.create 65536; off = 0; outstanding = 0 })
  in
  let buf = Bytes.create 262144 in
  let next = ref 0 and got = ref 0 in
  let hard_deadline = (if n > 0 then sched.(n - 1) else Util.now ()) +. 10. in
  let hard_deadline = if window < max_int then hard_deadline +. 60. else hard_deadline in
  let flush c =
    let len = Buffer.length c.out in
    if c.off < len then begin
      let s = Buffer.sub c.out c.off (len - c.off) in
      (try
         let w = Unix.write_substring c.fd s 0 (String.length s) in
         c.off <- c.off + w
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
      if c.off >= Buffer.length c.out then begin
        Buffer.clear c.out;
        c.off <- 0
      end
    end
  in
  let rec drain c now =
    match P.next_frame c.dec with
    | Ok None -> ()
    | Error msg -> failwith ("reply framing: " ^ msg)
    | Ok (Some b) ->
        let i = reply_id b - 1 in
        if i >= 0 && i < n && Float.is_nan ph.recv.(i) then begin
          let parent = Util.Span.record ~req:(i + 1) "loadgen.request" sched.(i) now in
          ignore (Util.Span.record ~parent ~req:(i + 1) "tier.round_trip" ph.sent.(i) now : int);
          ph.recv.(i) <- now;
          ph.body.(i) <- b;
          c.outstanding <- c.outstanding - 1;
          incr got
        end;
        drain c now
  in
  (try
     while !got < n && Util.now () < hard_deadline do
       let now = Util.now () in
       while !next < n && sched.(!next) <= now && cs.(!next mod conns).outstanding < window do
         let c = cs.(!next mod conns) in
         Buffer.add_string c.out frames.(!next);
         c.outstanding <- c.outstanding + 1;
         ph.sent.(!next) <- now;
         incr next
       done;
       Array.iter flush cs;
       let timeout =
         if !next < n && cs.(!next mod conns).outstanding < window then
           Float.max 0. (Float.min 0.05 (sched.(!next) -. Util.now ()))
         else 0.05
       in
       let rd = Array.to_list (Array.map (fun c -> c.fd) cs) in
       let wr =
         Array.to_list cs
         |> List.filter_map (fun c -> if Buffer.length c.out > c.off then Some c.fd else None)
       in
       let readable, _, _ =
         try Unix.select rd wr [] timeout
         with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
       in
       let now = Util.now () in
       Array.iter
         (fun c ->
           if List.memq c.fd readable then
             match Unix.read c.fd buf 0 (Bytes.length buf) with
             | 0 -> failwith "server closed the connection mid-run"
             | k ->
                 P.feed c.dec buf k;
                 drain c now
             | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
         cs
     done
   with e ->
     Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
     raise e);
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) cs;
  ph

let windowed ~socket ~conns ~window frames =
  let t0 = Util.now () in
  open_loop ~window ~socket ~conns ~sched:(Array.make (Array.length frames) t0) frames

(* Round trips of [frames] one at a time over one connection:
   (reply body, seconds) per request, each also a span named [span]. *)
let closed_loop ~span ~socket frames =
  let c = { Tier.fd = Tier.connect socket; dec = P.decoder (); buf = Bytes.create 262144 } in
  let out =
    Array.mapi
      (fun i f ->
        let t0 = Util.now () in
        let b = Tier.rpc_raw c f in
        let t1 = Util.now () in
        ignore (Util.Span.record ~req:(i + 1) span t0 t1 : int);
        (b, t1 -. t0))
      frames
  in
  Tier.close_conn c;
  out

let lags_ms ph =
  Array.to_list (Array.mapi (fun i s -> (s -. ph.sched.(i)) *. 1e3) ph.sent)
  |> List.filter (fun x -> not (Float.is_nan x))
