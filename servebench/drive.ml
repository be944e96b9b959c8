(* Closed-loop load against a redodb_server child process: spawn,
   preload, warm up, measure, CRASH, read back and audit. *)

module P = Serve.Protocol
module W = Workload

(* ---- server process ---- *)

type server = { pid : int; port : int; out : in_channel }

let spawn ~exe ~args ~log =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let logfd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr logfd in
  Unix.close wr;
  Unix.close logfd;
  let out = Unix.in_channel_of_descr rd in
  (* "redodb_server listening on HOST:PORT (...)" *)
  let line = try input_line out with End_of_file -> failwith "server exited before listening" in
  let port =
    match String.split_on_char ' ' line with
    | _ :: _ :: _ :: addr :: _ -> (
        match String.rindex_opt addr ':' with
        | Some i -> int_of_string (String.sub addr (i + 1) (String.length addr - i - 1))
        | None -> failwith ("unexpected banner: " ^ line))
    | _ -> failwith ("unexpected banner: " ^ line)
  in
  { pid; port; out }

(* SIGTERM drains the server; a server that has not exited 20 s later
   is killed.  Either way it is reaped before this returns. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ WNOHANG ] s.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
  in
  wait ();
  close_in_noerr s.out

let read_file path =
  try
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  with Sys_error _ -> ""

(* Peak resident set of [pid] in MiB ([VmHWM]). *)
let peak_rss_mb pid =
  read_file (Printf.sprintf "/proc/%d/status" pid)
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] ->
             Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:nan

(* CPU ticks (user + system) of each thread of [pid]. *)
let thread_ticks pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | tids ->
      Array.to_list tids
      |> List.filter_map (fun tid ->
             let s = read_file (Printf.sprintf "%s/%s/stat" dir tid) in
             match String.rindex_opt s ')' with
             | None -> None
             | Some i -> (
                 let f =
                   String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2))
                 in
                 (* after the comm field: state is field 3, utime 14, stime 15 *)
                 match (List.nth_opt f 11, List.nth_opt f 12) with
                 | Some u, Some s -> Some (tid, int_of_string u + int_of_string s)
                 | _ -> None))

(* Threads of the server that were busy more than a fifth of [secs]. *)
let busy_threads ~before ~after ~secs =
  let hz = 100. (* USER_HZ: /proc reports CPU time in 1/100 s on Linux *) in
  List.length
    (List.filter
       (fun (tid, t1) ->
         let t0 = Option.value ~default:0 (List.assoc_opt tid before) in
         float (t1 - t0) /. hz > 0.2 *. secs)
       after)

(* (steal, total) jiffies of the host from the first line of /proc/stat. *)
let host_cpu () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | l :: _ -> (
      let f = List.filter (( <> ) "") (String.split_on_char ' ' l) in
      match f with
      | "cpu" :: rest ->
          let v = List.filteri (fun i _ -> i < 8) (List.map int_of_string rest) in
          (List.nth v 7, List.fold_left ( + ) 0 v)
      | _ -> (0, 0))
  | [] -> (0, 0)

(* ---- connections ---- *)

type 'a conn = {
  fd : Unix.file_descr;
  dec : P.Io.Decoder.t;
  pend : (int, 'a * float ref) Hashtbl.t;  (* rid -> tag, send time *)
  buf : Buffer.t;
}

let connect port =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd TCP_NODELAY true;
  { fd; dec = P.Io.Decoder.create (); pend = Hashtbl.create 64; buf = Buffer.create 4096 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* One wire frame: "<length>\n<payload>". *)
let frame payload = string_of_int (String.length payload) ^ "\n" ^ payload

let rid_counter = ref 0

let fresh_rid () =
  incr rid_counter;
  !rid_counter

exception Stalled of string

(* Closed loop over [conns]: keep [window] requests in flight on each
   connection, drawing from [next] until it answers [None], then drain.
   [on_resp tag ~rid ~t_send ~t_ack resp] sees every response. *)
let run conns ~window ~next ~on_resp =
  let issuing = ref true in
  let inflight () = Array.exists (fun c -> Hashtbl.length c.pend > 0) conns in
  while !issuing || inflight () do
    Array.iter
      (fun c ->
        let fresh = ref [] in
        while !issuing && Hashtbl.length c.pend < window do
          match next () with
          | None -> issuing := false
          | Some (req, tag) ->
              let rid = fresh_rid () in
              let t = ref 0. in
              Buffer.add_string c.buf (frame (P.encode_req ~rid req));
              Hashtbl.replace c.pend rid (tag, t);
              fresh := t :: !fresh
        done;
        if Buffer.length c.buf > 0 then begin
          let now = Unix.gettimeofday () in
          List.iter (fun t -> t := now) !fresh;
          write_all c.fd (Buffer.contents c.buf);
          Buffer.clear c.buf
        end)
      conns;
    let waiting =
      Array.to_list conns |> List.filter (fun c -> Hashtbl.length c.pend > 0)
    in
    if waiting <> [] then begin
      let ready, _, _ = Unix.select (List.map (fun c -> c.fd) waiting) [] [] 30. in
      if ready = [] then raise (Stalled "no response for 30 s");
      Array.iter
        (fun c ->
          if List.mem c.fd ready then begin
            P.Io.Decoder.ensure c.dec 65536;
            let n =
              Unix.read c.fd (P.Io.Decoder.buffer c.dec) (P.Io.Decoder.write_off c.dec)
                (P.Io.Decoder.room c.dec)
            in
            if n = 0 then raise (Stalled "server closed the connection");
            P.Io.Decoder.filled c.dec n;
            let t_ack = Unix.gettimeofday () in
            let rec frames () =
              match P.Io.Decoder.next c.dec with
              | `Need_more -> ()
              | `Error e -> raise (Stalled ("bad frame: " ^ e))
              | `Frame payload -> (
                  match P.decode_resp_rid payload with
                  | Error e -> raise (Stalled ("bad response: " ^ e))
                  | Ok (rid, resp) -> (
                      match Hashtbl.find_opt c.pend rid with
                      | None -> raise (Stalled (Printf.sprintf "unexpected RID %d" rid))
                      | Some (tag, t_send) ->
                          Hashtbl.remove c.pend rid;
                          on_resp tag ~rid ~t_send:!t_send ~t_ack resp;
                          frames ()))
            in
            frames ()
          end)
        conns
    end
  done

(* One blocking request on its own connection (STATS, CRASH). *)
let call port req =
  let c = connect port in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      let got = ref None in
      let sent = ref false in
      run [| c |] ~window:1
        ~next:(fun () ->
          if !sent then None
          else begin
            sent := true;
            Some (req, ())
          end)
        ~on_resp:(fun () ~rid:_ ~t_send:_ ~t_ack:_ r -> got := Some r);
      Option.get !got)

let stats port =
  match call port P.Stats with
  | P.Json s -> (
      match Obs.Json.parse s with Ok j -> j | Error e -> failwith ("STATS: " ^ e))
  | _ -> failwith "STATS: unexpected reply"

(* ---- one round: fresh server, preload, measured phase, audit ---- *)

(* One measured completion: [lat] in seconds, [infinity] when the op
   failed; [slice] is the whole second of the phase it completed in. *)
type sample = { cls : W.cls; slice : int; lat : float }

type round = {
  setup_s : float;
  window_s : float;
  samples : sample list;  (* latest completion first *)
  rss_mb : float;
  nvm_ratio : float;  (* NVM bytes per byte of live user data *)
  recovery_ms : float option;  (* the round ended with CRASH + recovery *)
  busy : int;  (* server threads busy > 20% of the phase *)
  steal : float;  (* host steal share over the phase *)
  slice_steal : float array;  (* host steal share over each slice of the phase *)
  stats0 : Obs.Json.t option;  (* STATS at phase start (traced rounds) *)
  stats1 : Obs.Json.t;  (* STATS at phase end *)
}

let member path j = List.fold_left (fun j k -> Option.bind j (Obs.Json.member k)) (Some j) path

let num path j =
  match member path j with
  | Some (Obs.Json.Int n) -> float n
  | Some (Obs.Json.Float f) -> f
  | _ -> 0.

let nvm_ratio ks st =
  let nvm =
    match member [ "shard_stats" ] st with
    | Some (Obs.Json.List l) -> List.fold_left (fun a s -> a +. num [ "nvm_words" ] s) 0. l
    | _ -> nan
  in
  let live = Array.length ks.W.plain + (W.slot_width * Array.length ks.W.slot) in
  nvm *. 8. /. float (live * (16 + W.value_len))

type ctx = {
  spec : W.spec;
  ks : W.keyspace;
  audit : Audit.t;
  violations : string list ref;
}

let violate ctx fmt = Printf.ksprintf (fun s -> ctx.violations := s :: !(ctx.violations)) fmt

(* Check a response that is not a refusal against the request it
   answers; refusals return [false]. *)
let settle ctx op resp =
  let register = function
    | W.Put_op (k, v) -> Some (k, v)
    | W.Mput_op (s, v) -> Some (ctx.spec.plain_keys + s, v)
    | _ -> None
  in
  let refused () =
    Option.iter (fun (r, v) -> Audit.refused_write ctx.audit r v) (register op);
    false
  in
  match (op, resp) with
  | (W.Put_op _ | W.Mput_op _), (P.Ok | P.Committed _) ->
      Option.iter (fun (r, v) -> Audit.acked ctx.audit r v) (register op);
      true
  | _, (P.Overloaded | P.Timeout | P.Unavail _ | P.Shard_unavailable _ | P.Err _) -> refused ()
  | W.Mput_op _, P.In_doubt _ -> false
  | W.Get_op k, P.Val s ->
      let key = ctx.ks.plain.(k) in
      (match W.version_of key s with
      | Some v when Audit.attempted ctx.audit k v -> ()
      | _ -> violate ctx "GET %s returned a value never written" key);
      true
  | W.Get_op k, P.Nil ->
      violate ctx "GET %s: preloaded key absent" ctx.ks.plain.(k);
      true
  | W.Scan_op prefix, P.Kvs kvs ->
      let keys = List.map fst kvs in
      if List.sort compare keys <> keys then violate ctx "SCAN %s: keys out of order" prefix;
      let versions =
        List.map
          (fun (k, s) ->
            if not (String.starts_with ~prefix k) then violate ctx "SCAN %s: foreign key %s" prefix k;
            match W.version_of k s with
            | Some v -> v
            | None ->
                violate ctx "SCAN %s: mangled value under %s" prefix k;
                -1)
          kvs
      in
      if prefix.[0] = 'm' then begin
        (* a slot: all four keys, one version (snapshot never sees half an MPUT) *)
        if List.length kvs <> W.slot_width then
          violate ctx "SCAN %s: %d of %d slot keys" prefix (List.length kvs) W.slot_width
        else if List.length (List.sort_uniq compare versions) <> 1 then
          violate ctx "SCAN %s: snapshot saw a torn MPUT" prefix
      end
      else begin
        let want =
          List.length
            (List.filter (String.starts_with ~prefix) (Array.to_list ctx.ks.plain))
        in
        if List.length kvs <> min want W.scan_max then
          violate ctx "SCAN %s: %d keys, want %d" prefix (List.length kvs) want
      end;
      true
  | _ ->
      violate ctx "unexpected reply to %s" (W.cls_name (W.cls_of op));
      false

(* [l] cut into consecutive groups of at most [n]. *)
let groups n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest when k = n -> go (List.rev cur :: acc) [ x ] 1 rest
    | x :: rest -> go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l

(* Preload every register at version 0 with 64-key MPUTs.  The
   register-level audit entries are acked once all of them are. *)
let preload ctx conns =
  for r = 0 to W.registers ctx.spec - 1 do
    Audit.sent ctx.audit r 0
  done;
  let pending = ref (List.map (fun g -> P.Mput g) (groups 64 (W.preload_pairs ctx.ks))) in
  run conns ~window:4
    ~next:(fun () ->
      match !pending with
      | [] -> None
      | r :: rest ->
          pending := rest;
          Some (r, ()))
    ~on_resp:(fun () ~rid:_ ~t_send:_ ~t_ack:_ -> function
      | P.Committed _ | P.Ok -> ()
      | _ -> violate ctx "preload MPUT refused");
  for r = 0 to W.registers ctx.spec - 1 do
    Audit.acked ctx.audit r 0
  done

(* MGET every key back after recovery and audit each register. *)
let read_back ctx port =
  let keys = Array.to_list ctx.ks.plain @ List.concat (Array.to_list ctx.ks.slot) in
  let seen = Hashtbl.create 4096 in
  let batches = ref (groups 64 keys) in
  let c = connect port in
  Fun.protect
    ~finally:(fun () -> close c)
    (fun () ->
      run [| c |] ~window:4
        ~next:(fun () ->
          match !batches with
          | [] -> None
          | b :: rest ->
              batches := rest;
              Some (P.Mget b, b))
        ~on_resp:(fun b ~rid:_ ~t_send:_ ~t_ack:_ -> function
          | P.Vals vs when List.length vs = List.length b ->
              List.iter2
                (fun k v ->
                  Hashtbl.replace seen k
                    (match v with
                    | None -> Audit.Absent
                    | Some s -> (
                        match W.version_of k s with
                        | Some v -> Audit.Version v
                        | None -> Audit.Mangled)))
                b vs
          | _ -> violate ctx "audit MGET failed"));
  let get k = Option.value ~default:Audit.Absent (Hashtbl.find_opt seen k) in
  Array.iteri
    (fun r k -> Option.iter (violate ctx "%s") (Audit.check_key ctx.audit r (get k)))
    ctx.ks.plain;
  Array.iteri
    (fun s keys ->
      let r = ctx.spec.plain_keys + s in
      Option.iter (violate ctx "%s")
        (Audit.check_slot ctx.audit r (List.map get keys)))
    ctx.ks.slot

(* One round on a fresh server: preload, warm up, measure the stream
   of [seed], then (with [crash]) CRASH + recovery, and audit every
   register.  [spans] records one client span per measured request
   (traced rounds); [traced] also takes STATS at the start of the
   measured phase. *)
let round ~exe ~args ~log ~spec ~ks ~seed ~warmup ~secs ~traced ~crash ~spans ~violations =
  let ctx = { spec; ks; audit = Audit.create (W.registers spec); violations } in
  let gen = W.create spec ~seed in
  let t_spawn = Unix.gettimeofday () in
  let srv = spawn ~exe ~args ~log in
  Fun.protect
    ~finally:(fun () -> stop srv)
    (fun () ->
      let loaders = Array.init W.connections (fun _ -> connect srv.port) in
      preload ctx loaders;
      let setup_s = Unix.gettimeofday () -. t_spawn in
      Array.iter close loaders;
      let conns = Array.init W.connections (fun _ -> connect srv.port) in
      let samples = ref [] in
      let t_start = Unix.gettimeofday () in
      let m0 = t_start +. warmup in
      let m1 = m0 +. secs in
      let stats0 = ref None in
      let ticks0 = ref [] and marked = ref false in
      (* host CPU counters at the start of each slice, and at the end *)
      let n_slices = int_of_float (Float.ceil secs) in
      let cuts = Array.make (n_slices + 1) None in
      let cut upto =
        let cpu = lazy (host_cpu ()) in
        for k = 0 to min upto n_slices do
          if cuts.(k) = None then cuts.(k) <- Some (Lazy.force cpu)
        done
      in
      let mark () =
        let now = Unix.gettimeofday () in
        if now >= m0 then begin
          if not !marked then begin
            marked := true;
            ticks0 := thread_ticks srv.pid;
            if traced then stats0 := Some (stats srv.port)
          end;
          cut (int_of_float (now -. m0))
        end
      in
      run conns ~window:spec.window
        ~next:(fun () ->
          mark ();
          if Unix.gettimeofday () >= m1 then None
          else
            let op = W.next gen in
            (match op with
            | W.Put_op (k, v) -> Audit.sent ctx.audit k v
            | W.Mput_op (s, v) -> Audit.sent ctx.audit (spec.plain_keys + s) v
            | _ -> ());
            Some (W.to_req ks op, op))
        ~on_resp:(fun op ~rid ~t_send ~t_ack resp ->
          let ok = settle ctx op resp in
          if t_ack >= m0 && t_ack < m1 then begin
            let lat = if ok then t_ack -. t_send else infinity in
            samples :=
              { cls = W.cls_of op; slice = int_of_float (t_ack -. m0); lat } :: !samples;
            Option.iter
              (fun sp ->
                Spans.add sp ~name:("client." ^ W.cls_name (W.cls_of op)) ~tid:0 ~rid ~t0:t_send
                  ~t1:t_ack)
              spans
          end);
      let window_s = Float.min (Unix.gettimeofday ()) m1 -. m0 in
      let ticks1 = thread_ticks srv.pid in
      cut n_slices;
      let share (s0, t0) (s1, t1) = if t1 > t0 then float (s1 - s0) /. float (t1 - t0) else 1. in
      let cuts = Array.map Option.get cuts in
      let stats1 = stats srv.port in
      let rss_mb = peak_rss_mb srv.pid in
      Array.iter close conns;
      let recovery_ms =
        if not crash then None
        else
          match
            call srv.port
              (P.Crash { seed; evict_prob = 0.2; torn_prob = 0.2; bitflips = 0 })
          with
          | P.Ok_ms ms -> Some ms
          | r ->
              violate ctx "CRASH failed: %s" (P.encode_resp r);
              None
      in
      read_back ctx srv.port;
      {
        setup_s;
        window_s;
        samples = !samples;
        rss_mb;
        nvm_ratio = nvm_ratio ks stats1;
        recovery_ms;
        busy = busy_threads ~before:!ticks0 ~after:ticks1 ~secs:window_s;
        steal = share cuts.(0) cuts.(n_slices);
        slice_steal = Array.init n_slices (fun k -> share cuts.(k) cuts.(k + 1));
        stats0 = !stats0;
        stats1;
      })
