(* In-process layer ledger: the workload's own key and value stream
   driven through one layer at a time, single-threaded, at the
   server's flush cost.  Each sample times a batch of calls (the clock
   has microsecond resolution) and is logged as one span; a layer
   reports the median of its per-call batch means.  Flush counts of a
   single thread repeat exactly: they are the paper's
   hardware-independent figure. *)

module P = Serve.Protocol
module W = Workload

let flush_cost = 800

(* The first [n] keys the workload's stream touches (GET and PUT keys,
   the four keys of an MPUT), in stream order. *)
let stream_keys spec ks ~seed n =
  let g = W.create spec ~seed in
  let out = ref [] and got = ref 0 in
  while !got < n do
    let add k =
      if !got < n then begin
        out := k :: !out;
        incr got
      end
    in
    match W.next g with
    | W.Get_op k | W.Put_op (k, _) -> add ks.W.plain.(k)
    | W.Mput_op (s, _) -> List.iter add ks.W.slot.(s)
    | W.Scan_op _ -> ()
  done;
  Array.of_list (List.rev !out)

let stream_ops spec ~seed n =
  let g = W.create spec ~seed in
  Array.init n (fun _ -> W.next g)

(* Fresh values: version 1, 2, ... per key, as the server run writes. *)
let valuer () =
  let v = Hashtbl.create 1024 in
  fun k ->
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt v k) in
    Hashtbl.replace v k n;
    W.value k n

(* Run [calls] calls of [f i] in batches of [batch]; one span per batch. *)
let timed spans ~name ~calls ~batch f =
  let samples = ref [] in
  let i = ref 0 in
  while !i < calls do
    let k = min batch (calls - !i) in
    let t0 = Unix.gettimeofday () in
    for j = !i to !i + k - 1 do
      f j
    done;
    let t1 = Unix.gettimeofday () in
    Spans.add spans ~name ~tid:1 ~rid:0 ~t0 ~t1;
    samples := ((t1 -. t0) /. float k) :: !samples;
    i := !i + k
  done;
  Pct.median !samples

let preload_engine eng ks =
  List.iter
    (fun (key, value) -> ignore (Serve.Engine.put eng ~tid:0 ~key ~value))
    (W.preload_pairs ks)

let engine ~batch =
  Serve.Engine.create { Serve.Engine.default_config with num_threads = 2; batch }

(* All ledger metrics of one workload, as (name, value, unit).  The
   ledger drives one fixed instance of the workload's stream (seed 0),
   whatever the run's seed, so its flush counts repeat exactly. *)
let run spec ks spans =
  let seed = 0 in
  let keys = stream_keys spec ks ~seed 4096 in
  let nk = Array.length keys in
  let key i = keys.(i mod nk) in
  let ops = stream_ops spec ~seed 4096 in
  let out = ref [] in
  let emit name v unit = out := (name, v, unit) :: !out in
  (* raw device: one dirty line written back and fenced *)
  let pm = Pmem.create ~max_threads:1 ~words:(1 lsl 16) () in
  Pmem.set_flush_cost pm flush_cost;
  let line i = i * 8 mod (1 lsl 16) in
  let s =
    timed spans ~name:"ledger.pmem.flush_line" ~calls:20_000 ~batch:200 (fun i ->
        Pmem.set_word pm ~tid:0 (line i) (Int64.of_int i);
        Pmem.pwb pm ~tid:0 (line i);
        Pmem.pfence pm ~tid:0)
  in
  emit "pmem.flush_line_ns" (s *. 1e9) "ns";
  (* RedoDB: the PTM-backed hash map *)
  let db = Kv.Redodb.open_db ~num_threads:2 ~capacity_bytes:(1 lsl 20) () in
  List.iter (fun (key, value) -> Kv.Redodb.put db ~tid:0 ~key ~value) (W.preload_pairs ks);
  Kv.Redodb.set_flush_cost db flush_cost;
  Kv.Redodb.reset_stats db;
  let v = valuer () in
  let puts = 512 in
  let s =
    timed spans ~name:"ledger.redodb.put" ~calls:puts ~batch:16 (fun i ->
        let k = key i in
        Kv.Redodb.put db ~tid:0 ~key:k ~value:(v k))
  in
  let st = Kv.Redodb.stats db in
  emit "redodb.put_us" (s *. 1e6) "us";
  emit "redodb.pwb_per_put" (float st.pwb /. float puts) "count";
  emit "redodb.pfence_per_put" (float (Pmem.Stats.fences st) /. float puts) "count";
  let s =
    timed spans ~name:"ledger.redodb.get" ~calls:20_000 ~batch:500 (fun i ->
        ignore (Kv.Redodb.get db ~tid:0 (key i)))
  in
  emit "redodb.get_us" (s *. 1e6) "us";
  (* Engine: shards + group commit + 2PC, in-process *)
  List.iter
    (fun (batch, name) ->
      let eng = engine ~batch in
      preload_engine eng ks;
      Serve.Engine.set_flush_cost eng flush_cost;
      let v = valuer () in
      let s =
        timed spans ~name:("ledger." ^ name) ~calls:512 ~batch:16 (fun i ->
            let k = key i in
            ignore (Serve.Engine.put eng ~tid:0 ~key:k ~value:(v k)))
      in
      emit (name ^ "_us") (s *. 1e6) "us")
    [ (false, "engine.put_nobatch"); (true, "engine.put_batch") ];
  let eng = engine ~batch:true in
  preload_engine eng ks;
  Serve.Engine.set_flush_cost eng flush_cost;
  let v = valuer () in
  let s =
    timed spans ~name:"ledger.engine.mput" ~calls:128 ~batch:4 (fun i ->
        let group = List.init 4 (fun j -> let k = key ((4 * i) + j) in (k, Some (v k))) in
        ignore (Serve.Engine.multi_put eng ~tid:0 group))
  in
  emit "engine.mput_us" (s *. 1e6) "us";
  let s =
    timed spans ~name:"ledger.engine.scan" ~calls:200 ~batch:10 (fun i ->
        ignore (Serve.Engine.scan eng ~tid:0 ~prefix:(String.sub (key i) 0 15) ~max:W.scan_max))
  in
  emit "engine.scan_us" (s *. 1e6) "us";
  (* Dispatch: the typed request executor over the same engine *)
  let d = Serve.Dispatch.create eng in
  let s =
    timed spans ~name:"ledger.dispatch.serve_one" ~calls:2000 ~batch:50 (fun i ->
        ignore (Serve.Dispatch.serve_one d ~tid:0 (W.to_req ks ops.(i mod Array.length ops))))
  in
  emit "dispatch.serve_one_us" (s *. 1e6) "us";
  (* Protocol: request and response encode + framed decode *)
  let dec = P.Io.Decoder.create () in
  let reply = function
    | W.Get_op k -> P.Val (W.value ks.plain.(k) 0)
    | W.Put_op _ -> P.Ok
    | W.Mput_op _ -> P.Committed { txid = 1; epoch = 1 }
    | W.Scan_op _ -> P.Kvs (List.map (fun k -> (k, W.value k 0)) ks.slot.(0))
  in
  let replies = Array.map reply ops in
  let s =
    timed spans ~name:"ledger.protocol.codec" ~calls:20_000 ~batch:500 (fun i ->
        let j = i mod Array.length ops in
        P.Io.Decoder.feed_string dec (Drive.frame (P.encode_req ~rid:(i + 1) (W.to_req ks ops.(j))));
        (match P.Io.Decoder.next dec with
        | `Frame p -> ignore (P.decode_req_env p)
        | _ -> failwith "codec: no frame");
        P.Io.Decoder.feed_string dec (Drive.frame (P.encode_resp ~rid:(i + 1) replies.(j)));
        match P.Io.Decoder.next dec with
        | `Frame p -> ignore (P.decode_resp_rid p)
        | _ -> failwith "codec: no frame")
  in
  emit "protocol.codec_us" (s *. 1e6) "us";
  (* Client over loopback against an in-process reactor, depth 1 *)
  let r =
    Serve.Reactor.start
      {
        Serve.Reactor.default_config with
        reactors = 1;
        workers_per_reactor = 1;
        engine = { Serve.Engine.default_config with num_threads = 2 };
      }
  in
  Fun.protect
    ~finally:(fun () -> Serve.Reactor.stop r)
    (fun () ->
      preload_engine (Serve.Reactor.engine r) ks;
      Serve.Engine.set_flush_cost (Serve.Reactor.engine r) flush_cost;
      let c = Serve.Client.connect ~host:"127.0.0.1" ~port:(Serve.Reactor.port r) () in
      Fun.protect
        ~finally:(fun () -> Serve.Client.close c)
        (fun () ->
          let s =
            timed spans ~name:"ledger.client.loopback_rtt" ~calls:1000 ~batch:20 (fun i ->
                ignore (Serve.Client.call c (W.to_req ks ops.(i mod Array.length ops))))
          in
          emit "client.loopback_rtt_us" (s *. 1e6) "us"));
  List.rev !out
