(* servebench: closed-loop serving benchmark of redodb_server.

   servebench.exe --workload NAME --seed N --seconds S --trace 0|1
                  --server PATH --out DIR

   --trace 0: three rounds, each on a fresh server (spawn + preload =
   one set-up sample), 1 s of warm-up, then S/3 s measured; a round
   spoilt by host CPU steal is redone, and seconds spoilt by it are
   left out; prints the end-to-end metrics.  --trace 1: one untraced
   and one traced round of S/2 s each (the traced server runs with
   --metrics and --trace), then the in-process layer ledger; prints the
   per-layer metrics and writes the client and ledger spans as
   Chrome-trace JSON.  Every round ends with an audit of every write;
   the last round CRASHes and recovers first.  The last line of stdout is the result object. *)

module W = Workload
module D = Drive

let warmup = 1.0
let rounds = 3
let max_steal = 0.05
let retry_until_s = 60.
let pf = Printf.printf

let server_args ~traced ~trace_file =
  [
    "--port"; "0"; "--shards"; "4"; "--reactors"; "1"; "--workers"; "2";
    "--flush-cost"; "800";
  ]
  @ if traced then [ "--metrics"; "--trace"; trace_file ] else []

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let latencies (r : D.round) cls =
  List.filter_map (fun (x : D.sample) -> if List.mem x.cls cls then Some x.lat else None) r.samples

let pooled rounds cls = Pct.sorted_of_list (List.concat_map (fun r -> latencies r cls) rounds)

let ms_pct rounds cls q =
  match Pct.percentile (pooled rounds cls) q with
  | Ok s -> s *. 1e3
  | Error e -> failwith e

let count_ok samples = List.length (List.filter (fun x -> Float.is_finite x.D.lat) samples)

let ops_s rounds =
  let ok = List.fold_left (fun a r -> a + count_ok r.D.samples) 0 rounds in
  let secs = List.fold_left (fun a (r : D.round) -> a +. r.window_s) 0. rounds in
  float ok /. secs

(* Tail latency: the p99 of each run of [chunk] consecutive
   completions, median over all runs.  On a shared 2-core host a pooled
   p99 follows the neighbours' CPU steal from run to run; the median
   over short windows keeps the tail the system itself produces and
   still moves when every window's tail moves.  1000 is the shortest
   window whose p99 has 10 samples beyond it. *)
let chunk = 1000

let tail_p99_ms rounds =
  let a =
    Array.of_list (List.concat_map (fun r -> List.map (fun (x : D.sample) -> x.lat) r.D.samples) rounds)
  in
  let p99s =
    List.init (Array.length a / chunk) (fun i ->
        let c = Array.sub a (i * chunk) chunk in
        Array.sort Float.compare c;
        match Pct.percentile c 0.99 with Ok v -> v *. 1e3 | Error e -> failwith e)
  in
  if p99s = [] then failwith (Printf.sprintf "p99 needs at least %d completions" chunk);
  Pct.median p99s

(* The measured seconds the latency and throughput metrics are taken
   over: every slice of [rounds] with host steal below
   [max_slice_steal], and at least the half of all slices with the
   least steal.  Steal comes in bursts of a second or a few; a round
   with 4% steal read a get_zipf p99 half as high again as a quiet
   round.  Also answers the highest steal share kept. *)
let max_slice_steal = 0.02

let quiet_slices (rounds : D.round list) =
  let slices =
    List.concat
      (List.mapi
         (fun i (r : D.round) -> List.init (Array.length r.slice_steal) (fun k -> (r.slice_steal.(k), i, k)))
         rounds)
  in
  let keep =
    List.filteri
      (fun j (st, _, _) -> st < max_slice_steal || 2 * j < List.length slices)
      (List.sort compare slices)
  in
  ( List.mapi
      (fun i (r : D.round) ->
        let mine = List.filter_map (fun (_, i', k) -> if i' = i then Some k else None) keep in
        {
          r with
          samples = List.filter (fun (x : D.sample) -> List.mem x.slice mine) r.samples;
          window_s = List.fold_left (fun a k -> a +. Float.min 1. (r.window_s -. float k)) 0. mine;
        })
      rounds,
    List.fold_left (fun a (st, _, _) -> Float.max a st) 0. keep )

(* Ungated record of the run's conditions and per-slice figures, so a
   noisy run shows as noisy. *)
let host_record (rounds : D.round list) =
  let list f = String.concat " " (List.map f rounds) in
  pf "host: nproc=%d generator_threads=1 busy_server_threads=[%s] steal=[%s]\n"
    (Domain.recommended_domain_count ())
    (list (fun r -> string_of_int r.busy))
    (list (fun r -> Printf.sprintf "%.4f" r.steal));
  List.iteri
    (fun i (r : D.round) ->
      let slices =
        List.init (int_of_float (Float.ceil r.window_s)) (fun i ->
            List.filter (fun (x : D.sample) -> x.slice = i) r.samples)
      in
      let per_slice f = String.concat " " (List.map f slices) in
      let pct q xs =
        match Pct.percentile (Pct.sorted_of_list (List.map (fun (x : D.sample) -> x.lat) xs)) q with
        | Ok s -> Printf.sprintf "%.2f" (s *. 1e3)
        | Error _ -> "-"
      in
      pf "round %d: setup_s=%.3f steal/slice=[%s] ops_s/slice=[%s] p50_ms/slice=[%s] p99_ms/slice=[%s]\n" i
        r.setup_s
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") r.slice_steal)))
        (per_slice (fun xs -> string_of_int (count_ok xs)))
        (per_slice (pct 0.5))
        (per_slice (pct 0.99)))
    rounds;
  pf "class p50_ms:%s\n"
    (String.concat ""
       (List.filter_map
          (fun c ->
            match Pct.percentile (pooled rounds [ c ]) 0.5 with
            | Ok s -> Some (Printf.sprintf " %s=%.3f" (W.cls_name c) (s *. 1e3))
            | Error _ -> None)
          W.all_cls))

(* ---- per-layer metrics from STATS deltas of a traced round ---- *)

let layer_metrics (r : D.round) ~untraced_ops_s =
  let s0 = Option.get r.stats0 and s1 = r.stats1 in
  let ctr j name = D.num [ "metrics"; "counters"; name; "total" ] j in
  let d name = ctr s1 name -. ctr s0 name in
  let hist j name field = D.num [ "metrics"; "histograms"; name; field ] j in
  let ratio a b = if b > 0. then a /. b else 0. in
  (* Mean of a histogram over the phase: exact, from the sums at both
     ends.  With no sample in the phase (no MPUT on put_deep/get_zipf),
     the mean since server start, i.e. over the preload. *)
  let mean name =
    let sum j = hist j name "mean_ns" *. hist j name "count" in
    let n = hist s1 name "count" -. hist s0 name "count" in
    if n > 0. then (sum s1 -. sum s0) /. n else hist s1 name "mean_ns"
  in
  let mean_us name = mean name /. 1e3 in
  let count c = float (List.length (List.filter Float.is_finite (latencies r [ c ]))) in
  let writes = count W.Put +. count W.Mput in
  let txns = d "ptm.tx.commit" in
  let requests = d "serve.requests" in
  (* the workload's most frequent class: client p50 minus server window p50 *)
  let top =
    List.fold_left
      (fun best c -> if count c > count best then c else best)
      W.Put W.all_cls
  in
  let outside =
    match Pct.percentile (pooled [ r ] [ top ]) 0.5 with
    | Ok s -> (s *. 1e6) -. (D.num [ "windows"; "serve.win." ^ W.cls_name top; "p50_ns" ] s1 /. 1e3)
    | Error e -> failwith e
  in
  let heat j =
    match D.member [ "shard_stats" ] j with
    | Some (Obs.Json.List l) ->
        List.map
          (fun s ->
            match D.member [ "heat" ] s with
            | Some (Obs.Json.List h) -> List.fold_left (fun a x -> a +. D.num [] x) 0. h
            | _ -> 0.)
          l
    | _ -> []
  in
  let shard_heat = List.map2 ( -. ) (heat s1) (heat s0) in
  [
    ("batcher.batch_size_mean", mean "serve.batch_size", "count");
    ("redo_ptm.txn_per_write", ratio txns writes, "count");
    ("batcher.queue_mean_us", mean_us "serve.stage.queue", "us");
    ("batcher.txn_mean_us", mean_us "serve.stage.txn", "us");
    ("redo_ptm.tx_mean_us", mean_us "ptm.tx.latency", "us");
    ("redo_ptm.helping_per_txn", ratio (d "ptm.helping") txns, "count");
    ("redo_ptm.replica_copy_per_txn", ratio (d "ptm.replica_copy") txns, "count");
    ("commit.prepare_mean_us", mean_us "serve.stage.prepare", "us");
    ("commit.decide_mean_us", mean_us "serve.stage.decide", "us");
    ("commit.apply_mean_us", mean_us "serve.stage.apply", "us");
    ( "commit.snapshot_retries_per_scan",
      ratio (d "serve.commit.snapshot_retries") (count W.Scan),
      "count" );
    ("dispatch.request_mean_us", mean_us "serve.request_ns", "us");
    ("reactor.polls_per_req", ratio (d "aio.polls") requests, "count");
    ("reactor.wakeups_per_req", ratio (d "aio.wakeups") requests, "count");
    ("reactor.ingress_full_per_req", ratio (d "serve.reactor.ingress_full") requests, "count");
    ("client.outside_server_p50_us", outside, "us");
    ( "engine.heat_max_share",
      ratio (List.fold_left Float.max 0. shard_heat) (List.fold_left ( +. ) 0. shard_heat),
      "share" );
    ("engine.recovery_ms", Option.value ~default:nan r.recovery_ms, "ms");
    ("obs.trace_overhead_frac", 1. -. (ops_s [ r ] /. untraced_ops_s), "share");
  ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let server = ref "" and out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME put_deep | get_zipf | xshard_mix");
      ("--seed", Arg.Set_int seed, "N request-stream seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
      ("--server", Arg.Set_string server, "PATH redodb_server executable");
      ("--out", Arg.Set_string out, "DIR directory for logs and trace files");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "servebench.exe [options]";
  let spec =
    match W.find !workload with
    | Some s -> s
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  if !server = "" || !out = "" || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "servebench: --server, --out, --seconds >= 1 and --trace 0|1 are required";
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let traced = !trace = 1 in
  let shard_of =
    let e =
      Serve.Engine.create
        { Serve.Engine.default_config with num_threads = 1; capacity_bytes = 4096 }
    in
    Serve.Engine.shard_of e
  in
  let ks = W.keyspace spec ~shard_of in
  let violations = ref [] in
  let file suffix = Filename.concat !out (Printf.sprintf "%s.%s" spec.name suffix) in
  let spans = Spans.create () in
  let round ~i ~traced ~crash ~secs =
    D.round ~exe:!server
      ~args:(server_args ~traced ~trace_file:(file "server-trace.json"))
      ~log:(file (Printf.sprintf "server-%d.log" i))
      ~spec ~ks ~seed:((!seed * 64) + i) ~warmup ~secs ~traced ~crash
      ~spans:(if traced then Some spans else None)
      ~violations
  in
  let secs = float !seconds in
  let rounds, discarded, metrics =
    if not traced then begin
      (* A round during which other tenants stole more than [max_steal]
         of the host's CPU is redone while the run is younger than
         [retry_until_s]; it still counts in attempted/failed and its
         writes are still audited. *)
      let t0 = Unix.gettimeofday () in
      let rec collect kept noisy i =
        if List.length kept = rounds then (List.rev kept, List.rev noisy)
        else
          let r =
            round ~i ~traced:false ~crash:(List.length kept = rounds - 1)
              ~secs:(secs /. float rounds)
          in
          if r.D.steal > max_steal && Unix.gettimeofday () -. t0 < retry_until_s then
            collect kept (r :: noisy) (i + 1)
          else collect (r :: kept) noisy (i + 1)
      in
      let rounds, noisy = collect [] [] 0 in
      let med f = Pct.median (List.map f rounds) in
      let quiet, cutoff = quiet_slices rounds in
      let secs_of = List.fold_left (fun a (r : D.round) -> a +. r.window_s) 0. in
      pf "quiet slices: %.1f of %.1f measured seconds, steal <= %.3f\n" (secs_of quiet)
        (secs_of rounds) cutoff;
      ( rounds,
        noisy,
        [
          ("setup_s", med (fun r -> r.D.setup_s), "s");
          ("ops_s", ops_s quiet, "1/s");
          ("p50_ms", ms_pct quiet W.all_cls 0.5, "ms");
          ("p99_ms", tail_p99_ms quiet, "ms");
          ("put_p50_ms", ms_pct quiet [ W.Put ] 0.5, "ms");
          ("server_rss_mb", med (fun r -> r.D.rss_mb), "MiB");
          ("nvm_bytes_per_user_byte", med (fun r -> r.D.nvm_ratio), "B/B");
        ] )
    end
    else begin
      let plain = round ~i:0 ~traced:false ~crash:false ~secs:(secs /. 2.) in
      let tr = round ~i:1 ~traced:true ~crash:true ~secs:(secs /. 2.) in
      let layers = layer_metrics tr ~untraced_ops_s:(ops_s [ plain ]) in
      let ledger = Ledger.run spec ks spans in
      Spans.write spans (file "client-trace.json");
      pf "trace: %d client and ledger spans in %s; server spans in %s (join on args.rid)\n"
        (Spans.length spans) (file "client-trace.json") (file "server-trace.json");
      ([ plain; tr ], [], layers @ ledger)
    end
  in
  host_record rounds;
  pf "rounds redone for host steal > %.0f%%: %d, steal=[%s]\n" (max_steal *. 100.)
    (List.length discarded)
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" r.D.steal) discarded));
  let vs = List.rev !violations in
  List.iteri (fun i v -> if i < 20 then pf "violation: %s\n" v) vs;
  let all = rounds @ discarded in
  let attempted = List.fold_left (fun a r -> a + List.length r.D.samples) 0 all in
  let failed = attempted - List.fold_left (fun a r -> a + count_ok r.D.samples) 0 all in
  pf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" (vs = [])
    attempted failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
          metrics))
