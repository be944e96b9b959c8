(* Tests of the benchmark's own code: stream determinism, the
   percentile's tail rule, and the audit's violation classes. *)

open Servebench
module W = Workload

let failures = ref 0

let check name ok =
  if not ok then begin
    Printf.printf "FAIL %s\n" name;
    incr failures
  end

let stream name seed n =
  let g = W.create (Option.get (W.find name)) ~seed in
  List.init n (fun _ -> W.next g)

let shard_of k = Hashtbl.hash k land 3

let () =
  List.iter
    (fun (s : W.spec) ->
      check (s.name ^ ": same seed, same stream") (stream s.name 7 5000 = stream s.name 7 5000);
      check (s.name ^ ": other seed, other stream") (stream s.name 7 5000 <> stream s.name 8 5000);
      (* the deck deals the exact mix in every window of one deck *)
      let size = List.fold_left (fun a (_, n) -> a + n) 0 s.deck in
      let first = List.filteri (fun i _ -> i < size) (stream s.name 3 size) in
      check (s.name ^ ": one deck holds the exact mix")
        (List.for_all
           (fun (c, n) -> List.length (List.filter (fun op -> W.cls_of op = c) first) = n)
           s.deck))
    W.specs;
  let xs = W.find "xshard_mix" |> Option.get in
  let ks = W.keyspace xs ~shard_of in
  check "slots span at least two shards"
    (Array.for_all
       (fun keys -> List.length (List.sort_uniq compare (List.map shard_of keys)) >= 2)
       ks.slot);
  check "keys are 16 bytes" (String.length ks.plain.(0) = 16 && String.length (List.hd ks.slot.(0)) = 16);
  let k = ks.plain.(5) in
  check "value round-trips its version" (W.version_of k (W.value k 42) = Some 42);
  check "value under another key is rejected" (W.version_of ks.plain.(6) (W.value k 42) = None);
  let mangled = Bytes.of_string (W.value k 42) in
  Bytes.set mangled 40 (if Bytes.get mangled 40 = 'z' then 'y' else 'z');
  check "mangled filler is rejected" (W.version_of k (Bytes.to_string mangled) = None)

let () =
  let sorted n = Array.init n float in
  check "p99 refused with 9 samples beyond" (Result.is_error (Pct.percentile (sorted 999) 0.99));
  check "p99 given with 10 samples beyond" (Pct.percentile (sorted 1000) 0.99 = Ok 989.);
  check "p50 nearest rank" (Pct.percentile (sorted 100) 0.5 = Ok 49.);
  check "failed ops sort last"
    (Pct.percentile (Pct.sorted_of_list (infinity :: List.init 99 float)) 0.5 = Ok 49.)

let () =
  let a = Audit.create 3 in
  (* register 0: v1 acked, then v2 sent after that ack and acked *)
  Audit.sent a 0 0;
  Audit.acked a 0 0;
  Audit.sent a 0 1;
  Audit.acked a 0 1;
  Audit.sent a 0 2;
  Audit.acked a 0 2;
  check "latest acked version passes" (Audit.check_key a 0 (Audit.Version 2) = None);
  check "lost acked write is flagged" (Audit.check_key a 0 (Audit.Version 1) <> None);
  check "absent key is flagged" (Audit.check_key a 0 Audit.Absent <> None);
  check "mangled value is flagged" (Audit.check_key a 0 Audit.Mangled <> None);
  check "never-attempted version is flagged" (Audit.check_key a 0 (Audit.Version 9) <> None);
  (* register 1: two overlapping writes, both acked — either may win *)
  Audit.sent a 1 0;
  Audit.acked a 1 0;
  Audit.sent a 1 1;
  Audit.sent a 1 2;
  Audit.acked a 1 2;
  Audit.acked a 1 1;
  check "concurrent acked writes: older may win" (Audit.check_key a 1 (Audit.Version 1) = None);
  check "concurrent acked writes: newer may win" (Audit.check_key a 1 (Audit.Version 2) = None);
  (* register 2: an MPUT slot; an unacked write may survive whole *)
  Audit.sent a 2 0;
  Audit.acked a 2 0;
  Audit.sent a 2 1;
  Audit.refused_write a 2 1;
  let slot v = List.init 4 (fun _ -> Audit.Version v) in
  check "slot at acked version passes" (Audit.check_slot a 2 (slot 0) = None);
  check "unacked slot write surviving whole passes" (Audit.check_slot a 2 (slot 1) = None);
  check "torn MPUT is flagged"
    (Audit.check_slot a 2 [ Audit.Version 0; Audit.Version 1; Audit.Version 1; Audit.Version 1 ]
    <> None);
  check "slot with a lost key is flagged"
    (Audit.check_slot a 2 [ Audit.Version 0; Audit.Absent; Audit.Version 0; Audit.Version 0 ]
    <> None);
  if !failures > 0 then exit 1
