(* Seeded request streams for the serving benchmark.

   The keyspace is fixed per workload and preloaded before timing:
   [plain_keys] single keys plus [slots] MPUT slots of four keys each.
   Every write carries a value that is a pure function of (key,
   version), so the post-crash audit can tell an acked value from a
   stale, mangled or never-attempted one without asking the server.

   A write target is a "register": register [r < plain_keys] is plain
   key [r]; register [plain_keys + s] is MPUT slot [s], whose four keys
   are always written together with one version. *)

type cls = Get | Put | Mput | Scan

let cls_name = function Get -> "get" | Put -> "put" | Mput -> "mput" | Scan -> "scan"
let all_cls = [ Get; Put; Mput; Scan ]

type spec = {
  name : string;
  deck : (cls * int) list;
      (* cards per class in one shuffled deck: every run of
         [deck_size] consecutive requests holds the exact mix *)
  theta : float;  (* zipf skew of GET/PUT keys; 0. = uniform *)
  window : int;  (* requests in flight per connection *)
  plain_keys : int;
  slots : int;
}

let specs =
  [
    {
      name = "put_deep";
      deck = [ (Put, 1) ];
      theta = 0.;
      window = 32;
      plain_keys = 2048;
      slots = 0;
    };
    {
      name = "get_zipf";
      deck = [ (Get, 19); (Put, 1) ];
      theta = 0.99;
      window = 32;
      plain_keys = 2048;
      slots = 0;
    };
    {
      name = "xshard_mix";
      deck = [ (Get, 8); (Put, 7); (Mput, 3); (Scan, 2) ];
      theta = 0.;
      window = 4;
      plain_keys = 2048;
      slots = 128;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs
let connections = 2
let scan_max = 16
let slot_width = 4

(* 16-byte keys. *)
let plain_key i = Printf.sprintf "k%015d" i

(* Scan prefix of a plain-key group: the ten keys sharing all but the
   last digit. *)
let group_prefix i = String.sub (plain_key i) 0 15
let slot_prefix s = Printf.sprintf "m%012d/" s

(* The four keys of slot [s]: the first candidate suffixes whose keys
   route to at least two shards under [shard_of], so every MPUT to a
   slot is a cross-shard two-phase commit. *)
let slot_keys ~shard_of s =
  let key j = Printf.sprintf "%s%02d" (slot_prefix s) j in
  let rec pick j =
    let ks = List.init slot_width (fun i -> key (j + i)) in
    match List.sort_uniq compare (List.map shard_of ks) with
    | [ _ ] -> pick (j + 1)
    | _ -> ks
  in
  pick 0

(* 64-byte value: key, version, then filler that also depends on both,
   so a value copied to the wrong key or a torn line never parses. *)
let value_len = 64

let value key v =
  let head = Printf.sprintf "%s:%010d:" key v in
  let h = Hashtbl.hash (key, v) in
  String.init value_len (fun i ->
      if i < String.length head then head.[i]
      else Char.chr (97 + ((h lsr (i mod 24)) + i) mod 26))

(* [Some v] iff [s] is exactly [value key v]. *)
let version_of key s =
  let kl = String.length key in
  if String.length s <> value_len then None
  else if String.sub s 0 kl <> key then None
  else
    match int_of_string_opt (String.sub s (kl + 1) 10) with
    | Some v when v >= 0 && value key v = s -> Some v
    | _ -> None

type op =
  | Get_op of int  (* plain key *)
  | Put_op of int * int  (* plain key, version *)
  | Mput_op of int * int  (* slot, version *)
  | Scan_op of string  (* prefix *)

let cls_of = function
  | Get_op _ -> Get
  | Put_op _ -> Put
  | Mput_op _ -> Mput
  | Scan_op _ -> Scan

(* Zipfian sampler over ranks [0, n): the CDF of 1/(rank+1)^theta,
   searched by bisection. *)
let zipf_cdf n theta =
  let w = Array.init n (fun i -> 1. /. (float (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let zipf_draw cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

type gen = {
  spec : spec;
  rng : Random.State.t;
  deck : cls array;
  mutable dealt : int;
  cdf : float array option;
  rank_to_key : int array;  (* hot ranks scattered over the keyspace *)
  next_version : int array;  (* per register; version 0 is the preload *)
}

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let registers spec = spec.plain_keys + spec.slots

let create (spec : spec) ~seed =
  let rng = Random.State.make [| 0x5e4e; seed |] in
  let deck =
    Array.of_list (List.concat_map (fun (c, n) -> List.init n (fun _ -> c)) spec.deck)
  in
  let rank_to_key = Array.init spec.plain_keys Fun.id in
  shuffle rng rank_to_key;
  {
    spec;
    rng;
    deck;
    dealt = Array.length deck;
    cdf = (if spec.theta > 0. then Some (zipf_cdf spec.plain_keys spec.theta) else None);
    rank_to_key;
    next_version = Array.make (registers spec) 1;
  }

let draw_key g =
  match g.cdf with
  | None -> Random.State.int g.rng g.spec.plain_keys
  | Some cdf -> g.rank_to_key.(zipf_draw cdf (Random.State.float g.rng 1.))

let bump g r =
  let v = g.next_version.(r) in
  g.next_version.(r) <- v + 1;
  v

let next g =
  if g.dealt = Array.length g.deck then begin
    shuffle g.rng g.deck;
    g.dealt <- 0
  end;
  let c = g.deck.(g.dealt) in
  g.dealt <- g.dealt + 1;
  match c with
  | Get -> Get_op (draw_key g)
  | Put ->
      let k = draw_key g in
      Put_op (k, bump g k)
  | Mput ->
      let s = Random.State.int g.rng g.spec.slots in
      Mput_op (s, bump g (g.spec.plain_keys + s))
  | Scan ->
      if g.spec.slots > 0 && Random.State.bool g.rng then
        Scan_op (slot_prefix (Random.State.int g.rng g.spec.slots))
      else Scan_op (group_prefix (Random.State.int g.rng g.spec.plain_keys))

(* Keys of every register, in register order: the preload and audit
   target list. *)
type keyspace = { plain : string array; slot : string list array }

let keyspace spec ~shard_of =
  {
    plain = Array.init spec.plain_keys plain_key;
    slot = Array.init spec.slots (slot_keys ~shard_of);
  }

let to_req ks = function
  | Get_op k -> Serve.Protocol.Get ks.plain.(k)
  | Put_op (k, v) ->
      let key = ks.plain.(k) in
      Serve.Protocol.Put (key, value key v)
  | Mput_op (s, v) -> Serve.Protocol.Mput (List.map (fun k -> (k, value k v)) ks.slot.(s))
  | Scan_op prefix -> Serve.Protocol.Scan { prefix; max = scan_max }

(* Every (key, version-0 value) pair, register order. *)
let preload_pairs ks =
  Array.to_list (Array.map (fun k -> (k, value k 0)) ks.plain)
  @ List.concat_map (List.map (fun k -> (k, value k 0))) (Array.to_list ks.slot)
