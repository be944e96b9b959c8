(* In-memory span log written out as Chrome-trace JSON at the end of a
   traced run.  Client spans carry the wire RID in [args.rid], the same
   key the server's own [--trace] export uses, so the two files join on
   it.  Timestamps are absolute Unix-epoch microseconds. *)

type t = {
  mutable n : int;
  mutable name : string array;
  mutable tid : int array;
  mutable rid : int array;
  mutable t0 : float array;
  mutable t1 : float array;
}

let create () = { n = 0; name = [||]; tid = [||]; rid = [||]; t0 = [||]; t1 = [||] }

let grow a fill n =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add t ~name ~tid ~rid ~t0 ~t1 =
  if t.n = Array.length t.t0 then begin
    let m = max 1024 (2 * t.n) in
    t.name <- grow t.name "" m;
    t.tid <- grow t.tid 0 m;
    t.rid <- grow t.rid 0 m;
    t.t0 <- grow t.t0 0. m;
    t.t1 <- grow t.t1 0. m
  end;
  let i = t.n in
  t.name.(i) <- name;
  t.tid.(i) <- tid;
  t.rid.(i) <- rid;
  t.t0.(i) <- t0;
  t.t1.(i) <- t1;
  t.n <- i + 1

let length t = t.n

let write t path =
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then output_char oc ',';
    Printf.fprintf oc
      "\n{\"name\":%S,\"cat\":\"servebench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"rid\":%d}}"
      t.name.(i) (t.t0.(i) *. 1e6)
      ((t.t1.(i) -. t.t0.(i)) *. 1e6)
      t.tid.(i) t.rid.(i)
  done;
  output_string oc "\n]}\n";
  close_out oc
