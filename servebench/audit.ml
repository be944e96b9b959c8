(* Acked-write audit after a simulated power failure.

   Every write targets a register (a plain key or a four-key MPUT slot)
   with a fresh version.  The driver logs each version's send, ack or
   refusal against one event counter; after CRASH + recovery the final
   value of each register is checked:

   - it must be a well-formed value of that key (else mangled);
   - its version must have been attempted (else phantom);
   - an MPUT slot's four keys must hold one version (else torn);
   - it must not predate an acked write: if the surviving version was
     acked before the latest acked write to the register was even sent,
     that acked write was lost.

   Unacked writes (refused, or never answered) may survive — they must
   then carry exactly the value attempted, which the first two rules
   check. *)

let unanswered = max_int
let refused = -1

type t = {
  mutable clock : int;
  send : int array ref array;  (* per register, per version *)
  ack : int array ref array;
  latest_acked_send : int array;  (* per register; -1 = none *)
}

let create nreg =
  {
    clock = 0;
    send = Array.init nreg (fun _ -> ref [||]);
    ack = Array.init nreg (fun _ -> ref [||]);
    latest_acked_send = Array.make nreg (-1);
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let slot cells v fill =
  let a = !cells in
  if v >= Array.length a then begin
    let b = Array.make (max (v + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    cells := b
  end

let sent t r v =
  slot t.send.(r) v (-1);
  slot t.ack.(r) v unanswered;
  !(t.send.(r)).(v) <- tick t;
  !(t.ack.(r)).(v) <- unanswered

let acked t r v =
  let now = tick t in
  !(t.ack.(r)).(v) <- now;
  let s = !(t.send.(r)).(v) in
  if s > t.latest_acked_send.(r) then t.latest_acked_send.(r) <- s

let refused_write t r v = !(t.ack.(r)).(v) <- refused

(* What recovery left in one key. *)
type seen = Absent | Mangled | Version of int

let attempted t r v = v >= 0 && v < Array.length !(t.send.(r)) && !(t.send.(r)).(v) >= 0

let check_version t r v =
  if not (attempted t r v) then Some (Printf.sprintf "register %d: version %d never attempted" r v)
  else
    let a = !(t.ack.(r)).(v) in
    if a <> unanswered && a <> refused && a < t.latest_acked_send.(r) then
      Some
        (Printf.sprintf "register %d: acked write lost (holds version %d, acked before a later acked write was sent)" r v)
    else None

(* Violation in a plain key, if any. *)
let check_key t r = function
  | Absent -> Some (Printf.sprintf "register %d: acked write lost (key absent)" r)
  | Mangled -> Some (Printf.sprintf "register %d: mangled value" r)
  | Version v -> check_version t r v

(* Violation in an MPUT slot given what each of its keys holds. *)
let check_slot t r seen =
  match List.find_opt (function Version _ -> false | Absent | Mangled -> true) seen with
  | Some s -> check_key t r s
  | None -> (
      match List.sort_uniq compare seen with
      | [ Version v ] -> check_version t r v
      | _ -> Some (Printf.sprintf "register %d: torn MPUT (keys hold different versions)" r))
