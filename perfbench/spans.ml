(* Benchmark-side spans around calls into each layer's public functions,
   recorded only while [on] (the traced run).  A span's self time is its
   duration minus the time its child spans cover on the same fiber.  Each
   span is mirrored into [Trace] under category "bench", so
   [Trace.validate] checks that they nest. *)

module Sched = Dudetm_sim.Sched
module Trace = Dudetm_trace.Trace

type frame = { name : string; start : int; mutable covered : int }

let on = ref false

let stacks : (int, frame list) Hashtbl.t = Hashtbl.create 64

let selfs : (string, int) Hashtbl.t = Hashtbl.create 16

let enable b =
  on := b;
  if b then begin
    Hashtbl.reset stacks;
    Hashtbl.reset selfs
  end

let enter name =
  if !on then begin
    let id = Sched.self () in
    let st = Option.value (Hashtbl.find_opt stacks id) ~default:[] in
    Hashtbl.replace stacks id ({ name; start = Sched.now (); covered = 0 } :: st);
    Trace.span_begin ~cat:"bench" name
  end

let leave () =
  if !on then
    match Hashtbl.find_opt stacks (Sched.self ()) with
    | Some (f :: rest) ->
      let d = Sched.now () - f.start in
      let prev = Option.value (Hashtbl.find_opt selfs f.name) ~default:0 in
      Hashtbl.replace selfs f.name (prev + d - f.covered);
      (match rest with p :: _ -> p.covered <- p.covered + d | [] -> ());
      Hashtbl.replace stacks (Sched.self ()) rest;
      Trace.span_end ~cat:"bench" f.name
    | _ -> invalid_arg "Spans.leave: no open span on this fiber"

let wrap name f =
  enter name;
  match f () with
  | v ->
    leave ();
    v
  | exception e ->
    leave ();
    raise e

(* Total self cycles of the spans named "<layer>.*". *)
let self_cycles layer =
  let prefix = layer ^ "." in
  let n = String.length prefix in
  Hashtbl.fold
    (fun name c acc ->
      if String.length name > n && String.sub name 0 n = prefix then acc + c else acc)
    selfs 0
