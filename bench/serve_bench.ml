(* Serving front end: latency vs offered load, to the knee and past it.

   For 1 and 8 shards: a closed-loop calibration leg (think 0) measures
   the service capacity C, then an open-loop (Poisson) sweep offers
   fractions of C from well below the knee to 1.5x past it.  Offered
   load — not thread count — is the independent variable, which is what
   an arrival process independent of service time buys: past the knee
   the queue grows and the admission gate sheds instead of letting
   latency run away unboundedly.

   Gates (per shard count):
   - p99 SLO at the target load (0.5 x C): nothing shed, and write p99
     within 10x the light-load (0.3 x C) write p99 — the pipeline must
     hold its latency profile at the load it is provisioned for;
   - the curve reaches the knee: at least one sweep point sheds >= 1% of
     submitted requests with a typed Overloaded reply (otherwise the
     sweep never actually stressed admission control).

   Records, per point, throughput, shed counts, gate transitions,
   percentiles and the full log2 latency histograms as ledger rows. *)

open Dudetm_harness.Harness
module SL = Dudetm_serve.Serve_load
module Stats = Dudetm_sim.Stats
module L = Ledger

let ntenants = 4

(* Sessions per tenant scale with the shard count: a wider engine drains
   the request queue proportionally faster, so reaching the shedding
   knee needs proportionally more concurrent arrival streams (each
   session's in-flight window bounds how far it can overrun). *)
let sessions_for nshards = 2 * max 2 nshards

let fractions = [ 0.3; 0.5; 0.7; 0.85; 1.0; 1.2; 1.5 ]

let target_fraction = 0.5

let slo_multiple = 10.0

let knee_shed_fraction = 0.01

let p r q = Stats.Latency.percentile r q

type point = { pt_frac : float; pt : SL.result }

let submitted r = r.SL.r_done + r.SL.r_shed + r.SL.r_aborted

let shed_frac r =
  if submitted r = 0 then 0.0
  else float_of_int r.SL.r_shed /. float_of_int (submitted r)

let run_points ~nshards ~reqs =
  let sessions = sessions_for nshards in
  (* Capacity: closed loop, zero think — every session always has one
     request outstanding, so goodput is the service rate at this
     concurrency. *)
  let cal =
    SL.run ~seed:11 ~nshards ~ntenants ~sessions ~reqs
      ~mode:(SL.Closed { think = 0 })
      ()
  in
  let capacity = cal.SL.r_achieved_ktps in
  Printf.printf "%d shard%s: closed-loop capacity %s (%d sessions)\n" nshards
    (if nshards = 1 then "" else "s")
    (pp_ktps capacity) (ntenants * sessions);
  let points =
    List.map
      (fun frac ->
        let r =
          SL.run ~seed:11 ~nshards ~ntenants ~sessions ~reqs
            ~mode:(SL.Open { ktps = capacity *. frac })
            ()
        in
        { pt_frac = frac; pt = r })
      fractions
  in
  Printf.printf "  %-10s %12s %12s %8s %7s %10s %10s %6s\n" "offered" "rate"
    "goodput" "shed" "shed%" "p99 write" "p99 read" "gate";
  List.iter
    (fun { pt_frac; pt = r } ->
      Printf.printf "  %-10s %12s %12s %8d %6.2f%% %10d %10d %6d\n"
        (Printf.sprintf "%.2fxC" pt_frac)
        (pp_ktps r.SL.r_offered_ktps)
        (pp_ktps r.SL.r_achieved_ktps)
        r.SL.r_shed
        (100.0 *. shed_frac r)
        (p r.SL.r_lat_write 99.0) (p r.SL.r_lat_read 99.0) r.SL.r_gate_trips)
    points;
  (capacity, points)

let record_point led ~nshards { pt_frac; pt = r } =
  let scenario = Printf.sprintf "serve/n=%d/%.2fxC" nshards pt_frac in
  L.add led ~scenario ~layer:"bench"
    [
      ("offered_ktps", "ktps", L.Float r.SL.r_offered_ktps);
      ("achieved_ktps", "ktps", L.Float r.SL.r_achieved_ktps);
      ("shed_frac", "frac", L.Float (shed_frac r));
    ];
  (* Percentiles, then the sparse log2 histogram keyed by bucket floor. *)
  let latency kind lat =
    L.ints "cycles" (List.map (fun q -> (Printf.sprintf "%s_p%g" kind q, p lat q)) [ 50.0; 95.0; 99.0 ])
    @ L.ints "count"
        (List.map
           (fun (b, c) -> (Printf.sprintf "%s_hist[%d]" kind (1 lsl b), c))
           (Stats.Latency.log2_histogram lat))
  in
  L.add led ~scenario ~layer:"serve"
    (L.ints "count"
       [
         ("done", r.SL.r_done); ("shed", r.SL.r_shed); ("aborted", r.SL.r_aborted);
         ("blocked", r.SL.r_blocked); ("gate_trips", r.SL.r_gate_trips);
         ("gate_untrips", r.SL.r_gate_untrips); ("queue_depth_hwm", r.SL.r_depth_hwm);
       ]
    @ latency "write" r.SL.r_lat_write
    @ latency "read" r.SL.r_lat_read)

let run ?(scale = 1.0) led =
  let reqs = max 60 (int_of_float (300.0 *. scale)) in
  section
    (Printf.sprintf
       "Serving front end: latency vs offered load, %d tenants, sessions scaled \
        with shard count, open-loop sweep to 1.5x capacity"
       ntenants);
  L.add led ~scenario:"serve" ~layer:"param"
    (L.ints "count" [ ("tenants", ntenants); ("reqs_per_session", reqs) ]);
  List.iter
    (fun nshards ->
      let capacity, points = run_points ~nshards ~reqs in
      let find frac =
        List.find (fun pp -> Float.abs (pp.pt_frac -. frac) < 1e-9) points
      in
      let base = (find 0.3).pt and target = (find target_fraction).pt in
      let base_p99 = p base.SL.r_lat_write 99.0 in
      let target_p99 = p target.SL.r_lat_write 99.0 in
      let scenario = Printf.sprintf "serve/n=%d" nshards in
      let slo_ratio = float_of_int target_p99 /. float_of_int (max 1 base_p99) in
      let max_shed = List.fold_left (fun m pp -> max m (shed_frac pp.pt)) 0.0 points in
      L.add led ~scenario ~layer:"bench"
        [
          ("capacity_ktps", "ktps", L.Float capacity);
          ("sessions_per_tenant", "count", L.Int (sessions_for nshards));
          ("target_write_p99_over_light", "x", L.Float slo_ratio);
          ("max_shed_frac", "frac", L.Float max_shed);
        ];
      List.iter (record_point led ~nshards) points;
      L.gate led
        ~scenario:(Printf.sprintf "%s/%.2fxC" scenario target_fraction)
        ~layer:"serve" "shed" (L.Exactly 0.0);
      L.gate led ~scenario ~layer:"bench" "target_write_p99_over_light"
        (L.At_most slo_multiple);
      L.gate led ~scenario ~layer:"bench" "max_shed_frac" (L.At_least knee_shed_fraction);
      match List.find_opt (fun pp -> shed_frac pp.pt >= knee_shed_fraction) points with
      | Some knee ->
        Printf.printf
          "  knee: shedding >= %.0f%% from %.2fxC on; target %.1fxC p99 %d within SLO %d\n"
          (100.0 *. knee_shed_fraction) knee.pt_frac target_fraction target_p99
          (int_of_float (slo_multiple *. float_of_int (max 1 base_p99)))
      | None -> ())
    [ 1; 8 ]

let tiny () =
  ignore
    (SL.run ~seed:11 ~nshards:1 ~ntenants:2 ~sessions:2 ~reqs:40
       ~mode:(SL.Closed { think = 200 })
       ())
