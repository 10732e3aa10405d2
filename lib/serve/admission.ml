(* Hysteresis admission gate.  Trips to Shedding when queue depth crosses
   the high threshold or the engine reports ring pressure; reopens only
   once depth has fallen to the low threshold AND pressure has cleared.
   The gap between the thresholds is the flap guard: a depth oscillating
   inside (untrip, trip) never changes state. *)

exception Invalid_admission of string

type state = Open | Shedding

type t = {
  trip : int;
  untrip : int;
  mutable state : state;
  mutable trips : int;
  mutable untrips : int;
}

let create ~trip ~untrip =
  if trip < 1 then raise (Invalid_admission "Admission: trip < 1");
  if untrip < 0 || untrip >= trip then
    raise (Invalid_admission "Admission: need 0 <= untrip < trip");
  { trip; untrip; state = Open; trips = 0; untrips = 0 }

let observe t ~depth ~pressure =
  (match t.state with
  | Open ->
    if depth >= t.trip || pressure then begin
      t.state <- Shedding;
      t.trips <- t.trips + 1
    end
  | Shedding ->
    if depth <= t.untrip && not pressure then begin
      t.state <- Open;
      t.untrips <- t.untrips + 1
    end);
  t.state

let state t = t.state

let trips t = t.trips

let untrips t = t.untrips
