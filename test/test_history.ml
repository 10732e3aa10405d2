(* The durable-history oracle (lib/check/history.ml) on hand-built
   histories: one rejected image per violation class the crash campaigns
   must report, accepted images for valid cuts (one holding a durable but
   unreturned attempt), rebasing, and a property: the replay of any valid
   vector cut of a random history is accepted, and a value no cut
   produces is not. *)

module History = Dudetm_check.History

(* [n] counter-family commits on stream 0: commit i writes i to the root
   (address 0) and to slot 8 + 8 (i mod 8), acknowledged once watermark 0
   reaches i; [acked] is that watermark. *)
let counter_writes i =
  let v = Int64.of_int i in
  [ ((0, 8 + (8 * (i mod 8))), v); ((0, 0), v) ]

let counter ?(acked = 0) n =
  let h = History.create () in
  for i = 1 to n do
    History.attempt h ~worker:0 ~ack:(History.At (0, i)) ~pos:(fun _ -> i) (counter_writes i);
    History.commit h ~worker:0 ()
  done;
  History.observe h 0 acked;
  h

(* The image after the first [k] counter commits. *)
let counter_image k = List.concat_map counter_writes (List.init k succ)

(* Pair writers: commit v on stream [p] writes v to both slots 8 and 16. *)
let pair_writes p v = [ ((p, 8), v); ((p, 16), v) ]

let pairs n =
  let h = History.create () in
  for v = 1 to n do
    History.attempt h ~worker:0 ~pos:(fun _ -> v) (pair_writes 0 (Int64.of_int v));
    History.commit h ~worker:0 ()
  done;
  h

(* Later writes to a location win, as in a replay. *)
let read_of image loc =
  List.fold_left (fun v (l, x) -> if l = loc then x else v) 0L image

let verdict h image = snd (History.check h ~read:(read_of image))

let rejected name h image =
  match verdict h image with
  | Some _ -> ()
  | None -> Alcotest.failf "%s: image accepted" name

let accepted name h image =
  match verdict h image with
  | None -> ()
  | Some reason -> Alcotest.failf "%s: image rejected: %s" name reason

let test_violations () =
  rejected "non-prefix slot" (counter 3) (counter_image 3 @ [ ((0, 16), 0L) ]);
  rejected "acked lost" (counter ~acked:2 3) (counter_image 1);
  rejected "phantom beyond committed" (counter 3) (counter_image 3 @ counter_writes 4);
  rejected "torn pair" (pairs 2) [ ((0, 8), 2L); ((0, 16), 1L) ];
  (let h = History.create () in
   History.attempt h ~worker:0 ~pos:(fun _ -> 1) [ ((0, 8), 5L); ((1, 8), 5L) ];
   History.commit h ~worker:0 ();
   rejected "partial cross-shard transfer" h [ ((0, 8), 5L) ]);
  (let h = pairs 2 in
   History.read h ~epoch:7 ~durable:false [ ((0, 8), 2L); ((0, 16), 1L) ];
   rejected "torn snapshot read-set" h (pair_writes 0 2L));
  let h = pairs 2 in
  History.read h ~epoch:7 ~durable:true (pair_writes 0 2L);
  rejected "lost durable-mode read" h (pair_writes 0 1L)

let test_valid_cuts () =
  accepted "acked prefix" (counter ~acked:2 3) (counter_image 2);
  accepted "everything" (counter ~acked:2 3) (counter_image 3);
  accepted "nothing durable" (counter 3) [];
  let h = counter 2 in
  (* Worker 1's third commit is durable but never returned. *)
  History.attempt h ~worker:1 ~pos:(fun _ -> 3) (counter_writes 3);
  accepted "durable unreturned attempt" h (counter_image 3);
  accepted "unreturned attempt lost" h (counter_image 2);
  let cut, _ = History.check h ~read:(read_of (counter_image 3)) in
  Alcotest.(check int) "cut read off the image" 3 (History.position cut 0);
  let h = pairs 2 in
  History.read h ~epoch:3 ~durable:false (pair_writes 0 2L);
  History.read h ~epoch:1 ~durable:true (pair_writes 0 1L);
  accepted "reads inside the recovered cut" h (pair_writes 0 1L)

(* Rebasing on a recovered cut acknowledges it: a later cut may not lose
   it, and commits past the old cut are void. *)
let test_truncate () =
  let h = counter 3 in
  let cut, _ = History.check h ~read:(read_of (counter_image 2)) in
  History.truncate h cut;
  rejected "rebased prefix lost" h (counter_image 1);
  rejected "void commit replayed" h (counter_image 3);
  accepted "rebased prefix kept" h (counter_image 2)

(* A random history over three streams: each transaction writes one to
   three of four addresses on one stream, or on two streams as a
   cross-stream transaction, with values unique per history; a random
   subset is acknowledged. *)
let prop_cuts =
  QCheck2.Test.make ~name:"history: every valid vector cut accepted, a foreign value rejected"
    ~count:300 QCheck2.Gen.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let h = History.create () and next = Array.make 3 0 and stamp = ref 0 in
      let txs =
        List.init
          (1 + Random.State.int rng 12)
          (fun _ ->
            let s = Random.State.int rng 3 in
            let streams = if Random.State.bool rng then [ s ] else [ s; (s + 1) mod 3 ] in
            let writes =
              List.concat_map
                (fun s ->
                  List.init
                    (1 + Random.State.int rng 3)
                    (fun _ ->
                      incr stamp;
                      ((s, Random.State.int rng 4), Int64.of_int !stamp)))
                streams
            in
            let pos = List.map (fun s -> next.(s) <- next.(s) + 1; (s, next.(s))) streams in
            let acked = Random.State.int rng 4 = 0 in
            History.attempt h ~worker:0 ~pos:(fun s -> List.assoc s pos) writes;
            History.commit h ~worker:0 ~ack:(if acked then History.Acked else History.Never) ();
            (pos, writes, acked))
      in
      (* A random cut above the acknowledged ones, closed over siblings. *)
      let cut = Array.map (fun n -> Random.State.int rng (n + 1)) next in
      List.iter
        (fun (pos, _, acked) ->
          if acked then List.iter (fun (s, p) -> cut.(s) <- max cut.(s) p) pos)
        txs;
      let rec close () =
        let grown = ref false in
        List.iter
          (fun (pos, _, _) ->
            if List.exists (fun (s, p) -> p <= cut.(s)) pos then
              List.iter
                (fun (s, p) ->
                  if p > cut.(s) then begin
                    cut.(s) <- p;
                    grown := true
                  end)
                pos)
          txs;
        if !grown then close ()
      in
      close ();
      let image =
        List.concat_map
          (fun (pos, writes, _) ->
            if List.for_all (fun (s, p) -> p <= cut.(s)) pos then writes else [])
          txs
      in
      (match verdict h image with
      | None -> ()
      | Some reason -> QCheck2.Test.fail_reportf "valid cut rejected: %s" reason);
      let written = List.concat_map (fun (_, w, _) -> w) txs in
      let loc, _ = List.nth written (Random.State.int rng (List.length written)) in
      match verdict h (image @ [ (loc, -1L) ]) with
      | Some _ -> true
      | None -> QCheck2.Test.fail_report "a value no cut produces was accepted")

let suite =
  [
    Alcotest.test_case "every violation class rejected" `Quick test_violations;
    Alcotest.test_case "valid cuts accepted, in-flight attempt included" `Quick test_valid_cuts;
    Alcotest.test_case "truncate rebases on the recovered cut" `Quick test_truncate;
    QCheck_alcotest.to_alcotest prop_cuts;
  ]
