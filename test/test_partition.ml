(* Keyspace partitioner tests: determinism, balance, range edges, and
   stability of shard assignment across a crash + re-attach (the
   descriptor persisted in a shard's root block survives and decodes to
   the identical mapping).  One contiguous slice per shard is
   [identity]: equal-width buckets owned [0, 1, ..., n-1]. *)

module Sched = Dudetm_sim.Sched
module Nvm = Dudetm_nvm.Nvm
module Config = Dudetm_core.Config
module Partition = Dudetm_workloads.Partition
module Sh = Dudetm_shard.Shard.Make (Dudetm_tm.Tinystm)
module Checksum = Dudetm_log.Checksum

let check = Alcotest.check

let sample_keys = List.init 512 (fun i -> Int64.of_int ((i * 7919) + 13))

let identity ~nshards ~lo ~hi =
  Partition.buckets ~nshards ~lo ~hi ~owners:(Array.init nshards Fun.id)

(* The retired range scheme's placement, kept as the reference [identity]
   must reproduce: [n] equal-width slices of [lo, hi), one per shard, in
   unsigned 64-bit arithmetic, with keys outside the range clamped to the
   edge slices. *)
let range_ref ~lo ~hi ~n key =
  if Int64.compare key lo <= 0 then 0
  else if Int64.compare key hi >= 0 then n - 1
  else begin
    let w = Int64.unsigned_div (Int64.sub hi lo) (Int64.of_int n) in
    let w = if w = 0L then 1L else w in
    let idx = Int64.unsigned_div (Int64.sub key lo) w in
    if Int64.unsigned_compare idx (Int64.of_int (n - 1)) >= 0 then n - 1 else Int64.to_int idx
  end

let test_hash_deterministic_and_balanced () =
  let p = Partition.hashed ~nshards:8 in
  let counts = Array.make 8 0 in
  List.iter
    (fun k ->
      let s = Partition.shard_of p k in
      check Alcotest.int "stable on repeat" s (Partition.shard_of p k);
      Alcotest.(check bool) "in range" true (s >= 0 && s < 8);
      counts.(s) <- counts.(s) + 1)
    sample_keys;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d gets a fair share" i)
        true
        (c > 512 / 8 / 4))
    counts

let test_range_edges () =
  let p = identity ~nshards:4 ~lo:0L ~hi:400L in
  check Alcotest.int "lo maps to first" 0 (Partition.shard_of p 0L);
  check Alcotest.int "below lo clamps" 0 (Partition.shard_of p (-5L));
  check Alcotest.int "hi clamps to last" 3 (Partition.shard_of p 400L);
  check Alcotest.int "above hi clamps" 3 (Partition.shard_of p 999L);
  check Alcotest.int "first quarter" 0 (Partition.shard_of p 99L);
  check Alcotest.int "second quarter" 1 (Partition.shard_of p 100L);
  check Alcotest.int "last quarter" 3 (Partition.shard_of p 399L);
  (* monotone: range placement never decreases with the key *)
  let prev = ref 0 in
  for k = 0 to 400 do
    let s = Partition.shard_of p (Int64.of_int k) in
    Alcotest.(check bool) "monotone" true (s >= !prev);
    prev := s
  done

let test_descriptor_roundtrip () =
  List.iter
    (fun p ->
      let p' = Partition.decode (Partition.encode p) in
      List.iter
        (fun k ->
          check Alcotest.int "same assignment after decode" (Partition.shard_of p k)
            (Partition.shard_of p' k))
        sample_keys)
    [ Partition.hashed ~nshards:5; identity ~nshards:7 ~lo:(-100L) ~hi:10_000L ];
  (try
     ignore (Partition.decode [| 1L |]);
     Alcotest.fail "short descriptor should be rejected"
   with Invalid_argument _ -> ())

(* Persist the descriptor in shard 0's root block, crash without a drain,
   re-attach, decode — every sampled key must land on its original
   shard. *)
let test_stable_across_reattach () =
  let nshards = 4 in
  let cfg =
    {
      Config.default with
      Config.heap_size = 1 lsl 16;
      nthreads = 2;
      vlog_capacity = 256;
      plog_size = 1 lsl 13;
      meta_size = 8192;
      checkpoint_records = 2;
    }
  in
  let p = identity ~nshards ~lo:0L ~hi:1_000_000L in
  let before = List.map (Partition.shard_of p) sample_keys in
  let sh = Sh.create ~nshards cfg in
  ignore
    (Sched.run (fun () ->
         Sh.start sh;
         (match
            Sh.atomically sh ~thread:0 ~shards:[ 0 ] (fun tx ->
                Array.iteri
                  (fun i w -> Sh.write tx ~shard:0 (8 * i) w)
                  (Partition.encode p))
          with
         | Some (_, ack) -> Sh.wait_durable sh ack
         | None -> Alcotest.fail "descriptor write aborted");
         (* crash: no drain, no stop *)
         ()));
  Array.init nshards (Sh.nvm sh) |> Array.iter Nvm.crash;
  let sh2, _ = Sh.attach ~nshards cfg (Array.init nshards (Sh.nvm sh)) in
  let words =
    Array.init (Array.length (Partition.encode p)) (fun i ->
        Sh.Engine.heap_read_u64 (Sh.engine sh2 0) (8 * i))
  in
  let p' = Partition.decode words in
  let after = List.map (Partition.shard_of p') sample_keys in
  List.iter2 (fun b a -> check Alcotest.int "assignment survives re-attach" b a) before after

(* ----------------------- degenerate range shapes ------------------------- *)

let rejects name f =
  match f () with
  | _ -> Alcotest.failf "%s accepted" name
  | exception Invalid_argument _ -> ()

let test_degenerate_ranges () =
  (* Empty ranges and empty/bad owner tables are rejected eagerly. *)
  rejects "empty range" (fun () -> identity ~nshards:4 ~lo:10L ~hi:10L);
  rejects "inverted range" (fun () -> identity ~nshards:4 ~lo:10L ~hi:3L);
  rejects "empty bucket range" (fun () ->
      Partition.buckets ~nshards:4 ~lo:7L ~hi:7L ~owners:[| 0 |]);
  rejects "no buckets" (fun () ->
      Partition.buckets ~nshards:4 ~lo:0L ~hi:8L ~owners:[||]);
  rejects "owner out of range" (fun () ->
      Partition.buckets ~nshards:4 ~lo:0L ~hi:8L ~owners:[| 0; 4 |]);
  (* Single-key range: one key, everything clamps onto it. *)
  let single = Partition.buckets ~nshards:4 ~lo:7L ~hi:8L ~owners:[| 3 |] in
  check Alcotest.int "the single key maps to its owner" 3 (Partition.shard_of single 7L);
  check Alcotest.int "below the single key clamps" 3
    (Partition.shard_of single Int64.min_int);
  check Alcotest.int "above the single key clamps" 3
    (Partition.shard_of single Int64.max_int);
  check Alcotest.int "one bucket" 1 (Partition.nbuckets single);
  (* Full keyspace [min_int, max_int): the span wraps signed subtraction,
     so this exercises the unsigned width arithmetic. *)
  let full = identity ~nshards:4 ~lo:Int64.min_int ~hi:Int64.max_int in
  check Alcotest.int "min_int lands on the first shard" 0
    (Partition.shard_of full Int64.min_int);
  check Alcotest.int "max_int-1 lands on the last shard" 3
    (Partition.shard_of full (Int64.sub Int64.max_int 1L));
  check Alcotest.int "zero is the midpoint" 2 (Partition.shard_of full 0L);
  let samples =
    [ Int64.min_int; Int64.div Int64.min_int 2L; -1L; 0L; Int64.div Int64.max_int 2L;
      Int64.sub Int64.max_int 1L ]
  in
  let prev = ref 0 in
  List.iter
    (fun k ->
      let s = Partition.shard_of full k in
      Alcotest.(check bool) "full-keyspace placement is monotone" true (s >= !prev);
      prev := s)
    samples

(* --------------------- sealed bucket descriptors ------------------------- *)

let invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s accepted" name
  | exception Partition.Invalid_partition _ -> ()

let test_buckets_seal_unseal () =
  let p =
    Partition.buckets ~nshards:8 ~lo:0L ~hi:1024L ~owners:[| 0; 0; 1; 1; 2; 2; 3; 3 |]
  in
  let s = Partition.seal p in
  check Alcotest.int "sealed_words counts the CRC word" (Array.length s)
    (Partition.sealed_words p);
  let p' = Partition.unseal ~expect_nshards:8 s in
  check Alcotest.bool "owners survive the seal roundtrip" true
    (Partition.owners p = Partition.owners p');
  List.iter
    (fun k ->
      check Alcotest.int "same assignment after unseal" (Partition.shard_of p k)
        (Partition.shard_of p' k))
    sample_keys;
  invalid "CRC-corrupt descriptor" (fun () ->
      let c = Array.copy s in
      c.(1) <- Int64.logxor c.(1) 0x40L;
      Partition.unseal c);
  invalid "shard-count mismatch" (fun () -> Partition.unseal ~expect_nshards:4 s);
  invalid "short sealed descriptor" (fun () -> Partition.unseal (Array.sub s 0 2));
  invalid "truncated owner table" (fun () ->
      Partition.unseal (Array.sub s 0 (Array.length s - 1)))

(* A kind-1 (range) descriptor, sealed with a valid CRC, no longer routes:
   [decode] rejects it, and so does [unseal] before any mapping exists. *)
let test_range_descriptor_rejected () =
  let words = [| Int64.of_int ((4 lsl 2) lor 1); 0L; 400L |] in
  rejects "kind-1 descriptor" (fun () -> Partition.decode words);
  let b = Bytes.create 24 in
  Array.iteri (fun i w -> Bytes.set_int64_le b (8 * i) w) words;
  let sealed = Array.append words [| Int64.of_int32 (Int32.of_int (Checksum.crc32 b 0 24)) |] in
  invalid "sealed kind-1 descriptor" (fun () -> Partition.unseal ~expect_nshards:4 sealed)

(* Identity buckets place every key where the range scheme did, over any
   [lo < hi] (the full keyspace [min_int, max_int) included), any shard
   count, and keys inside the range, on its edges and clamped from
   outside it. *)
let prop_identity_matches_range =
  let open QCheck2.Gen in
  let edge = oneofl [ Int64.min_int; -1L; 0L; 1L; Int64.max_int ] in
  let bound = frequency [ (6, int64); (1, edge) ] in
  let range =
    frequency
      [
        (1, return (Int64.min_int, Int64.max_int));
        ( 6,
          map
            (fun (a, b) ->
              if Int64.compare a b < 0 then (a, b)
              else if Int64.compare b a < 0 then (b, a)
              else if a = Int64.max_int then (Int64.pred a, a)
              else (a, Int64.succ a))
            (pair bound bound) );
      ]
  in
  let key (lo, hi) =
    let span = Int64.sub hi lo in
    frequency
      [
        (4, map (fun x -> Int64.add lo (Int64.unsigned_rem x span)) int64);
        (2, int64);
        (1, oneofl [ lo; Int64.pred hi; hi; Int64.pred lo; Int64.succ hi ]);
        (1, edge);
      ]
  in
  QCheck2.Test.make ~name:"identity buckets place keys as the range scheme did" ~count:2000
    ~print:(fun (((lo, hi), n), k) -> Printf.sprintf "lo=%Ld hi=%Ld n=%d key=%Ld" lo hi n k)
    (range >>= fun r ->
     pair (pair (return r) (frequency [ (4, int_range 1 16); (1, int_range 17 512) ])) (key r))
    (fun (((lo, hi), n), k) ->
      let p = identity ~nshards:n ~lo ~hi in
      let expect = range_ref ~lo ~hi ~n k in
      Partition.shard_of p k = expect && Partition.bucket_of p k = expect)

(* -------------------- split, then merge, across re-attach ----------------- *)

(* Ownership edits persisted through the handoff journal's descriptor
   record: split a bucket off to another shard, power-cut, re-attach, then
   merge it back, power-cut, re-attach — the final mapping must be the
   original one, under a strictly newer epoch. *)
let test_split_merge_roundtrip_across_reattach () =
  let nshards = 4 in
  let cfg =
    {
      Config.default with
      Config.heap_size = 1 lsl 16;
      nthreads = 2;
      vlog_capacity = 256;
      plog_size = 1 lsl 13;
      meta_size = 8192;
      checkpoint_records = 2;
    }
  in
  let part0 =
    Partition.buckets ~nshards ~lo:0L ~hi:1024L ~owners:[| 0; 1; 2; 3 |]
  in
  let before = List.map (Partition.shard_of part0) sample_keys in
  let sh = Sh.create ~nshards cfg in
  let dev0 = Sh.nvm sh 0 in
  let base = Config.hjournal_base cfg in
  let module Handoff = Dudetm_shard.Handoff in
  let hj = Handoff.format dev0 ~base ~part:part0 ~epoch:1 in
  (* Split: bucket 1 moves from shard 1 to shard 3. *)
  Handoff.seal_descriptor hj (Partition.with_owner part0 ~blo:1 ~bhi:2 ~owner:3)
    ~epoch:2;
  Nvm.crash dev0;
  let hj2 = Handoff.attach dev0 ~base ~nshards in
  check Alcotest.int "split survives the re-attach" 3
    (Partition.owners (Handoff.partition hj2)).(1);
  check Alcotest.int "split epoch" 2 (Handoff.epoch hj2);
  (* Merge: hand the bucket back to shard 1. *)
  Handoff.seal_descriptor hj2
    (Partition.with_owner (Handoff.partition hj2) ~blo:1 ~bhi:2 ~owner:1)
    ~epoch:3;
  Nvm.crash dev0;
  let hj3 = Handoff.attach dev0 ~base ~nshards in
  check Alcotest.int "merge epoch is strictly newer" 3 (Handoff.epoch hj3);
  let after = List.map (Partition.shard_of (Handoff.partition hj3)) sample_keys in
  List.iter2
    (fun b a -> check Alcotest.int "split-then-merge restores the mapping" b a)
    before after

let suite =
  [
    Alcotest.test_case "hash determinism and balance" `Quick test_hash_deterministic_and_balanced;
    Alcotest.test_case "range edges and monotonicity" `Quick test_range_edges;
    Alcotest.test_case "descriptor roundtrip" `Quick test_descriptor_roundtrip;
    Alcotest.test_case "stable across re-attach" `Quick test_stable_across_reattach;
    Alcotest.test_case "degenerate ranges: empty, single-key, full keyspace" `Quick
      test_degenerate_ranges;
    Alcotest.test_case "sealed bucket descriptors: roundtrip and rejection" `Quick
      test_buckets_seal_unseal;
    Alcotest.test_case "split-then-merge roundtrip across re-attach" `Quick
      test_split_merge_roundtrip_across_reattach;
    Alcotest.test_case "range descriptors no longer decode" `Quick
      test_range_descriptor_rejected;
    QCheck_alcotest.to_alcotest prop_identity_matches_range;
  ]
