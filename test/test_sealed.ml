(* Sealed NVM records: the image codec and the twin-slot writer, their
   fallbacks under torn writes and media faults, and the byte length every
   caller's record keeps (its persist cost). *)

module Nvm = Dudetm_nvm.Nvm
module Pmem_config = Dudetm_nvm.Pmem_config
module Rng = Dudetm_sim.Rng
module Sealed = Dudetm_log.Sealed
module Twin = Sealed.Twin
module Image = Sealed.Image
module Plog = Dudetm_log.Plog
module Config = Dudetm_core.Config
module Checkpoint = Dudetm_core.Checkpoint
module Rjournal = Dudetm_core.Rjournal
module Badline = Dudetm_core.Badline
module Handoff = Dudetm_shard.Handoff
module Partition = Dudetm_workloads.Partition

let check = Alcotest.check

let words = Alcotest.(option (array int64))

let device () = Nvm.create ~charge_time:false Pmem_config.default ~size:65536

let slot_size = 128

let attach_words nvm = Option.map snd (Twin.attach nvm ~base:0 ~slot_size)

exception Cut

(* A power cut at every persist boundary of one [Twin.write] (and after
   it), by the writer that wrote the old record or by one re-attached,
   with a random share of the dirty lines leaking: attach returns the old
   words or the new ones, never anything else — in particular never the
   record before the old one, which a write into the wrong slot would
   expose. *)
let prop_twin_cut_anywhere =
  let gen_words = QCheck.(array_of_size Gen.(0 -- Twin.max_words ~slot_size) int64) in
  QCheck.Test.make ~count:100 ~name:"twin: a cut inside a write keeps old or new"
    QCheck.(quad gen_words gen_words (pair (1 -- 3) bool) (0 -- 1000))
    (fun (old_w, new_w, (writes, reattach), seed) ->
      let life cut =
        let nvm = device () in
        let t = Twin.format nvm ~base:0 ~slot_size [| 0x5eedL; 0x5eedL |] in
        for _ = 1 to writes do
          Twin.write t old_w
        done;
        let t = if reattach then fst (Option.get (Twin.attach nvm ~base:0 ~slot_size)) else t in
        let sites = ref 0 in
        Nvm.set_persist_hook nvm
          (Some
             (fun () ->
               incr sites;
               if Some !sites = cut then raise Cut));
        (try Twin.write t new_w with Cut -> ());
        Nvm.set_persist_hook nvm None;
        Nvm.crash ~evict_fraction:0.5 ~rng:(Rng.create seed) nvm;
        (!sites, attach_words nvm)
      in
      let boundaries, whole = life None in
      whole = Some new_w
      && List.for_all
           (fun k ->
             let r = snd (life (Some k)) in
             r = Some old_w || r = Some new_w)
           (List.init boundaries (fun k -> k + 1)))

let rot nvm off = Nvm.inject_fault nvm (Nvm.Bit_rot { off; bit = 3 })

let test_damaged_slot_falls_back () =
  let damage name f =
    let nvm = device () in
    let t = Twin.format nvm ~base:0 ~slot_size [| 1L |] in
    Twin.write t [| 2L; 3L |];
    Twin.write t [| 4L; 5L; 6L |];
    (* seq 3 landed in slot 1; damage it *)
    f nvm;
    check words (name ^ ": falls back to the twin") (Some [| 2L; 3L |]) (attach_words nvm);
    check Alcotest.bool (name ^ ": scrub reports it") true
      (Twin.scrub ~repair:false nvm ~base:0 ~slot_size = `Degraded)
  in
  damage "bit rot" (fun nvm -> rot nvm (slot_size + 30));
  damage "poison" (fun nvm -> Nvm.inject_fault nvm (Nvm.Poison { line = slot_size / 64 }));
  damage "rotted length" (fun nvm ->
      Nvm.inject_fault nvm (Nvm.Bit_rot { off = slot_size + 15; bit = 6 }))

let test_scrub_repairs_from_survivor () =
  let nvm = device () in
  let t = Twin.format nvm ~base:0 ~slot_size [| 1L |] in
  Twin.write t [| 7L |];
  rot nvm 8;
  check Alcotest.bool "one slot repaired" true (Twin.scrub nvm ~base:0 ~slot_size = `Repaired);
  check Alcotest.bool "both slots valid again" true (Twin.scrub nvm ~base:0 ~slot_size = `Ok);
  check words "the survivor is still newest" (Some [| 1L |]) (attach_words nvm)

let test_both_slots_invalid () =
  let nvm = device () in
  ignore (Twin.format nvm ~base:0 ~slot_size [| 1L |]);
  rot nvm 8;
  rot nvm (slot_size + 8);
  check words "twin: none" None (attach_words nvm);
  check Alcotest.bool "twin: scrub fatal" true (Twin.scrub nvm ~base:0 ~slot_size = `Fatal);
  (* Checkpoint: no checkpoint means no recoverable instance. *)
  let nvm = device () in
  ignore
    (Checkpoint.format nvm ~base:0 ~size:8192
       { Checkpoint.reproduced_upto = 3; cross_frontier = 0; free_extents = [] });
  rot nvm 8;
  rot nvm (4096 + 8);
  Alcotest.check_raises "checkpoint raises"
    (Invalid_argument "Checkpoint.attach: no valid checkpoint")
    (fun () -> ignore (Checkpoint.attach nvm ~base:0 ~size:8192));
  (* Rjournal: no intent can have been sealed, so it self-heals to Idle. *)
  let nvm = device () in
  let j = Rjournal.format nvm ~base:0 in
  Rjournal.write j (Rjournal.Probe { line = 5; original = 9L });
  rot nvm 8;
  rot nvm (slot_size + 8);
  check Alcotest.bool "rjournal heals to idle" true
    (Rjournal.read (Rjournal.attach nvm ~base:0) = Rjournal.Idle);
  check Alcotest.bool "rjournal healed on the device" true
    (Twin.scrub ~repair:false nvm ~base:0 ~slot_size = `Ok);
  (* Handoff: a lost handoff record heals to Idle; the descriptor stays. *)
  let nvm = device () in
  let part = Partition.hashed ~nshards:4 in
  let h = Handoff.format nvm ~base:0 ~part ~epoch:5 in
  Handoff.seal_handoff h
    (Some ({ Handoff.src = 1; dst = 2; blo = 0; bhi = 4; epoch = 6 }, Handoff.Copy));
  rot nvm 8;
  rot nvm (slot_size + 8);
  let h = Handoff.attach nvm ~base:0 ~nshards:4 in
  check Alcotest.bool "handoff heals to idle" true (Handoff.state h = None);
  check Alcotest.int "descriptor epoch kept" 5 (Handoff.epoch h)

(* Each record's on-device byte length, pinned per caller: on a device
   filled with 0xAA, the written extent ends at the record's crc word,
   whose top byte is 0x00 or 0xFF (a sign-extended CRC-32). *)
let extent nvm ~off ~max =
  let b = Nvm.persisted_bytes nvm off max in
  let rec last i = if i < 0 || Bytes.get b i <> '\xAA' then i + 1 else last (i - 1) in
  last (max - 1)

let filled () =
  let nvm = device () in
  Nvm.store_bytes nvm 0 (Bytes.make 65536 '\xAA');
  Nvm.persist nvm ~off:0 ~len:(Nvm.size nvm);
  nvm

let test_record_lengths () =
  let nvm = filled () in
  ignore (Plog.format nvm ~base:0 ~size:4096);
  check Alcotest.int "plog header" 32 (extent nvm ~off:0 ~max:Plog.header_size);
  List.iter
    (fun n ->
      let nvm = filled () in
      let free_extents = List.init n (fun i -> (i * 64, 8)) in
      ignore
        (Checkpoint.format nvm ~base:0 ~size:8192
           { Checkpoint.reproduced_upto = 1; cross_frontier = 2; free_extents });
      check Alcotest.int (Printf.sprintf "checkpoint, %d extents" n) (40 + (16 * n))
        (extent nvm ~off:0 ~max:4096))
    [ 0; 1; 5 ];
  let journal intent k =
    let nvm = filled () in
    let j = Rjournal.format nvm ~base:0 in
    check Alcotest.int "rjournal idle" 32 (extent nvm ~off:0 ~max:slot_size);
    Rjournal.write j intent;
    check Alcotest.int (Printf.sprintf "rjournal, %d fields" k) (32 + (8 * k))
      (extent nvm ~off:0 ~max:slot_size)
  in
  journal (Rjournal.Probe { line = 1; original = 2L }) 2;
  journal
    (Rjournal.Replay
       {
         Rjournal.durable = 1;
         replayed_txs = 1;
         discarded_txs = 0;
         discarded_records = 0;
         corrupted_records = 0;
         quarantined_lines = 0;
       })
    6;
  let nvm = filled () in
  let part = Partition.hashed ~nshards:4 in
  let h = Handoff.format nvm ~base:0 ~part ~epoch:1 in
  check Alcotest.int "handoff idle" 32 (extent nvm ~off:0 ~max:slot_size);
  check Alcotest.int "descriptor" (32 + (8 * (1 + Partition.sealed_words part)))
    (extent nvm ~off:(2 * slot_size) ~max:slot_size);
  Handoff.seal_handoff h
    (Some ({ Handoff.src = 0; dst = 1; blo = 0; bhi = 1; epoch = 2 }, Handoff.Flip));
  check Alcotest.int "handoff plan" (32 + (8 * 5)) (extent nvm ~off:0 ~max:slot_size);
  let cfg =
    {
      Config.default with
      Config.heap_size = 1 lsl 16;
      nthreads = 1;
      plog_size = 1 lsl 13;
      meta_size = 8192;
    }
  in
  let nvm = Nvm.create ~charge_time:false Pmem_config.default ~size:(Config.nvm_size cfg) in
  let base = Config.badline_base cfg in
  Nvm.store_bytes nvm base (Bytes.make (Config.badline_size cfg) '\xAA');
  Nvm.persist nvm ~off:0 ~len:(Nvm.size nvm);
  ignore (Badline.format nvm cfg);
  check Alcotest.int "badline table" ((3 + Config.badline_capacity) * 8)
    (extent nvm ~off:base ~max:(Config.badline_size cfg))

(* The image codec reads the cache by default and the media on request:
   a rewrite not yet persisted shows in the one and not the other. *)
let test_image_readers () =
  let nvm = device () in
  let b = Bytes.create 24 in
  Bytes.set_int64_le b 0 1L;
  Bytes.set_int64_le b 8 2L;
  Image.write nvm ~off:64 b;
  Nvm.store_u64 nvm 64 9L;
  check words "cache read sees the unsealed store" None (Image.read nvm ~off:64 ~words:2);
  check words "media read sees the sealed image" (Some [| 1L; 2L |])
    (Image.read ~persisted:true nvm ~off:64 ~words:2)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_twin_cut_anywhere;
    Alcotest.test_case "twin: damaged slot falls back" `Quick test_damaged_slot_falls_back;
    Alcotest.test_case "twin: scrub repairs from survivor" `Quick test_scrub_repairs_from_survivor;
    Alcotest.test_case "both slots invalid" `Quick test_both_slots_invalid;
    Alcotest.test_case "record byte lengths" `Quick test_record_lengths;
    Alcotest.test_case "image: cache and media readers" `Quick test_image_readers;
  ]
