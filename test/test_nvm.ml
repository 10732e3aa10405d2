(* Simulated persistent-memory device tests: persistence semantics, crash
   behaviour, adversarial evictions, traffic accounting. *)

module Mem = Dudetm_nvm.Mem
module Nvm = Dudetm_nvm.Nvm
module Pmem_config = Dudetm_nvm.Pmem_config
module Rng = Dudetm_sim.Rng

let check = Alcotest.check

let device ?(charge_time = false) ?(size = 4096) () =
  Nvm.create ~charge_time Pmem_config.default ~size

let test_store_load () =
  let d = device () in
  Nvm.store_u64 d 0 42L;
  Nvm.store_u64 d 1024 7L;
  check Alcotest.int64 "load sees latest" 42L (Nvm.load_u64 d 0);
  check Alcotest.int64 "load sees latest elsewhere" 7L (Nvm.load_u64 d 1024)

let test_unpersisted_lost_on_crash () =
  let d = device () in
  Nvm.store_u64 d 0 42L;
  Nvm.crash d;
  check Alcotest.int64 "unflushed store is lost" 0L (Nvm.load_u64 d 0)

let test_persisted_survives_crash () =
  let d = device () in
  Nvm.store_u64 d 0 42L;
  Nvm.persist d ~off:0 ~len:8;
  Nvm.store_u64 d 8 99L (* dirty again, not persisted *);
  Nvm.crash d;
  check Alcotest.int64 "persisted store survives" 42L (Nvm.load_u64 d 0);
  check Alcotest.int64 "later unflushed store is lost" 0L (Nvm.load_u64 d 8)

let test_persist_is_range_scoped () =
  let d = device () in
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 2048 2L;
  Nvm.persist d ~off:0 ~len:8;
  Nvm.crash d;
  check Alcotest.int64 "in-range persisted" 1L (Nvm.load_u64 d 0);
  check Alcotest.int64 "out-of-range lost" 0L (Nvm.load_u64 d 2048)

let test_line_granularity () =
  (* Persisting one byte of a line flushes the whole line's content. *)
  let d = device () in
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 8 2L;
  Nvm.persist d ~off:0 ~len:1;
  Nvm.crash d;
  check Alcotest.int64 "same-line neighbour flushed too" 2L (Nvm.load_u64 d 8)

let test_eviction_leaks_dirty_lines () =
  let d = device ~size:65536 () in
  for i = 0 to 99 do
    Nvm.store_u64 d (i * 64) (Int64.of_int i)
  done;
  let rng = Rng.create 5 in
  Nvm.crash ~evict_fraction:1.0 ~rng d;
  (* With fraction 1.0 every dirty line survives the crash. *)
  for i = 0 to 99 do
    check Alcotest.int64 "leaked line content" (Int64.of_int i) (Nvm.load_u64 d (i * 64))
  done

let test_eviction_fraction_zero () =
  let d = device ~size:65536 () in
  for i = 0 to 99 do
    Nvm.store_u64 d (i * 64) 5L
  done;
  Nvm.crash ~evict_fraction:0.0 ~rng:(Rng.create 1) d;
  for i = 0 to 99 do
    check Alcotest.int64 "nothing leaks at fraction 0" 0L (Nvm.load_u64 d (i * 64))
  done

let test_write_bytes_accounting () =
  let d = device () in
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 8 2L;
  Nvm.persist d ~off:0 ~len:16;
  (* Byte-level accounting: 16 payload bytes, not a whole 64-byte line. *)
  check Alcotest.int "persisted payload bytes" 16 (Nvm.persisted_write_bytes d);
  check Alcotest.int "one persist ordering" 1 (Nvm.persist_ops d)

let test_store_bytes_roundtrip () =
  let d = device () in
  let b = Bytes.of_string "hello persistent world" in
  Nvm.store_bytes d 100 b;
  check Alcotest.bytes "load_bytes roundtrip" b (Nvm.load_bytes d 100 (Bytes.length b));
  Nvm.persist d ~off:100 ~len:(Bytes.length b);
  check Alcotest.bytes "persisted image matches" b (Nvm.persisted_bytes d 100 (Bytes.length b))

let test_persist_ranges_single_ordering () =
  let d = device ~size:65536 () in
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 4096 2L;
  Nvm.store_u64 d 8192 3L;
  Nvm.persist_ranges d [ (0, 8); (4096, 8); (8192, 8) ];
  check Alcotest.int "one ordering for the batch" 1 (Nvm.persist_ops d);
  Nvm.crash d;
  check Alcotest.int64 "batch all persisted (1)" 1L (Nvm.load_u64 d 0);
  check Alcotest.int64 "batch all persisted (2)" 2L (Nvm.load_u64 d 4096);
  check Alcotest.int64 "batch all persisted (3)" 3L (Nvm.load_u64 d 8192)

let test_double_crash_idempotent () =
  let d = device () in
  Nvm.store_u64 d 0 9L;
  Nvm.persist d ~off:0 ~len:8;
  Nvm.crash d;
  Nvm.crash d;
  check Alcotest.int64 "state stable across repeated crashes" 9L (Nvm.load_u64 d 0)

let test_dirty_lines_tracking () =
  let d = device () in
  check Alcotest.int "clean initially" 0 (Nvm.dirty_lines d);
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 8 1L (* same line *);
  Nvm.store_u64 d 64 1L;
  check Alcotest.int "two dirty lines" 2 (Nvm.dirty_lines d);
  Nvm.persist d ~off:0 ~len:(Nvm.size d);
  check Alcotest.int "clean after a whole-device persist" 0 (Nvm.dirty_lines d)

(* ---------------------------- media faults ---------------------------- *)

let test_bit_rot () =
  let d = device () in
  Nvm.store_u64 d 0 0L;
  Nvm.persist d ~off:0 ~len:8;
  Nvm.inject_fault d (Nvm.Bit_rot { off = 0; bit = 3 });
  check Alcotest.int64 "persisted bit flipped" 8L (Nvm.persisted_u64 d 0);
  check Alcotest.int64 "clean cached line mirrors the media" 8L (Nvm.load_u64 d 0)

let test_bit_rot_shadowed_by_dirty_line () =
  let d = device () in
  Nvm.store_u64 d 0 5L (* line dirty: the cache shadows the media *);
  Nvm.inject_fault d (Nvm.Bit_rot { off = 0; bit = 0 });
  check Alcotest.int64 "dirty line shadows media rot" 5L (Nvm.load_u64 d 0);
  Nvm.persist d ~off:0 ~len:8;
  check Alcotest.int64 "writeback overwrites the rotten byte" 5L (Nvm.persisted_u64 d 0)

let test_poison_raises_and_rewrite_repairs () =
  let d = device () in
  Nvm.store_u64 d 0 7L;
  Nvm.persist d ~off:0 ~len:8;
  Nvm.crash d (* every line clean: loads reach the media *);
  Nvm.inject_fault d (Nvm.Poison { line = 0 });
  check Alcotest.bool "is_poisoned" true (Nvm.is_poisoned d ~line:0);
  Alcotest.check_raises "clean-line load raises" (Nvm.Media_error 0) (fun () ->
      ignore (Nvm.load_u64 d 0));
  Alcotest.check_raises "persisted read raises" (Nvm.Media_error 0) (fun () ->
      ignore (Nvm.persisted_u64 d 0));
  (* Rewriting fresh data over the line clears the poison. *)
  Nvm.store_u64 d 0 9L;
  Nvm.persist d ~off:0 ~len:8;
  check Alcotest.bool "flush clears poison" false (Nvm.is_poisoned d ~line:0);
  check Alcotest.int64 "fresh data readable" 9L (Nvm.load_u64 d 0)

let test_poison_survives_crash () =
  let d = device () in
  Nvm.inject_fault d (Nvm.Poison { line = 2 });
  Nvm.crash d;
  check Alcotest.bool "poison survives crash" true (Nvm.is_poisoned d ~line:2);
  check Alcotest.(list int) "poisoned_lines" [ 2 ] (Nvm.poisoned_lines d)

let test_stuck_line_drops_writes () =
  let d = device () in
  Nvm.store_u64 d 64 1L;
  Nvm.persist d ~off:64 ~len:8;
  Nvm.inject_fault d (Nvm.Stuck_line { line = 1 });
  Nvm.store_u64 d 64 2L;
  Nvm.persist d ~off:64 ~len:8;
  check Alcotest.int64 "writeback dropped by stuck line" 1L (Nvm.persisted_u64 d 64);
  check Alcotest.int64 "cached copy reverts on flush (read-after-writeback)" 1L
    (Nvm.load_u64 d 64);
  Nvm.crash d;
  check Alcotest.bool "stuck survives crash" true (Nvm.is_stuck d ~line:1);
  check Alcotest.(list int) "stuck_lines" [ 1 ] (Nvm.stuck_lines d)

(* Which lines survive an evicting crash depends on the dirty set and the
   seed, not on the order the lines turned dirty. *)
let test_eviction_order_independent () =
  let survivors order =
    let d = device ~size:(1 lsl 20) () in
    List.iter (fun i -> Nvm.store_u64 d ((i * 7 mod 16384) * 64) 1L) order;
    Nvm.crash ~evict_fraction:0.5 ~rng:(Rng.create 7) d;
    Nvm.last_crash_survivors d
  in
  let up = List.init 10_000 Fun.id in
  let s = survivors up in
  check Alcotest.bool "some lines survive, some do not" true
    (s <> [] && List.length s < 10_000);
  check Alcotest.(list int) "same survivors either way" s (survivors (List.rev up))

let test_crash_survivors_recorded () =
  let d = device ~size:65536 () in
  Nvm.store_u64 d 0 1L;
  Nvm.store_u64 d 640 2L;
  Nvm.crash ~evict_fraction:1.0 ~rng:(Rng.create 3) d;
  check Alcotest.(list int) "every dirty line recorded as survivor" [ 0; 10 ]
    (Nvm.last_crash_survivors d);
  Nvm.store_u64 d 128 3L;
  Nvm.crash d;
  check Alcotest.(list int) "fraction-0 crash leaks nothing" [] (Nvm.last_crash_survivors d)

let test_mem_alignment () =
  let m = Mem.create 64 in
  Alcotest.check_raises "unaligned u64 access rejected"
    (Invalid_argument "Mem: unaligned 64-bit access at 0x3") (fun () ->
      ignore (Mem.get_u64 m 3))

(* The in-place readers read what the allocating ones do, over a device
   whose latest and persisted images differ. *)
let prop_into_matches_bytes =
  QCheck2.Test.make ~name:"nvm: load_into/persisted_into equal load_bytes/persisted_bytes"
    ~count:200
    QCheck2.Gen.(
      tup3
        (list_size (int_range 1 30) (tup3 (int_range 0 4000) (string_size (int_range 1 90)) bool))
        (int_range 0 4096) (int_range 0 600))
    (fun (ops, off, len) ->
      let d = device () in
      List.iter
        (fun (at, s, do_persist) ->
          let at = min at (4096 - String.length s) in
          Nvm.store_bytes d at (Bytes.of_string s);
          if do_persist then Nvm.persist d ~off:at ~len:(String.length s))
        ops;
      let len = min len (4096 - off) in
      let latest = Bytes.make len '?' and persisted = Bytes.make len '?' in
      Nvm.load_into d off latest;
      Nvm.persisted_into d off persisted;
      Bytes.equal latest (Nvm.load_bytes d off len)
      && Bytes.equal persisted (Nvm.persisted_bytes d off len))

(* A load is served from the cache for a dirty line, so only a poisoned
   clean line fails it; a persisted read goes to the media and fails on any
   poisoned line.  A failed read leaves the buffer untouched. *)
let test_into_poison_rules () =
  let d = device () in
  let ls = Nvm.line_size d in
  Nvm.inject_fault d (Nvm.Poison { line = 1 });
  Nvm.inject_fault d (Nvm.Poison { line = 3 });
  Nvm.store_u64 d (3 * ls) 5L (* line 3 dirty, line 1 clean *);
  let buf = Bytes.make (2 * ls) '?' in
  let untouched () =
    check Alcotest.string "buffer untouched" (String.make (2 * ls) '?') (Bytes.to_string buf)
  in
  Alcotest.check_raises "load_into: poisoned clean line raises" (Nvm.Media_error ls) (fun () ->
      Nvm.load_into d 0 buf);
  untouched ();
  Alcotest.check_raises "load_bytes agrees" (Nvm.Media_error ls) (fun () ->
      ignore (Nvm.load_bytes d 0 (2 * ls)));
  Nvm.load_into d (3 * ls) buf;
  check Alcotest.int64 "load_into: poisoned dirty line served from cache" 5L
    (Bytes.get_int64_le buf 0);
  check Alcotest.bool "load_bytes agrees" true
    (Bytes.equal buf (Nvm.load_bytes d (3 * ls) (2 * ls)));
  Bytes.fill buf 0 (2 * ls) '?';
  Alcotest.check_raises "persisted_into: poisoned dirty line raises" (Nvm.Media_error (3 * ls))
    (fun () -> Nvm.persisted_into d (3 * ls) buf);
  untouched ();
  Alcotest.check_raises "persisted_into: poisoned clean line raises" (Nvm.Media_error ls)
    (fun () -> Nvm.persisted_into d ls buf);
  Alcotest.check_raises "persisted_bytes agrees" (Nvm.Media_error (3 * ls)) (fun () ->
      ignore (Nvm.persisted_bytes d (3 * ls) (2 * ls)))

let prop_persist_crash_prefix =
  (* Any interleaving of stores/persists followed by a crash leaves the
     persisted image equal to replaying only the persisted prefix. *)
  QCheck2.Test.make ~name:"nvm: crash preserves exactly the persisted stores" ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (tup3 (int_range 0 63) (int_range 0 1000) bool))
    (fun ops ->
      let d = device ~size:4096 () in
      let model = Array.make 64 0L in
      let dirty_model = Array.make 64 0L in
      List.iter
        (fun (word, v, do_persist) ->
          let v = Int64.of_int v in
          Nvm.store_u64 d (word * 8) v;
          dirty_model.(word) <- v;
          if do_persist then begin
            (* Persisting a word flushes its whole 64-byte line: words
               word/8*8 .. word/8*8+7. *)
            Nvm.persist d ~off:(word * 8) ~len:8;
            let base = word / 8 * 8 in
            for w = base to base + 7 do
              model.(w) <- dirty_model.(w)
            done
          end)
        ops;
      Nvm.crash d;
      Array.for_all
        (fun w -> Nvm.load_u64 d (w * 8) = model.(w))
        (Array.init 64 (fun i -> i)))

(* Reference copy of the device as it was before the flat count table and
   the pre-image slots: two full images, [latest] and [persisted], and a
   [Hashtbl] from line to a ref of its dirty byte count.  Its crash draws
   each dirty line's survival in ascending line order, the device's
   contract. *)
module Ref_dirty = struct
  type t = {
    ls : int;
    latest : Bytes.t;
    persisted : Bytes.t;
    dirty : (int, int ref) Hashtbl.t;
    poisoned : (int, unit) Hashtbl.t;
    stuck : (int, unit) Hashtbl.t;
    mutable write_bytes : int;
    mutable survivors : int list;
  }

  let create ~size ~ls =
    {
      ls;
      latest = Bytes.make size '\000';
      persisted = Bytes.make size '\000';
      dirty = Hashtbl.create 4096;
      poisoned = Hashtbl.create 8;
      stuck = Hashtbl.create 8;
      write_bytes = 0;
      survivors = [];
    }

  let store t off b =
    Bytes.blit b 0 t.latest off (Bytes.length b);
    let len = Bytes.length b in
    if len > 0 then
      for l = off / t.ls to (off + len - 1) / t.ls do
        let lo = max off (l * t.ls) and hi = min (off + len) ((l + 1) * t.ls) in
        match Hashtbl.find_opt t.dirty l with
        | Some c -> c := min t.ls (!c + hi - lo)
        | None -> Hashtbl.add t.dirty l (ref (hi - lo))
      done

  let flush_line t l =
    let payload = match Hashtbl.find_opt t.dirty l with Some c -> !c | None -> 0 in
    if Hashtbl.mem t.stuck l then Bytes.blit t.persisted (l * t.ls) t.latest (l * t.ls) t.ls
    else begin
      Bytes.blit t.latest (l * t.ls) t.persisted (l * t.ls) t.ls;
      Hashtbl.remove t.poisoned l
    end;
    Hashtbl.remove t.dirty l;
    t.write_bytes <- t.write_bytes + payload

  let persist t ~off ~len =
    if len > 0 then
      for l = off / t.ls to (off + len - 1) / t.ls do
        if Hashtbl.mem t.dirty l then flush_line t l
      done

  let crash t ~evict_fraction ~rng =
    if evict_fraction > 0.0 then begin
      let dirty = List.sort compare (Hashtbl.fold (fun l _ acc -> l :: acc) t.dirty []) in
      let survivors = List.filter (fun _ -> Rng.float rng < evict_fraction) dirty in
      List.iter (flush_line t) survivors;
      t.survivors <- survivors
    end
    else t.survivors <- [];
    Hashtbl.reset t.dirty;
    Bytes.blit t.persisted 0 t.latest 0 (Bytes.length t.latest)

  let bit_rot t ~off ~bit =
    let flip b = Bytes.set_uint8 b off (Bytes.get_uint8 b off lxor (1 lsl (bit land 7))) in
    flip t.persisted;
    if not (Hashtbl.mem t.dirty (off / t.ls)) then flip t.latest

  (* A load of [\[off, off + len)] reaches the media on a clean line. *)
  let load_fails t off len =
    let rec go l =
      l <= (off + len - 1) / t.ls
      && ((Hashtbl.mem t.poisoned l && not (Hashtbl.mem t.dirty l)) || go (l + 1))
    in
    go (off / t.ls)

  (* A persisted read of [\[off, off + len)] reaches the media on every line. *)
  let persisted_fails t off len =
    let rec go l = l <= (off + len - 1) / t.ls && (Hashtbl.mem t.poisoned l || go (l + 1)) in
    len > 0 && go (off / t.ls)
end

type nvm_op =
  | Store_u64 of int * int
  | Store_bytes of int * string
  | Store_span of int * int
  | Persist of int * int
  | Persist_ranges of (int * int) list
  | Crash of float * int
  | Load of int
  | Bit_rot of int * int
  | Stuck of int

(* The device against the two-image reference over random op sequences:
   after every op the same write bytes, dirty-line count and crash
   survivors, and the same [persisted_u64] and [persisted_into] reads (or
   media errors) at a probe word and range; the same loads and poisoned-
   load verdicts; and at the end the same persisted content on every line
   and, on every clean line, an image equal to it.  Bit rot and stuck
   lines hit dirty and clean lines alike.  Spans of up to 2048 lines dirty
   thousands of the device's 16384 lines, so a crash draws over long runs
   of dirty lines between long clean ones. *)
let prop_dirty_table_matches_reference =
  let size = 1 lsl 20 in
  let range = QCheck2.Gen.(pair (int_range 0 (size - 1)) (int_range 0 (1 lsl 16))) in
  let probe = QCheck2.Gen.(pair (int_range 0 ((size / 8) - 1)) range) in
  let op =
    QCheck2.Gen.(
      frequency
        [
          (6, map2 (fun w v -> Store_u64 (w, v)) (int_range 0 ((size / 8) - 1)) nat);
          ( 4,
            map2
              (fun o s -> Store_bytes (o, s))
              (int_range 0 (size - 1))
              (string_size (int_range 0 200)) );
          ( 2,
            map2
              (fun o n -> Store_span (o, n))
              (int_range 0 (size - 1))
              (int_range 1 (1 lsl 17)) );
          (2, map (fun (o, l) -> Persist (o, l)) range);
          (1, map (fun rs -> Persist_ranges rs) (list_size (int_range 0 4) range));
          (1, map2 (fun f seed -> Crash (f, seed)) (oneofl [ 0.0; 0.3; 0.7; 1.0 ]) nat);
          (2, map (fun o -> Load o) (int_range 0 ((size / 8) - 1)));
          (2, map2 (fun o b -> Bit_rot (o, b)) (int_range 0 (size - 1)) (int_range 0 7));
          (1, map (fun l -> Stuck l) (int_range 0 ((size / 64) - 1)));
        ])
  in
  QCheck2.Test.make ~name:"nvm: flat dirty table matches the reference table" ~count:100
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 4) (int_range 0 ((size / 64) - 1)))
        (list_size (int_range 1 120) (pair op probe)))
    (fun (poison, ops) ->
      let d = device ~size () in
      let ls = Nvm.line_size d in
      let r = Ref_dirty.create ~size ~ls in
      List.iter
        (fun l ->
          Nvm.inject_fault d (Nvm.Poison { line = l });
          Hashtbl.replace r.Ref_dirty.poisoned l ())
        poison;
      let clip off len = (off, min len (size - off)) in
      let persisted_read what off len read expect =
        match read () with
        | v ->
          if Ref_dirty.persisted_fails r off len then
            QCheck2.Test.fail_reportf "%s at %d: read, reference media error" what off;
          if v <> expect () then QCheck2.Test.fail_reportf "%s at %d differs" what off
        | exception Nvm.Media_error _ ->
          if not (Ref_dirty.persisted_fails r off len) then
            QCheck2.Test.fail_reportf "%s at %d: media error, reference none" what off
      in
      let agree what (w, (off, len)) =
        let off, len = clip off len in
        persisted_read "persisted_u64" (w * 8) 8
          (fun () -> Nvm.persisted_u64 d (w * 8))
          (fun () -> Bytes.get_int64_le r.Ref_dirty.persisted (w * 8));
        persisted_read "persisted_into" off len
          (fun () ->
            let b = Bytes.create len in
            Nvm.persisted_into d off b;
            b)
          (fun () -> Bytes.sub r.Ref_dirty.persisted off len);
        if Nvm.persisted_write_bytes d <> r.Ref_dirty.write_bytes then
          QCheck2.Test.fail_reportf "%s: write bytes %d, reference %d" what
            (Nvm.persisted_write_bytes d) r.Ref_dirty.write_bytes;
        if Nvm.dirty_lines d <> Hashtbl.length r.Ref_dirty.dirty then
          QCheck2.Test.fail_reportf "%s: %d dirty lines, reference %d" what (Nvm.dirty_lines d)
            (Hashtbl.length r.Ref_dirty.dirty)
      in
      List.iter
        (fun (op, probe) ->
          let agree what = agree what probe in
          match op with
          | Store_u64 (w, v) ->
            Nvm.store_u64 d (w * 8) (Int64.of_int v);
            let b = Bytes.create 8 in
            Bytes.set_int64_le b 0 (Int64.of_int v);
            Ref_dirty.store r (w * 8) b;
            agree "store_u64"
          | Store_bytes (off, s) ->
            let off = min off (size - String.length s) in
            Nvm.store_bytes d off (Bytes.of_string s);
            Ref_dirty.store r off (Bytes.of_string s);
            agree "store_bytes"
          | Store_span (off, n) ->
            let n = min n (size - off) in
            let b = Bytes.make n (Char.chr (n land 0xff)) in
            Nvm.store_bytes d off b;
            Ref_dirty.store r off b;
            agree "store span"
          | Persist (off, len) ->
            let off, len = clip off len in
            Nvm.persist d ~off ~len;
            Ref_dirty.persist r ~off ~len;
            agree "persist"
          | Persist_ranges rs ->
            let rs = List.map (fun (o, l) -> clip o l) rs in
            Nvm.persist_ranges d rs;
            List.iter (fun (off, len) -> Ref_dirty.persist r ~off ~len) rs;
            agree "persist_ranges"
          | Crash (evict_fraction, seed) ->
            Nvm.crash ~evict_fraction ~rng:(Rng.create seed) d;
            Ref_dirty.crash r ~evict_fraction ~rng:(Rng.create seed);
            agree "crash";
            if Nvm.last_crash_survivors d <> r.Ref_dirty.survivors then
              QCheck2.Test.fail_reportf "crash survivors differ from the reference"
          | Load w ->
            let fails =
              match Nvm.load_u64 d (w * 8) with
              | v ->
                if v <> Bytes.get_int64_le r.Ref_dirty.latest (w * 8) then
                  QCheck2.Test.fail_reportf "load at %d differs" (w * 8);
                false
              | exception Nvm.Media_error _ -> true
            in
            if fails <> Ref_dirty.load_fails r (w * 8) 8 then
              QCheck2.Test.fail_reportf "load at %d: media error %b, reference %b" (w * 8) fails
                (not fails);
            agree "load"
          | Bit_rot (off, bit) ->
            Nvm.inject_fault d (Nvm.Bit_rot { off; bit });
            Ref_dirty.bit_rot r ~off ~bit;
            agree "bit rot"
          | Stuck l ->
            Nvm.inject_fault d (Nvm.Stuck_line { line = l });
            Hashtbl.replace r.Ref_dirty.stuck l ();
            agree "stuck line")
        ops;
      let expected_poison =
        List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) r.Ref_dirty.poisoned [])
      in
      Nvm.poisoned_lines d = expected_poison
      && List.for_all
           (fun l ->
             List.mem l expected_poison
             ||
             let persisted = Bytes.sub r.Ref_dirty.persisted (l * ls) ls
             and image = Nvm.load_bytes d (l * ls) ls in
             Bytes.equal (Nvm.persisted_bytes d (l * ls) ls) persisted
             && Bytes.equal image (Bytes.sub r.Ref_dirty.latest (l * ls) ls)
             && (Hashtbl.mem r.Ref_dirty.dirty l || Bytes.equal image persisted))
           (List.init (size / ls) Fun.id))

(* A device keeps one full image: a fresh 1 MiB device, with its dirty
   counts, dirty table and pre-image slots, stays under 1.1 images. *)
let test_one_image () =
  let size = 1 lsl 20 in
  let words = Obj.reachable_words (Obj.repr (device ~size ())) in
  let image = size / (Sys.word_size / 8) in
  if float_of_int words >= 1.1 *. float_of_int image then
    Alcotest.failf "a fresh device holds %d words, %.3f images" words
      (float_of_int words /. float_of_int image)

let suite =
  [
    Alcotest.test_case "store/load" `Quick test_store_load;
    Alcotest.test_case "unpersisted data lost on crash" `Quick test_unpersisted_lost_on_crash;
    Alcotest.test_case "persisted data survives crash" `Quick test_persisted_survives_crash;
    Alcotest.test_case "persist is range-scoped" `Quick test_persist_is_range_scoped;
    Alcotest.test_case "flushes are line-granular" `Quick test_line_granularity;
    Alcotest.test_case "adversarial eviction leaks dirty lines" `Quick test_eviction_leaks_dirty_lines;
    Alcotest.test_case "eviction fraction 0 leaks nothing" `Quick test_eviction_fraction_zero;
    Alcotest.test_case "write-byte accounting" `Quick test_write_bytes_accounting;
    Alcotest.test_case "store_bytes roundtrip" `Quick test_store_bytes_roundtrip;
    Alcotest.test_case "persist_ranges is one ordering" `Quick test_persist_ranges_single_ordering;
    Alcotest.test_case "double crash idempotent" `Quick test_double_crash_idempotent;
    Alcotest.test_case "dirty line tracking" `Quick test_dirty_lines_tracking;
    Alcotest.test_case "bit rot flips persisted data" `Quick test_bit_rot;
    Alcotest.test_case "bit rot shadowed by dirty line" `Quick
      test_bit_rot_shadowed_by_dirty_line;
    Alcotest.test_case "poison raises; rewrite repairs" `Quick
      test_poison_raises_and_rewrite_repairs;
    Alcotest.test_case "poison survives crash" `Quick test_poison_survives_crash;
    Alcotest.test_case "stuck line drops writes" `Quick test_stuck_line_drops_writes;
    Alcotest.test_case "crash survivors recorded" `Quick test_crash_survivors_recorded;
    Alcotest.test_case "eviction draws ignore the dirtying order" `Quick
      test_eviction_order_independent;
    Alcotest.test_case "unaligned access rejected" `Quick test_mem_alignment;
    QCheck_alcotest.to_alcotest prop_persist_crash_prefix;
    QCheck_alcotest.to_alcotest prop_into_matches_bytes;
    QCheck_alcotest.to_alcotest prop_dirty_table_matches_reference;
    Alcotest.test_case "in-place readers keep the poison rules" `Quick test_into_poison_rules;
    Alcotest.test_case "a device keeps one image" `Quick test_one_image;
  ]
