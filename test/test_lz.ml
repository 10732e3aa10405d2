(* LZ compressor tests: roundtrip, ratio behaviour, malformed input. *)

module Lz = Dudetm_log.Lz
module Log_entry = Dudetm_log.Log_entry

let check = Alcotest.check

let roundtrip b = Lz.decompress (Lz.compress b)

let test_empty () =
  check Alcotest.bytes "empty roundtrip" (Bytes.create 0) (roundtrip (Bytes.create 0))

let test_short () =
  let b = Bytes.of_string "abc" in
  check Alcotest.bytes "short input roundtrip" b (roundtrip b)

let test_repetitive_compresses () =
  let b = Bytes.of_string (String.concat "" (List.init 200 (fun _ -> "abcdefgh"))) in
  check Alcotest.bytes "repetitive roundtrip" b (roundtrip b);
  check Alcotest.bool "repetitive input shrinks a lot" true (Lz.ratio b > 0.9)

let test_incompressible () =
  let rng = Dudetm_sim.Rng.create 99 in
  let b = Bytes.init 4096 (fun _ -> Char.chr (Dudetm_sim.Rng.int rng 256)) in
  check Alcotest.bytes "random bytes roundtrip" b (roundtrip b);
  check Alcotest.bool "random bytes do not shrink much" true (Lz.ratio b < 0.05)

let test_long_match () =
  (* Match length far beyond the 15-value nibble: exercises extension
     bytes. *)
  let b = Bytes.make 10_000 'x' in
  check Alcotest.bytes "long run roundtrip" b (roundtrip b);
  check Alcotest.bool "long run compresses" true (Bytes.length (Lz.compress b) < 100)

let test_long_literals () =
  (* Literal run beyond 15: exercises the literal extension path. *)
  let b = Bytes.init 300 (fun i -> Char.chr (17 * i mod 251)) in
  check Alcotest.bytes "long literal roundtrip" b (roundtrip b)

let test_overlapping_match () =
  (* "ababab..." needs overlapping copies in the decoder. *)
  let b = Bytes.of_string ("ab" ^ String.concat "" (List.init 500 (fun _ -> "ab"))) in
  check Alcotest.bytes "overlap roundtrip" b (roundtrip b)

let test_log_payload_ratio () =
  (* Redo-log payloads (small addresses, zero-heavy values) compress well;
     the paper reports ~69% with lz4. *)
  let entries =
    List.init 2000 (fun i ->
        Log_entry.Write { addr = 4096 + (8 * (i mod 500)); value = Int64.of_int (i mod 17) })
  in
  let payload = Log_list.encode_list entries in
  check Alcotest.bool "log payload compresses >40%" true (Lz.ratio payload > 0.4)

let test_malformed_rejected () =
  Alcotest.check_raises "offset 0 rejected" (Invalid_argument "Lz.decompress: bad offset")
    (fun () ->
      (* token: 1 literal, match len nibble 0; literal 'a'; offset 0. *)
      ignore (Lz.decompress (Bytes.of_string "\x10a\x00\x00")));
  Alcotest.check_raises "truncated literals rejected"
    (Invalid_argument "Lz.decompress: truncated literals") (fun () ->
      ignore (Lz.decompress (Bytes.of_string "\xF0a")))

let test_all_zero_and_boundary_sizes () =
  (* All-zero buffers and sizes straddling the format's boundaries: the
     15-value literal/match nibbles, their 255-extension steps, and the
     minimum-match threshold. *)
  let sizes =
    [ 0; 1; 2; 3; 4; 14; 15; 16; 17; 18; 19; 20; 254; 255; 256; 269; 270; 271; 274; 275;
      525; 4096 ]
  in
  List.iter
    (fun size ->
      let zeros = Bytes.make size '\x00' in
      if roundtrip zeros <> zeros then Alcotest.failf "all-zero size %d diverged" size;
      let rng = Dudetm_sim.Rng.create (size + 1) in
      let random = Bytes.init size (fun _ -> Char.chr (Dudetm_sim.Rng.int rng 256)) in
      if roundtrip random <> random then Alcotest.failf "random size %d diverged" size)
    sizes;
  let big_zero = Bytes.make 65536 '\x00' in
  check Alcotest.bytes "64K zeros roundtrip" big_zero (roundtrip big_zero);
  check Alcotest.bool "64K zeros collapse" true (Bytes.length (Lz.compress big_zero) < 600)

let prop_roundtrip_adversarial =
  (* Fuzz over hostile structure: random interleavings of zero runs,
     repeated motifs and incompressible noise, sized to cross the literal
     and match extension boundaries. *)
  QCheck2.Test.make ~name:"lz: roundtrip on adversarial zero/noise mixes" ~count:300
    QCheck2.Gen.(
      map
        (fun pieces ->
          String.concat ""
            (List.map
               (function
                 | `Zeros n -> String.make n '\x00'
                 | `Noise (seed, n) ->
                   let rng = Dudetm_sim.Rng.create seed in
                   String.init n (fun _ -> Char.chr (Dudetm_sim.Rng.int rng 256))
                 | `Motif (seed, w, reps) ->
                   let rng = Dudetm_sim.Rng.create seed in
                   let m = String.init w (fun _ -> Char.chr (Dudetm_sim.Rng.int rng 256)) in
                   String.concat "" (List.init reps (fun _ -> m)))
               pieces))
        (list_size (int_range 1 8)
           (oneof
              [
                map (fun n -> `Zeros n) (int_range 0 300);
                map2 (fun s n -> `Noise (s, n)) (int_range 0 1000) (int_range 0 300);
                map3
                  (fun s w r -> `Motif (s, w, r))
                  (int_range 0 1000) (int_range 1 20) (int_range 1 40);
              ])))
    (fun s ->
      let b = Bytes.of_string s in
      roundtrip b = b)

let prop_roundtrip =
  QCheck2.Test.make ~name:"lz: compress/decompress roundtrip" ~count:500
    QCheck2.Gen.(string_size (int_range 0 2000))
    (fun s ->
      let b = Bytes.of_string s in
      roundtrip b = b)

let prop_roundtrip_structured =
  (* Byte strings with heavy repetition to force the match paths. *)
  QCheck2.Test.make ~name:"lz: roundtrip on repetitive input" ~count:300
    QCheck2.Gen.(
      map2
        (fun pieces reps ->
          String.concat ""
            (List.concat_map (fun p -> List.init (1 + reps) (fun _ -> p)) pieces))
        (list_size (int_range 1 8) (string_size (int_range 1 12)))
        (int_range 0 20))
    (fun s ->
      let b = Bytes.of_string s in
      roundtrip b = b)

let suite =
  [
    Alcotest.test_case "empty input" `Quick test_empty;
    Alcotest.test_case "short input" `Quick test_short;
    Alcotest.test_case "repetitive input compresses" `Quick test_repetitive_compresses;
    Alcotest.test_case "incompressible input" `Quick test_incompressible;
    Alcotest.test_case "long match extension" `Quick test_long_match;
    Alcotest.test_case "long literal extension" `Quick test_long_literals;
    Alcotest.test_case "overlapping matches" `Quick test_overlapping_match;
    Alcotest.test_case "log payloads compress" `Quick test_log_payload_ratio;
    Alcotest.test_case "malformed input rejected" `Quick test_malformed_rejected;
    Alcotest.test_case "all-zero and boundary sizes" `Quick test_all_zero_and_boundary_sizes;
    QCheck_alcotest.to_alcotest prop_roundtrip_adversarial;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_structured;
  ]
