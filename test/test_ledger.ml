(* Bench ledger tests: the row/gate machinery every gated bench reports
   through.

   - a gate whose row crosses its bound fails, one that holds passes;
   - a gate naming a row that was never added fails;
   - a duplicate (scenario, layer, metric) key is rejected;
   - float cells read back to the same bits, and the TSV holds exactly
     the rows in the order they were added. *)

module L = Dudetm_harness.Harness.Ledger

let verdicts led = List.map snd (L.check led)

let test_gate_bounds () =
  let led = L.create () in
  L.add led ~scenario:"s" ~layer:"bench"
    [ ("speedup", "x", L.Float 3.99); ("failed", "txs", L.Int 0); ("tail", "x", L.Float 10.0) ];
  L.gate led ~scenario:"s" ~layer:"bench" "speedup" (L.At_least 4.0);
  L.gate led ~scenario:"s" ~layer:"bench" "failed" (L.Exactly 0.0);
  L.gate led ~scenario:"s" ~layer:"bench" "tail" (L.At_most 10.0);
  L.gate led ~scenario:"s" ~layer:"bench" "tail" (L.At_most 9.99);
  Alcotest.(check (list bool)) "crossed bounds fail, others hold" [ false; true; true; false ]
    (verdicts led)

let test_gate_missing_row () =
  let led = L.create () in
  L.add led ~scenario:"s" ~layer:"bench" [ ("ktps", "ktps", L.Float 1.0) ];
  L.gate led ~scenario:"s" ~layer:"engine" "ktps" (L.At_least 0.0);
  L.gate led ~scenario:"t" ~layer:"bench" "ktps" (L.At_least 0.0);
  Alcotest.(check (list bool)) "gates on absent rows fail" [ false; false ] (verdicts led)

let test_duplicate_key () =
  let led = L.create () in
  L.add led ~scenario:"s" ~layer:"bench" [ ("txs", "txs", L.Int 1) ];
  L.add led ~scenario:"s" ~layer:"engine" [ ("txs", "txs", L.Int 1) ];
  Alcotest.check_raises "same key twice"
    (Invalid_argument "Ledger.add: duplicate row s bench txs") (fun () ->
      L.add led ~scenario:"s" ~layer:"bench" [ ("txs", "count", L.Int 2) ])

let test_float_roundtrip_and_tsv () =
  List.iter
    (fun x ->
      let s = L.cell (L.Float x) in
      Alcotest.(check int64)
        (Printf.sprintf "%s reads back to the same bits" s)
        (Int64.bits_of_float x)
        (Int64.bits_of_float (float_of_string s)))
    [ 0.1; 1.0 /. 3.0; 6388.593729595255; 5.0324671640520835; 1e-300; 4.9e-324; 1e300; -0.0 ];
  Alcotest.(check string) "short floats stay short" "0.25" (L.cell (L.Float 0.25));
  let led = L.create () in
  L.add led ~scenario:"s/n=1" ~layer:"bench" [ ("ktps", "ktps", L.Float 0.1); ("txs", "txs", L.Int 7) ];
  let path = Filename.temp_file "ledger" ".tsv" in
  L.write led path;
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Alcotest.(check string) "tsv"
    "scenario\tlayer\tmetric\tvalue\tunit\ns/n=1\tbench\tktps\t0.1\tktps\ns/n=1\tbench\ttxs\t7\ttxs\n"
    text

let suite =
  [
    Alcotest.test_case "gate that crosses its bound fails" `Quick test_gate_bounds;
    Alcotest.test_case "gate on a row never added fails" `Quick test_gate_missing_row;
    Alcotest.test_case "duplicate key rejected" `Quick test_duplicate_key;
    Alcotest.test_case "floats read back to the same bits" `Quick test_float_roundtrip_and_tsv;
  ]
