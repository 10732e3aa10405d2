let size n = 16 + (16 * n)

let encode ~tombstone ~header addrs value =
  let n = List.length addrs in
  let buf = Bytes.create (size n + if tombstone then 8 else 0) in
  Bytes.set_int64_le buf 0 header;
  Bytes.set_int64_le buf 8 (Int64.of_int n);
  List.iteri
    (fun i addr ->
      Bytes.set_int64_le buf (16 + (16 * i)) (Int64.of_int addr);
      Bytes.set_int64_le buf (24 + (16 * i)) (value addr))
    addrs;
  if tombstone then Bytes.set_int64_le buf (size n) 0L;
  buf

let count load ~off ~room =
  let n = Int64.to_int (load (off + 8)) in
  if n >= 0 && size n <= room then Some n else None

let iter load ~off n f =
  for i = 0 to n - 1 do
    let addr = Int64.to_int (load (off + 16 + (16 * i))) in
    f addr (load (off + 24 + (16 * i)))
  done
