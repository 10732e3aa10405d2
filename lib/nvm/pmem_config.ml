type t = {
  persist_latency : int;
  bandwidth_gbps : float;
  line_size : int;
}

let default = { persist_latency = 1000; bandwidth_gbps = 1.0; line_size = 64 }

let pcm = { default with persist_latency = 3500 }

let pp ppf t =
  Format.fprintf ppf "{latency=%dcyc; bw=%.1fGB/s; line=%dB}" t.persist_latency
    t.bandwidth_gbps t.line_size
