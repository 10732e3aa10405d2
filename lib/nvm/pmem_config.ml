type t = {
  persist_latency : int;
  bandwidth_gbps : float;
  line_size : int;
}

let default = { persist_latency = 1000; bandwidth_gbps = 1.0; line_size = 64 }

let pcm = { default with persist_latency = 3500 }
