module Mem = Dudetm_nvm.Mem
module Stats = Dudetm_sim.Stats
module Sched = Dudetm_sim.Sched
module Tm_intf = Dudetm_tm.Tm_intf
module Alloc = Dudetm_core.Alloc
module Trace = Dudetm_trace.Trace

exception Volatile_oom

module Engine (Tm : Tm_intf.S) = struct
  let make ~name ~heap_size ~nthreads ~tm_create =
    let mem = Mem.create heap_size in
    let tm = tm_create { Tm_intf.load = Mem.get_u64 mem; store = Mem.set_u64 mem } in
    let root_size = Dudetm_core.Config.root_size in
    let allocator = Alloc.create ~base:root_size ~size:(heap_size - root_size) in
    let atomically : 'a. thread:int -> ?wset:int list -> (Ptm_intf.tx -> 'a) -> ('a * int) option =
      fun ~thread:_ ?wset:_ f ->
        let allocs = ref [] in
        let cleanup () =
          List.iter (fun (off, len) -> Alloc.free allocator ~off ~len) !allocs;
          allocs := []
        in
        let outcome =
          Trace.span ~cat:"perform" "tx" @@ fun () ->
          Tm.run ~on_retry:cleanup tm (fun tm_tx ->
              let tx =
                {
                  Ptm_intf.read = Tm.read tm_tx;
                  write = Tm.write tm_tx;
                  abort = (fun () -> Tm.user_abort tm_tx);
                  pmalloc =
                    (fun n ->
                      Sched.advance 80;
                      match Alloc.alloc allocator n with
                      | None -> raise Volatile_oom
                      | Some off ->
                        allocs := (off, n) :: !allocs;
                        Tm.write tm_tx off 0L;
                        off);
                  pfree = (fun ~off ~len -> Alloc.free allocator ~off ~len);
                }
              in
              f tx)
        in
        allocs := [];
        outcome
    in
    (* Snapshot fast path over the same TM: no durability, so the
       [durable] pin is meaningless here and ignored. *)
    let atomically_ro : 'a. durable:bool -> thread:int -> (Ptm_intf.tx -> 'a) -> ('a * int) option =
      fun ~durable:_ ~thread:_ f ->
        Trace.span ~cat:"perform" "ro_tx" @@ fun () ->
        Tm.run_ro tm (fun ro ->
            f
              {
                Ptm_intf.read = Tm.ro_read ro;
                write = (fun _ _ -> raise Tm_intf.Read_only_violation);
                abort = (fun () -> Tm.ro_abort ro);
                pmalloc = (fun _ -> raise Tm_intf.Read_only_violation);
                pfree = (fun ~off:_ ~len:_ -> raise Tm_intf.Read_only_violation);
              })
    in
    {
      Ptm_intf.name;
      requires_static = false;
      nthreads;
      root_base = 0;
      atomically;
      atomically_ro;
      peek = Mem.get_u64 mem;
      durable_id = (fun () -> Tm.last_tid tm);
      last_tid = (fun () -> Tm.last_tid tm);
      start = (fun () -> ());
      drain = (fun () -> ());
      stop = (fun () -> ());
      nvm = None;
      counters = (fun () -> List.map (fun (k, v) -> ("tm." ^ k, v)) (Stats.to_list (Tm.stats tm)));
      prealloc = None;
    }
end

module Stm_engine = Engine (Dudetm_tm.Tinystm)
module Htm_engine = Engine (Dudetm_tm.Htm)

let ptm ?(heap_size = 16 * 1024 * 1024) ?(nthreads = 4) () =
  Stm_engine.make ~name:"Volatile-STM" ~heap_size ~nthreads
    ~tm_create:(fun store -> Dudetm_tm.Tinystm.create store)

let ptm_htm ?(heap_size = 16 * 1024 * 1024) () =
  Htm_engine.make ~name:"Volatile-HTM" ~heap_size ~nthreads:4
    ~tm_create:(fun store -> Dudetm_tm.Htm.create_htm store)
