module Stats = Dudetm_sim.Stats

module Make (Tm : Dudetm_tm.Tm_intf.S) = struct
  module D = Dudetm_core.Dudetm.Make (Tm)

  let wrap_tx dtx =
    {
      Ptm_intf.read = D.read dtx;
      write = D.write dtx;
      abort = (fun () -> D.abort dtx);
      pmalloc = D.pmalloc dtx;
      pfree = (fun ~off ~len -> D.pfree dtx ~off ~len);
    }

  let of_instance ?(name = "DudeTM") t =
    let cfg = D.config t in
    let atomically : 'a. thread:int -> ?wset:int list -> (Ptm_intf.tx -> 'a) -> ('a * int) option =
      fun ~thread ?wset:_ f -> D.atomically t ~thread (fun dtx -> f (wrap_tx dtx))
    in
    let atomically_ro : 'a. durable:bool -> thread:int -> (Ptm_intf.tx -> 'a) -> ('a * int) option =
      fun ~durable ~thread f -> D.atomically_ro ~durable t ~thread (fun dtx -> f (wrap_tx dtx))
    in
    let counters () =
      Stats.to_list (D.stats t)
      @ List.map (fun (k, v) -> ("tm." ^ k, v)) (Stats.to_list (Tm.stats (D.tm t)))
      @
      match D.shadow_stats t with
      | Some s -> List.map (fun (k, v) -> ("shadow." ^ k, v)) (Stats.to_list s)
      | None -> []
    in
    ( {
        Ptm_intf.name;
        requires_static = false;
        nthreads = cfg.Dudetm_core.Config.nthreads;
        root_base = D.root_base t;
        atomically;
        atomically_ro;
        peek = D.heap_read_u64 t;
        durable_id = (fun () -> D.durable_id t);
        last_tid = (fun () -> D.last_tid t);
        start = (fun () -> D.start t);
        drain = (fun () -> D.drain t);
        stop = (fun () -> D.stop t);
        nvm = Some (D.nvm t);
        counters;
        prealloc = None;
      },
      t )

  let ptm ?name cfg = of_instance ?name (D.create cfg)

  let attach_ptm cfg nvm =
    let t, report = D.attach cfg nvm in
    let p, t = of_instance t in
    (p, t, report)
end

module Stm = Make (Dudetm_tm.Tinystm)
module Htm_based = Make (Dudetm_tm.Htm)
