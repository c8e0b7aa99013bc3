module Net = Pnut_core.Net
module B = Net.Builder
module I = Model.Internal

let cache_cycles = 1.0

(* Instruction-cache front end replacing the plain prefetch: a single
   prefetch unit probes the cache; hits deliver buffer words in
   [cache_cycles] without the bus, misses fall back to the Figure-1 bus
   transaction. *)
let add_cached_prefetch b (c : Config.t) (s : I.shared) ~hit_ratio
    ~extra_inhibitors =
  let w = c.Config.prefetch_words in
  let unit_free = B.add_place b "Prefetch_unit" ~initial:1 ~capacity:1 in
  let lookup = B.add_place b "I_lookup" ~capacity:1 in
  let wait_bus = B.add_place b "I_wait_bus" ~capacity:1 in
  ignore
    (B.add_transition b "probe_icache"
       ~inputs:[ (s.I.empty_buffers, w); (unit_free, 1) ]
       ~inhibitors:
         ([ (s.I.operand_fetch_pending, 1); (s.I.result_store_pending, 1) ]
         @ extra_inhibitors)
       ~outputs:[ (lookup, 1) ]
      : Net.transition_id);
  if hit_ratio > 0.0 then
    ignore
      (B.add_transition b "icache_hit"
         ~inputs:[ (lookup, 1) ]
         ~outputs:[ (s.I.full_buffers, w); (unit_free, 1) ]
         ~firing:(Net.Const cache_cycles) ~frequency:hit_ratio
        : Net.transition_id);
  if hit_ratio < 1.0 then begin
    ignore
      (B.add_transition b "icache_miss"
         ~inputs:[ (lookup, 1) ]
         ~outputs:[ (wait_bus, 1) ]
         ~frequency:(1.0 -. hit_ratio)
        : Net.transition_id);
    ignore
      (B.add_transition b "Start_prefetch"
         ~inputs:[ (wait_bus, 1); (s.I.bus_free, 1) ]
         ~outputs:[ (s.I.bus_busy, 1); (s.I.pre_fetching, 1) ]
        : Net.transition_id);
    ignore
      (B.add_transition b "End_prefetch"
         ~inputs:[ (s.I.pre_fetching, 1); (s.I.bus_busy, 1) ]
         ~outputs:[ (s.I.bus_free, 1); (s.I.full_buffers, w); (unit_free, 1) ]
         ~enabling:(Net.Const c.Config.memory_cycles)
        : Net.transition_id)
  end

let with_caches ?(icache_hit_ratio = 0.0) ?(dcache_hit_ratio = 0.0)
    (c : Config.t) =
  Config.validate c;
  let check name r =
    if r < 0.0 || r > 1.0 then
      invalid_arg (Printf.sprintf "Extensions.with_caches: %s out of [0,1]" name)
  in
  check "icache_hit_ratio" icache_hit_ratio;
  check "dcache_hit_ratio" dcache_hit_ratio;
  let b = B.create "pipeline3c" in
  let s = I.add_shared b c in
  (* data-cache lookup places exist up front so the prefetch inhibitors
     can reference them *)
  let d_lookup = B.add_place b "D_lookup" ~capacity:2 in
  let d_wait = B.add_place b "D_wait_bus" ~capacity:2 in
  add_cached_prefetch b c s ~hit_ratio:icache_hit_ratio
    ~extra_inhibitors:[ (d_lookup, 1); (d_wait, 1) ];
  I.add_decode b c s;
  let dcache_fetch_path b (c : Config.t) (s : I.shared) ~operand_done =
    ignore
      (B.add_transition b "probe_dcache"
         ~inputs:[ (s.I.operand_fetch_pending, 1) ]
         ~outputs:[ (d_lookup, 1) ]
        : Net.transition_id);
    if dcache_hit_ratio > 0.0 then
      ignore
        (B.add_transition b "dcache_hit"
           ~inputs:[ (d_lookup, 1) ]
           ~outputs:[ (operand_done, 1) ]
           ~firing:(Net.Const cache_cycles) ~frequency:dcache_hit_ratio
          : Net.transition_id);
    if dcache_hit_ratio < 1.0 then begin
      ignore
        (B.add_transition b "dcache_miss"
           ~inputs:[ (d_lookup, 1) ]
           ~outputs:[ (d_wait, 1) ]
           ~frequency:(1.0 -. dcache_hit_ratio)
          : Net.transition_id);
      ignore
        (B.add_transition b "start_fetch"
           ~inputs:[ (d_wait, 1); (s.I.bus_free, 1) ]
           ~outputs:[ (s.I.bus_busy, 1); (s.I.fetching, 1) ]
          : Net.transition_id);
      ignore
        (B.add_transition b "end_fetch"
           ~inputs:[ (s.I.fetching, 1); (s.I.bus_busy, 1) ]
           ~outputs:[ (s.I.bus_free, 1); (operand_done, 1) ]
           ~enabling:(Net.Const c.Config.memory_cycles)
          : Net.transition_id)
    end
  in
  I.add_decoder ~fetch_path:dcache_fetch_path b c s;
  I.add_execution b c s;
  B.build b
