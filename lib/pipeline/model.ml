module Net = Pnut_core.Net
module B = Pnut_core.Net.Builder

(* Shared infrastructure places used by all three pipeline stages. *)
type shared = {
  bus_free : Net.place_id;
  bus_busy : Net.place_id;
  empty_buffers : Net.place_id;
  full_buffers : Net.place_id;
  pre_fetching : Net.place_id;
  fetching : Net.place_id;
  storing : Net.place_id;
  operand_fetch_pending : Net.place_id;
  result_store_pending : Net.place_id;
  decoder_ready : Net.place_id;
  decoded_instruction : Net.place_id;
  ready_to_issue : Net.place_id;
}

let add_shared b (c : Config.t) =
  {
    bus_free = B.add_place b "Bus_free" ~initial:1 ~capacity:1;
    bus_busy = B.add_place b "Bus_busy" ~capacity:1;
    empty_buffers =
      B.add_place b "Empty_I_buffers" ~initial:c.Config.buffer_words
        ~capacity:c.Config.buffer_words;
    full_buffers = B.add_place b "Full_I_buffers" ~capacity:c.Config.buffer_words;
    pre_fetching = B.add_place b "pre_fetching" ~capacity:1;
    fetching = B.add_place b "fetching" ~capacity:1;
    storing = B.add_place b "storing" ~capacity:1;
    operand_fetch_pending = B.add_place b "Operand_fetch_pending";
    result_store_pending = B.add_place b "Result_store_pending";
    decoder_ready = B.add_place b "Decoder_ready" ~initial:1 ~capacity:1;
    decoded_instruction = B.add_place b "Decoded_instruction" ~capacity:1;
    ready_to_issue = B.add_place b "ready_to_issue_instruction" ~capacity:1;
  }

(* Figure 1: instruction pre-fetching.  Pre-fetch grabs the bus only when
   a full transaction fits in the buffer and no operand fetch or result
   store is pending (inhibitor arcs, the dark bubbles of the figure). *)
let add_prefetch b (c : Config.t) s =
  let w = c.Config.prefetch_words in
  let (_ : Net.transition_id) =
    B.add_transition b "Start_prefetch"
      ~inputs:[ (s.bus_free, 1); (s.empty_buffers, w) ]
      ~inhibitors:[ (s.operand_fetch_pending, 1); (s.result_store_pending, 1) ]
      ~outputs:[ (s.bus_busy, 1); (s.pre_fetching, 1) ]
  in
  let (_ : Net.transition_id) =
    B.add_transition b "End_prefetch"
      ~inputs:[ (s.pre_fetching, 1); (s.bus_busy, 1) ]
      ~outputs:[ (s.bus_free, 1); (s.full_buffers, w) ]
      ~enabling:(Net.Const c.Config.memory_cycles)
  in
  ()

(* The decode transition: one buffer word, one processor cycle, holds the
   stage-2 resource until the instruction is issued. *)
let add_decode b (c : Config.t) s =
  let (_ : Net.transition_id) =
    B.add_transition b "Decode"
      ~inputs:[ (s.full_buffers, 1); (s.decoder_ready, 1) ]
      ~outputs:[ (s.decoded_instruction, 1); (s.empty_buffers, 1) ]
      ~firing:(Net.Const c.Config.decode_cycles)
  in
  ()

(* Figure 2: instruction typing, effective-address calculation and operand
   fetching.  The instruction mix is carried by the firing frequencies of
   the competing Type_n transitions.  Operand fetches load the bus through
   the shared fetching chain; at most one instruction is in stage 2 at a
   time (Decoder_ready), so the completion joins can simply count
   Operand_done tokens. *)
(* The default stage-2 operand fetch path: contend for the bus, hold it
   for one memory access per operand.  Cache extensions substitute their
   own path (probe, then bus only on a miss). *)
let default_fetch_path b (c : Config.t) s ~operand_done =
  ignore
    (B.add_transition b "start_fetch"
       ~inputs:[ (s.operand_fetch_pending, 1); (s.bus_free, 1) ]
       ~outputs:[ (s.bus_busy, 1); (s.fetching, 1) ]
      : Net.transition_id);
  ignore
    (B.add_transition b "end_fetch"
       ~inputs:[ (s.fetching, 1); (s.bus_busy, 1) ]
       ~outputs:[ (s.bus_free, 1); (operand_done, 1) ]
       ~enabling:(Net.Const c.Config.memory_cycles)
      : Net.transition_id)

let add_decoder ?(fetch_path = default_fetch_path) b (c : Config.t) s =
  let m1, m2, m3 = c.Config.mix in
  let t2_wait = B.add_place b "T2_operands_outstanding" in
  let t3_wait = B.add_place b "T3_operands_outstanding" in
  let t2_addr = B.add_place b "T2_addr_calc" in
  let t3_addr = B.add_place b "T3_addr_calc" in
  let operand_done = B.add_place b "Operand_done" in
  ignore
    (B.add_transition b "Type_1"
       ~inputs:[ (s.decoded_instruction, 1) ]
       ~outputs:[ (s.ready_to_issue, 1) ]
       ~frequency:m1
      : Net.transition_id);
  ignore
    (B.add_transition b "Type_2"
       ~inputs:[ (s.decoded_instruction, 1) ]
       ~outputs:[ (t2_addr, 1) ]
       ~frequency:m2
      : Net.transition_id);
  ignore
    (B.add_transition b "Type_3"
       ~inputs:[ (s.decoded_instruction, 1) ]
       ~outputs:[ (t3_addr, 1) ]
       ~frequency:m3
      : Net.transition_id);
  ignore
    (B.add_transition b "calc_eaddr_1"
       ~inputs:[ (t2_addr, 1) ]
       ~outputs:[ (s.operand_fetch_pending, 1); (t2_wait, 1) ]
       ~firing:(Net.Const c.Config.eaddr_cycles)
      : Net.transition_id);
  ignore
    (B.add_transition b "calc_eaddr_2"
       ~inputs:[ (t3_addr, 1) ]
       ~outputs:[ (s.operand_fetch_pending, 2); (t3_wait, 1) ]
       ~firing:(Net.Const (2.0 *. c.Config.eaddr_cycles))
      : Net.transition_id);
  fetch_path b c s ~operand_done;
  ignore
    (B.add_transition b "operands_ready_1"
       ~inputs:[ (operand_done, 1); (t2_wait, 1) ]
       ~outputs:[ (s.ready_to_issue, 1) ]
      : Net.transition_id);
  ignore
    (B.add_transition b "operands_ready_2"
       ~inputs:[ (operand_done, 2); (t3_wait, 1) ]
       ~outputs:[ (s.ready_to_issue, 1) ]
      : Net.transition_id)

let exec_transition_names (c : Config.t) =
  List.mapi (fun i _ -> Printf.sprintf "exec_type_%d" (i + 1)) c.Config.exec_profile

(* Figure 3: issue, execution and result storing.  Execution delays are
   the five competing transitions with appropriate firing frequencies and
   firing times; the bus contention caused by result stores is explicit. *)
let add_execution b (c : Config.t) s =
  let execution_unit = B.add_place b "Execution_unit" ~initial:1 ~capacity:1 in
  let issued = B.add_place b "Issued_instruction" ~capacity:1 in
  let exec_done = B.add_place b "Exec_done" ~capacity:1 in
  ignore
    (B.add_transition b "Issue"
       ~inputs:[ (s.ready_to_issue, 1); (execution_unit, 1) ]
       ~outputs:[ (issued, 1); (s.decoder_ready, 1) ]
      : Net.transition_id);
  List.iteri
    (fun i (cycles, freq) ->
      ignore
        (B.add_transition b
           (Printf.sprintf "exec_type_%d" (i + 1))
           ~inputs:[ (issued, 1) ]
           ~outputs:[ (exec_done, 1) ]
           ~firing:(Net.Const cycles) ~frequency:freq
          : Net.transition_id))
    c.Config.exec_profile;
  let p_store = c.Config.store_prob in
  if p_store > 0.0 then begin
    ignore
      (B.add_transition b "store_result"
         ~inputs:[ (exec_done, 1) ]
         ~outputs:[ (s.result_store_pending, 1) ]
         ~frequency:p_store
        : Net.transition_id);
    ignore
      (B.add_transition b "start_store"
         ~inputs:[ (s.result_store_pending, 1); (s.bus_free, 1) ]
         ~outputs:[ (s.bus_busy, 1); (s.storing, 1) ]
        : Net.transition_id);
    ignore
      (B.add_transition b "end_store"
         ~inputs:[ (s.storing, 1); (s.bus_busy, 1) ]
         ~outputs:[ (s.bus_free, 1); (execution_unit, 1) ]
         ~enabling:(Net.Const c.Config.memory_cycles)
        : Net.transition_id)
  end;
  if p_store < 1.0 then
    ignore
      (B.add_transition b "no_store"
         ~inputs:[ (exec_done, 1) ]
         ~outputs:[ (execution_unit, 1) ]
         ~frequency:(1.0 -. p_store)
        : Net.transition_id)

let full c =
  Config.validate c;
  let b = B.create "pipeline3" in
  let s = add_shared b c in
  add_prefetch b c s;
  add_decode b c s;
  add_decoder b c s;
  add_execution b c s;
  B.build b

let prefetch_only c =
  Config.validate c;
  let b = B.create "prefetch" in
  let s = add_shared b c in
  add_prefetch b c s;
  add_decode b c s;
  (* Close the net: consume decoded instructions immediately and recycle
     the decoder, so Figure 1 can run standalone. *)
  ignore
    (B.add_transition b "consume"
       ~inputs:[ (s.decoded_instruction, 1) ]
       ~outputs:[ (s.decoder_ready, 1) ]
       ~firing:(Net.Const c.Config.decode_cycles)
      : Net.transition_id);
  B.build b

module Internal = struct
  type nonrec shared = shared = {
    bus_free : Net.place_id;
    bus_busy : Net.place_id;
    empty_buffers : Net.place_id;
    full_buffers : Net.place_id;
    pre_fetching : Net.place_id;
    fetching : Net.place_id;
    storing : Net.place_id;
    operand_fetch_pending : Net.place_id;
    result_store_pending : Net.place_id;
    decoder_ready : Net.place_id;
    decoded_instruction : Net.place_id;
    ready_to_issue : Net.place_id;
  }

  let add_shared = add_shared
  let add_decode = add_decode
  let add_decoder = add_decoder
  let add_execution = add_execution
end
