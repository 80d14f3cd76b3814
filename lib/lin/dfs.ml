(* A second, independent linearizability oracle in Lowe's
   configuration-graph style ("Testing for linearizability", Lowe 2017;
   see SNIPPETS.md): instead of enumerating witness orders over the call
   set like the Wing-Gong checker ({!Objimpl.Linearize}), walk the event
   log itself.  A {e configuration} is

     (next event index, pending calls, linearized-but-unreturned calls,
      specification state)

   and the transitions are: consume an invocation (the call becomes
   pending), consume a response (legal only once the call has been
   linearized), or linearize some pending call — apply its operation to
   the spec state and require the recorded response.  A call that never
   responds (a crashed or cut-off process) may still have taken effect,
   so per the Herlihy-Wing definition it may be linearized with whatever
   response the spec produces — or never, which drops it.  The history is
   linearizable iff a path consumes every event.

   Two reductions keep the graph small without losing completeness:
   invocation events and already-linearized responses are consumed
   eagerly (they commute with every linearization, so delaying them never
   helps), and configurations are memoized — the measure
   2*index + |linearized| strictly increases along every edge, so the
   graph is acyclic and a failed configuration can be cached.  Pending
   and linearized sets are bitmasks over the calls (histories beyond 62
   calls answer [Unknown], far above anything the harness records). *)

open Sim
module History = Objimpl.History

type verdict =
  | Accepted of History.call list
      (** a witness order; may place pending calls *)
  | Rejected
  | Unknown  (** configuration budget exhausted, or > 62 calls *)
  | Malformed of string  (** failed {!History.validate}; diagnostic *)

type ev = Ev_inv of int | Ev_res of int

let check ?(max_configs = 2_000_000) (spec : Optype.t) (history : History.t) =
  match History.validate history with
  | Error msg -> Malformed msg
  | Ok () ->
      let all_calls = History.calls history in
      let m = List.length all_calls in
      if m > 62 then Unknown
      else begin
        let index_of = Hashtbl.create 16 in
        List.iteri
          (fun i (c : History.call) -> Hashtbl.replace index_of c.History.id i)
          all_calls;
        let call = Array.of_list all_calls in
        let events =
          List.filter_map
            (fun evt ->
              match evt with
              | History.Inv { call = id; _ } ->
                  Option.map (fun i -> Ev_inv i) (Hashtbl.find_opt index_of id)
              | History.Res { call = id; _ } ->
                  Option.map (fun i -> Ev_res i) (Hashtbl.find_opt index_of id))
            history
          |> Array.of_list
        in
        let n_events = Array.length events in
        (* starts small: most histories branch at a handful of points *)
        let seen = Hashtbl.create 16 in
        let configs = ref 0 in
        let exception Budget in
        (* forced moves first; branch only when blocked at an
           unlinearized response *)
        let rec advance i pend lin state acc =
          if i >= n_events then Some (List.rev acc)
          else
            match events.(i) with
            | Ev_inv c -> advance (i + 1) (pend lor (1 lsl c)) lin state acc
            | Ev_res c when lin land (1 lsl c) <> 0 ->
                advance (i + 1) pend (lin land lnot (1 lsl c)) state acc
            | Ev_res _ -> branch i pend lin state acc
        and branch i pend lin state acc =
          let key = (i, pend, lin, state) in
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.add seen key ();
            incr configs;
            if !configs > max_configs then raise Budget;
            let rec try_linearize c =
              if c >= m then None
              else if pend land (1 lsl c) = 0 then try_linearize (c + 1)
              else
                let cl = call.(c) in
                let state', resp = Optype.apply spec state cl.History.op in
                let matches =
                  match cl.History.response with
                  | Some r -> Value.equal r resp
                  | None -> true (* pending: the extension picks this *)
                in
                if not matches then try_linearize (c + 1)
                else
                  match
                    advance i
                      (pend land lnot (1 lsl c))
                      (lin lor (1 lsl c))
                      state' (cl :: acc)
                  with
                  | Some _ as witness -> witness
                  | None -> try_linearize (c + 1)
            in
            try_linearize 0
          end
        in
        match advance 0 0 0 spec.Optype.init [] with
        | Some order -> Accepted order
        | None -> Rejected
        | exception Budget -> Unknown
      end

let is_accepted ?max_configs spec history =
  match check ?max_configs spec history with
  | Accepted _ -> true
  | Rejected | Unknown | Malformed _ -> false
