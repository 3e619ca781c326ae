(* The traced replay of one batch op: the steps of [Driver.run], called
   one by one through the library's public functions and timed from here,
   so an op's wall time splits across the layers

     stats.input_build   Ctx.create + register_input
     logical.search      Logical.Optimizer.optimize_program_tiered
     stats.jit_refresh   register_alias_tensor on materialized aliases
     physical.search     Physical.Optimizer.plan_query_tiered
     compile             Exec.timings.compile_time (inside run_plan)
     engine.execute      Exec.run_plan minus compile

   and whatever the op spent outside those calls is [unattributed].
   Counts are metric-registry deltas around the calls.  The optimizers
   get an unbounded node budget ([max_nodes = max_int]): that switches
   on their search-node counter and changes nothing else, which the
   bit-identity check against [Driver.run] confirms on every op.  The
   inter-phase validator is skipped; it only checks plans. *)

open Galley_plan
module D = Galley.Driver
module T = Galley_tensor.Tensor
module Ctx = Galley_stats.Ctx
module Exec = Galley_engine.Exec

type layers = {
  op_s : float;
  stats_input_s : float;
  logical_s : float;
  jit_refresh_s : float;
  physical_s : float;
  compile_s : float;
  execute_s : float;
  logical_nodes : int;
  physical_nodes : int;
  counts : (string * int) list;  (** registry deltas over the whole op *)
}

let counted =
  [
    "estimator.calls.chain";
    "estimator.calls.uniform";
    "kernel_cache.hits";
    "kernel_cache.misses";
    "cse.hits";
    "cse.misses";
    "exec.kernels_run";
    "kernel.nnz_read";
    "kernel.nnz_written";
  ]

let nodes () = Util.counter "optimizer.search_nodes"

(* The statistics context [Driver.run] builds for its inputs. *)
let input_stats ~(config : D.config) (inputs : (string * T.t) list) : Ctx.t =
  let schema = Schema.create () in
  List.iter (fun (n, t) -> Schema.declare_tensor schema n t) inputs;
  let ctx = Ctx.create ~kind:config.D.estimator schema in
  List.iter (fun (n, t) -> ctx.Ctx.register_input n t) inputs;
  ctx

(* Run [program] the way [Driver.run] does, layer by layer.  Returns the
   program outputs by name and the op's layer split. *)
let run ~(config : D.config) ~(inputs : (string * T.t) list)
    (program : Ir.program) : (string * T.t) list * layers =
  let t_start = Util.now () in
  let c0 = Util.counters counted in
  let program = D.resolve_names program in
  let ctx, stats_input_s = Util.time (fun () -> input_stats ~config inputs) in
  let n0 = nodes () in
  let (logical_plan, _), logical_s =
    Util.time (fun () ->
        Galley_logical.Optimizer.optimize_program_tiered
          ?timeout:config.D.optimizer_timeout ~degrade:config.D.degrade
          { config.D.logical with max_nodes = Some max_int }
          ctx program)
  in
  let logical_nodes = nodes () - n0 in
  let exec =
    Exec.create ~cse:config.D.cse ~backend:config.D.kernel_backend
      ~domains:config.D.domains ~kernel_cache_cap:config.D.kernel_cache_cap
      ~cse_cache_cap:config.D.cse_cache_cap ()
  in
  List.iter (fun (n, t) -> Exec.bind exec n t) inputs;
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "#p%d" !counter
  in
  let refreshed = Hashtbl.create 16 in
  let jit = ref 0.0 and phys = ref 0.0 and run_s = ref 0.0 in
  let phys_nodes = ref 0 in
  let physical = { config.D.physical with max_nodes = Some max_int } in
  let outputs =
    Fun.protect
      ~finally:(fun () -> Exec.shutdown exec)
      (fun () ->
        List.iter
          (fun (q : Logical_query.t) ->
            let (), dt =
              Util.time (fun () ->
                  List.iter
                    (fun (name, kind) ->
                      match kind with
                      | `Alias when not (Hashtbl.mem refreshed name) -> (
                          match Exec.lookup_opt exec name with
                          | Some t ->
                              Hashtbl.replace refreshed name ();
                              Schema.declare_tensor ctx.Ctx.schema name t;
                              ctx.Ctx.register_alias_tensor name t
                          | None -> ())
                      | `Alias | `Input -> ())
                    (Ir.referenced_names q.Logical_query.body))
            in
            jit := !jit +. dt;
            let n1 = nodes () in
            let (plan, _), dt =
              Util.time (fun () ->
                  Galley_physical.Optimizer.plan_query_tiered
                    ~degrade:config.D.degrade ~config:physical ctx ~fresh q)
            in
            phys := !phys +. dt;
            phys_nodes := !phys_nodes + (nodes () - n1);
            let (), dt = Util.time (fun () -> Exec.run_plan exec plan) in
            run_s := !run_s +. dt)
          logical_plan;
        List.filter_map
          (fun name -> Option.map (fun t -> (name, t)) (Exec.lookup_opt exec name))
          program.Ir.outputs)
  in
  let compile_s = exec.Exec.timings.Exec.compile_time in
  let layers =
    {
      op_s = Util.now () -. t_start;
      stats_input_s;
      logical_s;
      jit_refresh_s = !jit;
      physical_s = !phys;
      compile_s;
      execute_s = !run_s -. compile_s;
      logical_nodes;
      physical_nodes = !phys_nodes;
      counts = Util.delta c0 (Util.counters counted);
    }
  in
  (outputs, layers)

(* Every output of [Driver.run]'s result equals the replay's, bit for bit. *)
let matches_driver (r : D.result) (outputs : (string * T.t) list) : bool =
  List.length r.D.outputs = List.length outputs
  && List.for_all
       (fun (name, _, t) ->
         match List.assoc_opt name outputs with
         | Some t' -> Util.bit_identical t t'
         | None -> false)
       r.D.outputs
