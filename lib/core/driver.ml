(* End-to-end Galley driver (paper Fig. 3):

   input program --[logical optimizer]--> logical plan
                 --[physical optimizer]--> physical plan
                 --[engine]--> tensors

   Just-in-time physical optimization (paper Sec. 8.1) is the default: each
   logical query is physically optimized only after all of its aliases have
   executed, with alias statistics refreshed from the materialized tensors.
   Setting [jit = false] plans the whole physical program up front from
   inferred statistics.

   Resilience (see DESIGN.md "Failure model"): both optimizers run under an
   optional per-query deadline with a degradation ladder (exact → greedy →
   naive), plans are validated between phases, failures are classified into
   [Errors.t] (surfaced by [run_checked]), fault injection is driven by
   [config.faults], and an optional nnz guardrail compares estimated
   vs. materialized intermediate sizes, forcing one corrective JIT
   re-optimization before giving up with [Budget_exceeded]. *)

open Galley_plan
module T = Galley_tensor.Tensor
module Ctx = Galley_stats.Ctx
module Obs = Galley_obs

type config = {
  estimator : Ctx.kind;
  logical : Galley_logical.Optimizer.config;
  physical : Galley_physical.Optimizer.config;
  jit : bool;
  cse : bool;
  timeout : float option; (* seconds; execution aborts past this *)
  optimizer_timeout : float option; (* per-query optimizer budget, seconds *)
  degrade : bool; (* false = optimizer deadline is an error, not a ladder *)
  validate : bool; (* run the inter-phase plan validator *)
  faults : Faults.t; (* fault injection; [Faults.none] = off *)
  nnz_guard : float option;
      (* flag an intermediate whose materialized nnz exceeds this factor
         times its estimate; one corrective re-optimization, then
         [Budget_exceeded] *)
  kernel_backend : Galley_engine.Exec.backend;
      (* staged closure compiler (default) or the constraint-tree
         interpreter, retained as the differential oracle *)
  domains : int;
      (* engine parallelism: size of the domain pool shared by DAG-parallel
         query execution and intra-kernel chunking; 1 = the exact serial
         path.  Outputs are bit-identical at every setting. *)
  audit : bool;
      (* record predicted nnz (under both estimators) for every
         materialized intermediate and compare with actual nnz after
         execution; results land in [result.audit] (the explain mode) *)
  kernel_cache_cap : int;
      (* LRU bound on the engine's resident kernel cache (entries); a
         long-lived process must not grow without bound *)
  cse_cache_cap : int; (* LRU bound on the resident CSE cache (entries) *)
}

(* Default parallelism: [GALLEY_DOMAINS] when set to a positive integer,
   else the runtime's recommendation for this machine. *)
let default_domains =
  match Option.bind (Sys.getenv_opt "GALLEY_DOMAINS") int_of_string_opt with
  | Some d when d >= 1 -> d
  | Some _ | None -> Domain.recommended_domain_count ()

let default_config =
  {
    estimator = Ctx.Chain_kind;
    logical = Galley_logical.Optimizer.default_config;
    physical = Galley_physical.Optimizer.default_config;
    jit = true;
    cse = true;
    timeout = None;
    optimizer_timeout = None;
    degrade = true;
    validate = true;
    faults = Faults.none;
    nnz_guard = None;
    kernel_backend = Galley_engine.Exec.Staged;
    domains = default_domains;
    audit = false;
    kernel_cache_cap = Galley_engine.Exec.default_kernel_cache_cap;
    cse_cache_cap = Galley_engine.Exec.default_cse_cache_cap;
  }

let greedy_config =
  {
    default_config with
    logical =
      {
        Galley_logical.Optimizer.default_config with
        search = Galley_logical.Optimizer.Greedy;
      };
  }

type timings = {
  stats_seconds : float;
  logical_seconds : float;
  physical_seconds : float;
  compile_seconds : float;
  execute_seconds : float;
  total_seconds : float;
  compile_count : int;
  kernel_count : int;
  cse_hits : int;
}

type result = {
  outputs : (string * Ir.idx list * T.t) list; (* name, dim order, tensor *)
  incomplete_outputs : string list;
      (* requested outputs not materialized (e.g. past the deadline) *)
  logical_plan : Logical_query.t list;
  physical_plan : Physical.plan;
  logical_tiers : (string * Tier.t) list; (* per input query *)
  physical_tiers : (string * Tier.t) list; (* per logical query *)
  timings : timings;
  timed_out : bool;
  nnz_guard_retries : int; (* corrective re-optimizations triggered *)
  audit : Obs.Audit.t option;
      (* predicted-vs-actual nnz per materialized intermediate, present
         when [config.audit] was set *)
}

let output_res (r : result) (name : string) : (T.t, string) Stdlib.result =
  match List.find_opt (fun (n, _, _) -> n = name) r.outputs with
  | Some (_, _, t) -> Ok t
  | None ->
      let have = List.map (fun (n, _, _) -> n) r.outputs in
      Error
        (Printf.sprintf "no output named %s (have: %s%s)" name
           (match have with [] -> "none" | _ -> String.concat ", " have)
           (match r.incomplete_outputs with
           | [] -> ""
           | inc -> "; incomplete: " ^ String.concat ", " inc))

let output_of (r : result) (name : string) : T.t =
  match output_res r name with Ok t -> t | Error msg -> invalid_arg ("Galley: " ^ msg)

(* Replace Input leaves that actually refer to earlier query outputs with
   Alias leaves, so programs can be written without distinguishing them. *)
let resolve_names (p : Ir.program) : Ir.program =
  let defined = Hashtbl.create 8 in
  let queries =
    List.map
      (fun (q : Ir.query) ->
        let rec fix (e : Ir.expr) : Ir.expr =
          match e with
          | Ir.Input (n, idxs) when Hashtbl.mem defined n -> Ir.Alias (n, idxs)
          | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> e
          | Ir.Map (op, args) -> Ir.Map (op, List.map fix args)
          | Ir.Agg (op, idxs, body) -> Ir.Agg (op, idxs, fix body)
        in
        let q = { q with Ir.expr = fix q.Ir.expr } in
        Hashtbl.replace defined q.Ir.name ();
        q)
      p.Ir.queries
  in
  { p with Ir.queries }

let now = Unix.gettimeofday

(* Phase/query breadcrumbs for classifying stray exceptions in
   [run_checked] (single-threaded; best-effort context only). *)
let cur_phase : Errors.phase ref = ref Errors.Execution
let cur_query : string option ref = ref None

let error_context () = Errors.context ?query:!cur_query !cur_phase

(* Refresh alias statistics from materialized tensors before physically
   optimizing [q] (JIT adaptive optimization).  [refreshed] remembers names
   already measured this run: bindings are immutable within a run, so one
   measurement per intermediate suffices. *)
let refresh_alias_stats ?(refreshed = Hashtbl.create 16) (ctx : Ctx.t)
    (exec : Galley_engine.Exec.t) (q : Logical_query.t) : unit =
  List.iter
    (fun (name, kind) ->
      match kind with
      | `Alias when not (Hashtbl.mem refreshed name) -> (
          match Galley_engine.Exec.lookup_opt exec name with
          | Some t ->
              Hashtbl.replace refreshed name ();
              Schema.declare_tensor ctx.Ctx.schema name t;
              ctx.Ctx.register_alias_tensor name t
          | None -> ())
      | `Alias | `Input -> ())
    (Ir.referenced_names q.Logical_query.body)

(* Declare one logical query's output in [ctx]'s schema and register its
   inferred (estimated) alias statistics.  Shared by [run_logical_plan],
   [Session.register_query], and the audit's shadow contexts. *)
let register_query_estimated (ctx : Ctx.t) (q : Logical_query.t) : unit =
  let full = (Logical_query.to_query q).Ir.expr in
  let dims = Schema.index_dims ctx.Ctx.schema full in
  let out_dims =
    Array.of_list
      (List.map (fun i -> Schema.dim_of_idx dims i) q.Logical_query.output_idxs)
  in
  let fill = Schema.expr_fill ctx.Ctx.schema dims full in
  Schema.declare ctx.Ctx.schema q.Logical_query.name ~dims:out_dims ~fill;
  ctx.Ctx.register_alias_estimated q.Logical_query.name
    ~output_idxs:q.Logical_query.output_idxs full

(* Estimator audit (config.audit): predict each logical query's output nnz
   under *both* estimator kinds from purely inferred statistics — two
   shadow contexts see only the inputs and the logical plan, never the
   materialized tensors — so the audit measures the estimators themselves,
   not the JIT refresh.  Actuals are filled in by [audit_observe] after
   execution. *)
let audit_predict (inputs : (string * T.t) list)
    (logical_plan : Logical_query.t list) : Obs.Audit.t =
  let a = Obs.Audit.create () in
  let shadow kind =
    let schema = Schema.create () in
    List.iter (fun (name, t) -> Schema.declare_tensor schema name t) inputs;
    let ctx = Ctx.create ~kind schema in
    List.iter (fun (name, t) -> ctx.Ctx.register_input name t) inputs;
    ctx
  in
  let shadows = [ shadow Ctx.Uniform_kind; shadow Ctx.Chain_kind ] in
  List.iter
    (fun (q : Logical_query.t) ->
      let name = q.Logical_query.name in
      List.iter
        (fun (sctx : Ctx.t) ->
          let estimator = Ctx.kind_to_string sctx.Ctx.kind in
          let predicted =
            try
              register_query_estimated sctx q;
              sctx.Ctx.estimate_expr
                (Ir.Alias (name, q.Logical_query.output_idxs))
            with _ ->
              Obs.Log.warn "audit: %s estimator failed to predict %s"
                estimator name;
              Float.nan
          in
          Obs.Audit.predict a ~query:name ~estimator predicted)
        shadows)
    logical_plan;
  a

let audit_observe (a : Obs.Audit.t) (exec : Galley_engine.Exec.t)
    (logical_plan : Logical_query.t list) : unit =
  List.iter
    (fun (q : Logical_query.t) ->
      let name = q.Logical_query.name in
      match Galley_engine.Exec.lookup_opt exec name with
      | Some t -> Obs.Audit.observe a ~query:name (float_of_int (T.nnz t))
      | None -> ())
    logical_plan

(* The statistics context for [inputs], and the seconds building it took. *)
let make_ctx (config : config) (inputs : (string * T.t) list) : Ctx.t * float =
  let t0 = now () in
  let ctx =
    Obs.span ~cat:"phase" ~name:"stats.input"
      ~attrs:(fun () -> [ ("inputs", string_of_int (List.length inputs)) ])
      (fun () ->
        let schema = Schema.create () in
        List.iter (fun (name, t) -> Schema.declare_tensor schema name t) inputs;
        let ctx = Ctx.create ~kind:config.estimator schema in
        List.iter (fun (name, t) -> ctx.Ctx.register_input name t) inputs;
        ctx)
  in
  (Faults.wrap_ctx config.faults ctx, now () -. t0)

let opt_budget (config : config) : float =
  match config.optimizer_timeout with Some s -> s | None -> 0.0

let collect_outputs (exec : Galley_engine.Exec.t)
    (logical_plan : Logical_query.t list) (outputs : string list) :
    (string * Ir.idx list * T.t) list * string list =
  let found =
    List.filter_map
      (fun name ->
        match
          ( List.find_opt
              (fun (q : Logical_query.t) -> q.Logical_query.name = name)
              logical_plan,
            Galley_engine.Exec.lookup_opt exec name )
        with
        | Some q, Some t -> Some (name, q.Logical_query.output_idxs, t)
        | _ -> None)
      outputs
  in
  let incomplete =
    List.filter
      (fun n -> not (List.exists (fun (m, _, _) -> m = n) found))
      outputs
  in
  (found, incomplete)

let validate_logical ~(config : config) ~(known : string -> bool)
    ~(outputs : string list) (logical_plan : Logical_query.t list) : unit =
  if config.validate then begin
    cur_phase := Errors.Validation;
    match Validate.logical_plan ~known ~outputs logical_plan with
    | Ok () -> ()
    | Error { Validate.v_query; v_message } ->
        Errors.raise_error
          (Errors.Plan_invalid
             {
               context = Errors.context ?query:v_query Errors.Validation;
               message = v_message;
             })
  end

(* Core physical-planning + execution loop, shared by [run],
   [run_logical_plan], and [Session.run_logical_plan].

   [before_plan] runs per query before planning (sessions register alias
   statistics there).  Returns the completed outputs even when execution
   hits the wall-clock deadline; queries past it are reported in
   [incomplete_outputs]. *)
let execute_queries ~(config : config) ~(ctx : Ctx.t)
    ~(exec : Galley_engine.Exec.t) ~(fresh : unit -> string)
    ~(before_plan : Logical_query.t -> unit)
    ~(logical_plan : Logical_query.t list) ~(outputs : string list) :
    (string * Ir.idx list * T.t) list
    * string list
    * Physical.plan
    * (string * Tier.t) list
    * float
    * bool
    * int =
  Faults.install_exec config.faults exec;
  (* Explicitly clear as well as set: a resident session's executor
     carries state across requests, and a previous request's deadline
     must not bleed into this one. *)
  (match config.timeout with
  | Some s -> Galley_engine.Exec.set_timeout exec s
  | None -> Galley_engine.Exec.clear_timeout exec);
  let physical_seconds = ref 0.0 in
  let all_steps = ref [] in
  let timed_out = ref false in
  let physical_tiers = ref [] in
  let guard_retries = ref 0 in
  let refreshed = Hashtbl.create 16 in
  let planned_names = Hashtbl.create 16 in
  let known n =
    Galley_engine.Exec.lookup_opt exec n <> None || Hashtbl.mem planned_names n
  in
  let plan_one ~refresh (q : Logical_query.t) : Physical.plan =
    let name = q.Logical_query.name in
    cur_phase := Errors.Physical;
    cur_query := Some name;
    let t0 = now () in
    let plan, tier =
      try
        Obs.span ~cat:"phase"
          ~name:("physical_opt:" ^ name)
          (fun () ->
            if refresh then refresh_alias_stats ~refreshed ctx exec q;
            let deadline =
              Option.map (fun s -> now () +. s) config.optimizer_timeout
            in
            Galley_physical.Optimizer.plan_query_tiered ?deadline
              ~degrade:config.degrade ~config:config.physical ctx ~fresh q)
      with Tier.Exhausted ->
        Errors.raise_error
          (Errors.Optimizer_deadline
             {
               context = Errors.context ~query:name Errors.Physical;
               budget = opt_budget config;
             })
    in
    physical_seconds := !physical_seconds +. (now () -. t0);
    if config.validate then begin
      cur_phase := Errors.Validation;
      match Validate.physical_plan ~known plan with
      | Ok () -> ()
      | Error { Validate.v_query; v_message } ->
          Errors.raise_error
            (Errors.Plan_invalid
               {
                 context = Errors.context ?query:v_query Errors.Validation;
                 message = v_message;
               })
    end;
    Hashtbl.replace planned_names name ();
    physical_tiers := (name, tier) :: !physical_tiers;
    plan
  in
  let run_one (q : Logical_query.t) (plan : Physical.plan) : unit =
    let name = q.Logical_query.name in
    cur_phase := Errors.Execution;
    cur_query := Some name;
    try
      Obs.span ~cat:"phase" ~name:("execute:" ^ name)
        ~attrs:(fun () -> [ ("steps", string_of_int (List.length plan)) ])
        (fun () -> Galley_engine.Exec.run_plan exec plan)
    with
    | Galley_engine.Exec.Timeout -> raise Galley_engine.Exec.Timeout
    | Errors.Galley_error _ as e -> raise e
    | Faults.Injected_kernel_failure n ->
        Errors.raise_error
          (Errors.Kernel_failure
             {
               context = Errors.context ~query:name Errors.Execution;
               invocation = Some n;
               message = "injected kernel fault";
             })
    | (Stack_overflow | Out_of_memory) as e -> raise e
    | exn ->
        Errors.raise_error
          (Errors.Kernel_failure
             {
               context = Errors.context ~query:name Errors.Execution;
               invocation = None;
               message = Printexc.to_string exn;
             })
  in
  (* The nnz guardrail (estimated vs. materialized intermediate size).
     First trip: register measured statistics for the offender and force
     JIT-style re-planning of the remaining queries.  Second trip: give
     up with [Budget_exceeded]. *)
  let use_jit = ref config.jit in
  let queries = Array.of_list logical_plan in
  let n_queries = Array.length queries in
  let pre_plans = Array.make (max 1 n_queries) None in
  if not config.jit then
    Array.iteri (fun i q -> pre_plans.(i) <- Some (plan_one ~refresh:false q)) queries;
  let guard_check (q : Logical_query.t) ~(estimate : float) (i : int) : unit =
    match config.nnz_guard with
    | None -> ()
    | Some factor -> (
        let name = q.Logical_query.name in
        match Galley_engine.Exec.lookup_opt exec name with
        | None -> ()
        | Some t ->
            let actual = float_of_int (T.nnz t) in
            if
              Float.is_finite estimate
              && actual > factor *. Float.max 1.0 estimate
            then
              if !guard_retries >= 1 then
                Errors.raise_error
                  (Errors.Budget_exceeded
                     {
                       context = Errors.context ~query:name Errors.Execution;
                       estimated = estimate;
                       actual;
                       message = "re-optimization already spent";
                     })
              else begin
                incr guard_retries;
                Obs.Metrics.incr_named "nnz_guard.retries";
                Obs.Log.info
                  "nnz guard: %s materialized %.0f nnz vs estimate %.0f; \
                   re-optimizing remaining queries from measured statistics"
                  name actual estimate;
                (* Corrected statistics: measure the offender now; replan
                   everything still pending from measured sizes. *)
                Schema.declare_tensor ctx.Ctx.schema name t;
                ctx.Ctx.register_alias_tensor name t;
                Hashtbl.replace refreshed name ();
                use_jit := true;
                for j = i + 1 to n_queries - 1 do
                  pre_plans.(j) <- None
                done
              end)
  in
  let exec_serial () =
    Array.iteri
      (fun i q ->
        before_plan q;
        let plan =
          match pre_plans.(i) with
          | Some plan when not !use_jit -> plan
          | Some _ | None -> plan_one ~refresh:!use_jit q
        in
        let estimate =
          match config.nnz_guard with
          | None -> Float.nan
          | Some _ -> (
              try
                ctx.Ctx.estimate_expr
                  (Ir.Alias (q.Logical_query.name, q.Logical_query.output_idxs))
              with _ -> Float.nan)
        in
        all_steps := !all_steps @ plan;
        run_one q plan;
        guard_check q ~estimate i)
      queries
  in
  (* DAG-parallel schedule: queries grouped into level-synchronous waves
     of the def-use DAG (query i depends on every earlier query whose
     output its body references).  Planning stays serial on this domain —
     the statistics context is not thread-safe, and by the time a wave is
     planned all of its dependencies have materialized, so the JIT
     refresh-then-plan constraint holds wave by wave; only execution fans
     out over the pool.  Outputs are bit-identical to the serial schedule
     (each query is bit-deterministic given its inputs); only scheduling
     artifacts — timings, CSE hit counts, kernel-ordinal assignment — may
     differ. *)
  let exec_parallel (pool : Galley_parallel.Pool.t) =
    let deps =
      Array.init n_queries (fun i ->
          let names =
            List.map fst
              (Ir.referenced_names queries.(i).Logical_query.body)
          in
          List.filter
            (fun j -> List.mem queries.(j).Logical_query.name names)
            (List.init i Fun.id))
    in
    List.iter
      (fun wave ->
        let planned =
          List.map
            (fun i ->
              let q = queries.(i) in
              before_plan q;
              let plan =
                match pre_plans.(i) with
                | Some plan when not !use_jit -> plan
                | Some _ | None -> plan_one ~refresh:!use_jit q
              in
              all_steps := !all_steps @ plan;
              (q, plan))
            wave
        in
        match planned with
        | [ (q, plan) ] -> run_one q plan
        | _ ->
            Galley_parallel.Pool.run_all pool
              (Array.of_list
                 (List.map (fun (q, plan) () -> run_one q plan) planned)))
      (Galley_parallel.Dag.waves ~n:n_queries ~deps:(fun i -> deps.(i)))
  in
  Fun.protect
    ~finally:(fun () -> Galley_engine.Exec.shutdown exec)
    (fun () ->
      try
        (* The nnz guardrail forces mid-run corrective replanning keyed to
           serial execution order, so it pins the serial schedule. *)
        if
          config.nnz_guard = None
          && n_queries > 1
          && Galley_engine.Exec.pool_size exec > 1
        then exec_parallel (Galley_engine.Exec.pool exec)
        else exec_serial ()
      with Galley_engine.Exec.Timeout -> timed_out := true);
  let found, incomplete =
    Obs.span ~cat:"phase" ~name:"collect_outputs" (fun () ->
        collect_outputs exec logical_plan outputs)
  in
  ( found,
    incomplete,
    !all_steps,
    List.rev !physical_tiers,
    !physical_seconds,
    !timed_out,
    !guard_retries )

(* Physical optimization + execution of an already-logical plan. *)
let execute_logical ~(config : config) ~(ctx : Ctx.t)
    ~(inputs : (string * T.t) list) ~(logical_plan : Logical_query.t list)
    ~(outputs : string list) ~(stats_seconds : float)
    ~(logical_seconds : float) ~(logical_tiers : (string * Tier.t) list) :
    result =
  validate_logical ~config
    ~known:(fun n -> List.mem_assoc n inputs)
    ~outputs logical_plan;
  let audit =
    if config.audit then
      Some
        (Obs.span ~cat:"phase" ~name:"audit_predict" (fun () ->
             audit_predict inputs logical_plan))
    else None
  in
  let exec =
    Galley_engine.Exec.create ~cse:config.cse ~backend:config.kernel_backend
      ~domains:config.domains ~kernel_cache_cap:config.kernel_cache_cap
      ~cse_cache_cap:config.cse_cache_cap ()
  in
  List.iter (fun (name, t) -> Galley_engine.Exec.bind exec name t) inputs;
  let counter = ref 0 in
  let fresh () =
    incr counter;
    Printf.sprintf "#p%d" !counter
  in
  let ( outputs,
        incomplete_outputs,
        physical_plan,
        physical_tiers,
        physical_seconds,
        timed_out,
        nnz_guard_retries ) =
    execute_queries ~config ~ctx ~exec ~fresh
      ~before_plan:(fun _ -> ())
      ~logical_plan ~outputs
  in
  Option.iter (fun a -> audit_observe a exec logical_plan) audit;
  let timings = exec.Galley_engine.Exec.timings in
  {
    outputs;
    incomplete_outputs;
    logical_plan;
    physical_plan;
    logical_tiers;
    physical_tiers;
    timings =
      {
        stats_seconds;
        logical_seconds;
        physical_seconds;
        compile_seconds = timings.Galley_engine.Exec.compile_time;
        execute_seconds = timings.Galley_engine.Exec.exec_time;
        total_seconds =
          stats_seconds +. logical_seconds +. physical_seconds
          +. timings.Galley_engine.Exec.compile_time
          +. timings.Galley_engine.Exec.exec_time;
        compile_count = timings.Galley_engine.Exec.compile_count;
        kernel_count = timings.Galley_engine.Exec.kernel_count;
        cse_hits = timings.Galley_engine.Exec.cse_hits;
      };
    timed_out;
    nnz_guard_retries;
    audit;
  }

let run ?(config = default_config) ~(inputs : (string * T.t) list)
    (program : Ir.program) : result =
  let program = resolve_names program in
  let ctx, stats_seconds = make_ctx config inputs in
  cur_phase := Errors.Logical;
  cur_query := None;
  let t0 = now () in
  let logical_plan, logical_tiers =
    try
      Obs.span ~cat:"phase" ~name:"logical_opt"
        ~attrs:(fun () ->
          [ ("queries", string_of_int (List.length program.Ir.queries)) ])
        (fun () ->
          Galley_logical.Optimizer.optimize_program_tiered
            ?timeout:config.optimizer_timeout ~degrade:config.degrade
            config.logical ctx program)
    with Tier.Exhausted ->
      Errors.raise_error
        (Errors.Optimizer_deadline
           {
             context = Errors.context ?query:!cur_query Errors.Logical;
             budget = opt_budget config;
           })
  in
  let logical_seconds = now () -. t0 in
  execute_logical ~config ~ctx ~inputs ~logical_plan
    ~outputs:program.Ir.outputs ~stats_seconds ~logical_seconds ~logical_tiers

(* Run a hand-written logical plan directly, bypassing the logical
   optimizer: this is how the "hand-coded kernel" baselines of the
   evaluation are expressed, so that they execute on the same engine. *)
let run_logical_plan ?(config = default_config)
    ~(inputs : (string * T.t) list) ~(outputs : string list)
    (logical_plan : Logical_query.t list) : result =
  let ctx, stats_seconds = make_ctx config inputs in
  (* Register every query's output so estimation can see the aliases. *)
  List.iter (register_query_estimated ctx) logical_plan;
  execute_logical ~config ~ctx ~inputs ~logical_plan ~outputs ~stats_seconds
    ~logical_seconds:0.0 ~logical_tiers:[]

(* Convenience wrapper for single-query programs. *)
let run_query ?config ~inputs (q : Ir.query) : result =
  run ?config ~inputs { Ir.queries = [ q ]; outputs = [ q.Ir.name ] }

(* ------------------------------------------------------------------ *)
(* Checked entry points.                                                *)
(* ------------------------------------------------------------------ *)

let run_checked ?config ~inputs (program : Ir.program) :
    (result, Errors.t) Result.t =
  match run ?config ~inputs program with
  | r -> Ok r
  | exception Errors.Galley_error e -> Error e
  | exception Tier.Exhausted ->
      Error
        (Errors.Optimizer_deadline
           {
             context = error_context ();
             budget =
               opt_budget (match config with Some c -> c | None -> default_config);
           })
  | exception ((Invalid_argument _ | Failure _) as exn) ->
      Error (Errors.of_exn (error_context ()) exn)

let parse_checked (src : string) : (Ir.program, Errors.t) Stdlib.result =
  match
    Obs.span ~cat:"phase" ~name:"parse"
      ~attrs:(fun () -> [ ("bytes", string_of_int (String.length src)) ])
      (fun () -> Galley_lang.Parser.parse_program src)
  with
  | p -> Ok p
  | exception Galley_lang.Parser.Parse_error { message; pos } ->
      Error (Errors.Parse_error { message; position = pos })
  | exception Galley_lang.Lexer.Lex_error (message, pos) ->
      Error (Errors.Parse_error { message; position = pos })

let run_source_checked ?config ~inputs (src : string) :
    (result, Errors.t) Stdlib.result =
  Result.bind (parse_checked src) (fun program ->
      run_checked ?config ~inputs program)

(* ------------------------------------------------------------------ *)
(* Incremental sessions.                                               *)
(* ------------------------------------------------------------------ *)

(* A session keeps the statistics context and the engine (kernel cache, CSE
   cache) alive across calls: input statistics are computed once per
   binding, and re-running a structurally identical plan (e.g. one BFS
   iteration at a time, paper Sec. 9.3) reuses compiled kernels — the same
   amortization Finch's kernel cache provides. *)
module Session = struct
  type session = {
    s_config : config;
    s_ctx : Ctx.t;
    s_exec : Galley_engine.Exec.t;
    mutable s_inputs : (string * T.t) list;
    mutable s_counter : int;
    s_defined : (string, unit) Hashtbl.t;
        (* names materialized by earlier queries in this session: later
           programs referring to them resolve to [Alias] leaves, so a
           resident daemon's clients can build on prior results *)
  }

  let create ?(config = default_config) () : session =
    let schema = Schema.create () in
    {
      s_config = config;
      s_ctx = Faults.wrap_ctx config.faults (Ctx.create ~kind:config.estimator schema);
      s_exec =
        Galley_engine.Exec.create ~cse:config.cse
          ~backend:config.kernel_backend ~domains:config.domains
          ~kernel_cache_cap:config.kernel_cache_cap
          ~cse_cache_cap:config.cse_cache_cap ();
      s_inputs = [];
      s_counter = 0;
      s_defined = Hashtbl.create 16;
    }

  let config (s : session) : config = s.s_config
  let exec (s : session) : Galley_engine.Exec.t = s.s_exec

  (* Bind or rebind an input tensor; statistics are (re)computed here, not
     per run. *)
  let bind (s : session) (name : string) (tensor : T.t) : unit =
    Obs.span ~cat:"phase" ~name:"stats.input"
      ~attrs:(fun () -> [ ("inputs", "1") ])
      (fun () ->
        Schema.declare_tensor s.s_ctx.Ctx.schema name tensor;
        s.s_ctx.Ctx.register_input name tensor);
    Galley_engine.Exec.bind s.s_exec name tensor;
    Hashtbl.remove s.s_defined name;
    s.s_inputs <- (name, tensor) :: List.remove_assoc name s.s_inputs

  let fresh (s : session) () =
    s.s_counter <- s.s_counter + 1;
    Printf.sprintf "#s%d" s.s_counter

  (* Register one query's output for estimation: measured when already
     materialized (JIT), else inferred from its defining expression. *)
  let register_query (s : session) (q : Logical_query.t) : unit =
    register_query_estimated s.s_ctx q;
    Hashtbl.replace s.s_defined q.Logical_query.name ()

  (* Shared tail of [run_logical_plan] and [run_program]: physically
     optimize + execute against the resident executor, reporting
     compile/execute timings as deltas so per-request numbers stay
     meaningful on a long-lived session. *)
  let session_execute (s : session) ~(config : config)
      ~(logical_plan : Logical_query.t list)
      ~(logical_tiers : (string * Tier.t) list) ~(logical_seconds : float)
      ~(outputs : string list) : result =
    let ctx = s.s_ctx in
    let exec = s.s_exec in
    validate_logical ~config
      ~known:(fun n -> Galley_engine.Exec.lookup_opt exec n <> None)
      ~outputs logical_plan;
    let audit =
      if config.audit then begin
        (* The shadow contexts need every tensor this plan can reference:
           session inputs plus residents materialized by earlier queries
           (whose [Alias] leaves resolve exactly like inputs). *)
        let resident =
          Hashtbl.fold
            (fun n () acc ->
              match Galley_engine.Exec.lookup_opt exec n with
              | Some t when not (List.mem_assoc n s.s_inputs) -> (n, t) :: acc
              | _ -> acc)
            s.s_defined []
        in
        Some
          (Obs.span ~cat:"phase" ~name:"audit_predict" (fun () ->
               audit_predict (s.s_inputs @ resident) logical_plan))
      end
      else None
    in
    let t_before = exec.Galley_engine.Exec.timings in
    let compile0 = t_before.Galley_engine.Exec.compile_time in
    let exec0 = t_before.Galley_engine.Exec.exec_time in
    let compile_n0 = t_before.Galley_engine.Exec.compile_count in
    let kernel_n0 = t_before.Galley_engine.Exec.kernel_count in
    let cse0 = t_before.Galley_engine.Exec.cse_hits in
    let ( outputs,
          incomplete_outputs,
          physical_plan,
          physical_tiers,
          physical_seconds,
          timed_out,
          nnz_guard_retries ) =
      execute_queries ~config ~ctx ~exec ~fresh:(fresh s)
        ~before_plan:(register_query s) ~logical_plan ~outputs
    in
    Option.iter (fun a -> audit_observe a exec logical_plan) audit;
    let t_after = exec.Galley_engine.Exec.timings in
    {
      outputs;
      incomplete_outputs;
      logical_plan;
      physical_plan;
      logical_tiers;
      physical_tiers;
      timings =
        {
          stats_seconds = 0.0;
          logical_seconds;
          physical_seconds;
          compile_seconds = t_after.Galley_engine.Exec.compile_time -. compile0;
          execute_seconds = t_after.Galley_engine.Exec.exec_time -. exec0;
          total_seconds =
            logical_seconds +. physical_seconds
            +. t_after.Galley_engine.Exec.compile_time -. compile0
            +. t_after.Galley_engine.Exec.exec_time -. exec0;
          compile_count = t_after.Galley_engine.Exec.compile_count - compile_n0;
          kernel_count = t_after.Galley_engine.Exec.kernel_count - kernel_n0;
          cse_hits = t_after.Galley_engine.Exec.cse_hits - cse0;
        };
      timed_out;
      nnz_guard_retries;
      audit;
    }

  (* Run a hand-written logical plan against the session state. *)
  let run_logical_plan (s : session) ~(outputs : string list)
      (logical_plan : Logical_query.t list) : result =
    session_execute s ~config:s.s_config ~logical_plan ~logical_tiers:[]
      ~logical_seconds:0.0 ~outputs

  (* Rewrite [Input] leaves that refer to tensors materialized by earlier
     session queries into [Alias] leaves ([resolve_names] only sees the
     current program; this sees the whole resident history). *)
  let resolve_resident (s : session) (p : Ir.program) : Ir.program =
    let queries =
      List.map
        (fun (q : Ir.query) ->
          let rec fix (e : Ir.expr) : Ir.expr =
            match e with
            | Ir.Input (n, idxs) when Hashtbl.mem s.s_defined n ->
                Ir.Alias (n, idxs)
            | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> e
            | Ir.Map (op, args) -> Ir.Map (op, List.map fix args)
            | Ir.Agg (op, idxs, body) -> Ir.Agg (op, idxs, fix body)
          in
          { q with Ir.expr = fix q.Ir.expr })
        p.Ir.queries
    in
    { p with Ir.queries }

  (* Full pipeline (logical + physical optimization + execution) against
     the resident session: the serving hot path.  [config] overrides the
     per-request knobs (timeouts, degradation, optimizer tier, faults);
     structural fields baked into the resident executor at [create] time
     (estimator kind, backend, domains, CSE, cache caps) are fixed.

     The physical-intermediate name counter restarts per program so that
     a structurally identical request regenerates identical intermediate
     names — together with version-stable rebinding in the engine this
     lets a repeated request replay entirely from the resident CSE cache
     (zero kernels run on the warm path). *)
  let run_program (s : session) ?config (program : Ir.program) : result =
    let config = match config with Some c -> c | None -> s.s_config in
    let program = resolve_resident s (resolve_names program) in
    s.s_counter <- 0;
    cur_phase := Errors.Logical;
    cur_query := None;
    let t0 = now () in
    let logical_plan, logical_tiers =
      try
        Obs.span ~cat:"phase" ~name:"logical_opt"
          ~attrs:(fun () ->
            [ ("queries", string_of_int (List.length program.Ir.queries)) ])
          (fun () ->
            Galley_logical.Optimizer.optimize_program_tiered
              ?timeout:config.optimizer_timeout ~degrade:config.degrade
              config.logical s.s_ctx program)
      with Tier.Exhausted ->
        Errors.raise_error
          (Errors.Optimizer_deadline
             {
               context = Errors.context ?query:!cur_query Errors.Logical;
               budget = opt_budget config;
             })
    in
    let logical_seconds = now () -. t0 in
    session_execute s ~config ~logical_plan ~logical_tiers ~logical_seconds
      ~outputs:program.Ir.outputs

  (* [run_program] with classified failures as [Error]: the per-request
     isolation boundary of `galley serve`.  A failed request leaves the
     resident caches and bindings consistent (at worst with extra
     intermediates, which are version-guarded). *)
  let run_program_checked (s : session) ?config (program : Ir.program) :
      (result, Errors.t) Stdlib.result =
    match run_program s ?config program with
    | r -> Ok r
    | exception Errors.Galley_error e -> Error e
    | exception Tier.Exhausted ->
        Error
          (Errors.Optimizer_deadline
             {
               context = error_context ();
               budget =
                 opt_budget
                   (match config with Some c -> c | None -> s.s_config);
             })
    | exception ((Invalid_argument _ | Failure _) as exn) ->
        Error (Errors.of_exn (error_context ()) exn)

  let lookup (s : session) (name : string) : T.t option =
    Galley_engine.Exec.lookup_opt s.s_exec name
end
