(** End-to-end Galley driver (paper Fig. 3):

    input program → logical optimizer → physical optimizer → engine.

    Just-in-time physical optimization (paper Sec. 8.1) is the default:
    each logical query is physically optimized only after its aliases have
    executed, with statistics refreshed from the materialized tensors.

    Resilience (DESIGN.md "Failure model"): both optimizers run under an
    optional per-query deadline with a degradation ladder (exact → greedy
    → naive), plans are validated between phases, failures are classified
    into {!Errors.t} (surfaced by {!run_checked}), fault injection is
    driven by [config.faults], and an optional nnz guardrail compares
    estimated vs. materialized intermediate sizes. *)

open Galley_plan
module T = Galley_tensor.Tensor
module Ctx = Galley_stats.Ctx

type config = {
  estimator : Ctx.kind;  (** sparsity estimator (default: chain bound) *)
  logical : Galley_logical.Optimizer.config;
  physical : Galley_physical.Optimizer.config;
  jit : bool;  (** just-in-time physical optimization (Sec. 8.1) *)
  cse : bool;  (** common sub-expression elimination (Sec. 8.2) *)
  timeout : float option;  (** execution wall-clock budget in seconds *)
  optimizer_timeout : float option;
      (** per-query optimizer budget in seconds; past it the optimizer
          degrades down the ladder (or errors, with [degrade = false]) *)
  degrade : bool;
      (** [false] turns an exhausted optimizer budget into
          {!Errors.Optimizer_deadline} instead of degrading *)
  validate : bool;  (** run the inter-phase plan validator (default on) *)
  faults : Faults.t;  (** fault injection; [Faults.none] = off *)
  nnz_guard : float option;
      (** flag an intermediate whose materialized nnz exceeds this factor
          times its estimate; one corrective re-optimization with measured
          statistics, then {!Errors.Budget_exceeded} *)
  kernel_backend : Galley_engine.Exec.backend;
      (** which kernel compiler the engine uses: the staged closure
          compiler ([Staged], the default) or the constraint-tree
          interpreter ([Interp]), retained as the differential oracle *)
  domains : int;
      (** engine parallelism: size of the domain pool shared by
          DAG-parallel query execution and intra-kernel chunking; [1] is
          the exact serial path.  Outputs are bit-identical at every
          setting.  Defaults to [GALLEY_DOMAINS] when set, else
          [Domain.recommended_domain_count ()]. *)
  audit : bool;
      (** record predicted nnz for every materialized intermediate under
          both estimators (uniform and chain-bound, from purely inferred
          shadow statistics) and compare with actual nnz after execution;
          the comparison lands in [result.audit].  Default off. *)
  kernel_cache_cap : int;
      (** LRU bound on the engine's resident kernel cache (entries);
          evictions are counted in the [kernel_cache.evictions] metric *)
  cse_cache_cap : int;
      (** LRU bound on the resident CSE result cache (entries);
          evictions are counted in [cse_cache.evictions] *)
}

(** The default [domains]: the [GALLEY_DOMAINS] environment variable when
    set to a positive integer, else [Domain.recommended_domain_count ()]. *)
val default_domains : int

(** Chain-bound estimator, branch-and-bound logical search, JIT, CSE;
    validation on, no deadlines, no faults, no guardrail. *)
val default_config : config

(** [default_config] with the greedy logical optimizer. *)
val greedy_config : config

type timings = {
  stats_seconds : float;
      (** building the input statistics ([stats.input] span); 0 on
          session runs, whose statistics are built when inputs are bound *)
  logical_seconds : float;
  physical_seconds : float;
  compile_seconds : float;  (** kernel-cache misses only *)
  execute_seconds : float;
  total_seconds : float;  (** the sum of the five layers above *)
  compile_count : int;
  kernel_count : int;
  cse_hits : int;
}

type result = {
  outputs : (string * Ir.idx list * T.t) list;
      (** program outputs: name, dimension order, tensor *)
  incomplete_outputs : string list;
      (** requested outputs not materialized (e.g. past the execution
          deadline); empty on a complete run *)
  logical_plan : Logical_query.t list;
  physical_plan : Physical.plan;
  logical_tiers : (string * Tier.t) list;
      (** per input query: which optimizer tier produced its logical plan
          (empty for hand-written logical plans) *)
  physical_tiers : (string * Tier.t) list;
      (** per logical query: which tier produced its physical plan *)
  timings : timings;
  timed_out : bool;
      (** true = execution hit the wall-clock budget; [outputs] then holds
          the queries that completed before the deadline and
          [incomplete_outputs] the rest *)
  nnz_guard_retries : int;
      (** corrective re-optimizations triggered by the nnz guardrail *)
  audit : Galley_obs.Audit.t option;
      (** predicted-vs-actual nnz per materialized intermediate; [Some]
          exactly when [config.audit] was set *)
}

(** Look up an output tensor by name; raises [Invalid_argument] naming the
    outputs that do exist if absent. *)
val output_of : result -> string -> T.t

(** Result-returning variant of {!output_of}. *)
val output_res : result -> string -> (T.t, string) Stdlib.result

(** Rewrite [Input] leaves that refer to earlier query outputs into
    [Alias] leaves (applied automatically by {!run}). *)
val resolve_names : Ir.program -> Ir.program

(** Optimize and execute a whole program against the given input tensors. *)
val run : ?config:config -> inputs:(string * T.t) list -> Ir.program -> result

(** Like {!run}, but classified failures come back as [Error] instead of
    exceptions. *)
val run_checked :
  ?config:config ->
  inputs:(string * T.t) list ->
  Ir.program ->
  (result, Errors.t) Result.t

(** Parse program source, mapping parser/lexer failures to
    {!Errors.Parse_error} with a character position. *)
val parse_checked : string -> (Ir.program, Errors.t) Stdlib.result

(** [parse_checked] composed with [run_checked]. *)
val run_source_checked :
  ?config:config ->
  inputs:(string * T.t) list ->
  string ->
  (result, Errors.t) Stdlib.result

(** Execute a hand-written logical plan, bypassing the logical optimizer:
    how the paper's hand-coded kernel baselines are expressed, so they run
    on the same engine. *)
val run_logical_plan :
  ?config:config ->
  inputs:(string * T.t) list ->
  outputs:string list ->
  Logical_query.t list ->
  result

(** Single-query convenience wrapper around {!run}. *)
val run_query : ?config:config -> inputs:(string * T.t) list -> Ir.query -> result

(** Incremental sessions: keep input statistics, named result tensors,
    and the engine's kernel/CSE caches alive across calls (one BFS
    iteration at a time, paper Sec. 9.3 — or one request at a time in
    `galley serve`, which is how the Fig. 9 cold/warm amortization pays
    off across a query stream). *)
module Session : sig
  type session

  val create : ?config:config -> unit -> session

  (** The configuration the session was created with. *)
  val config : session -> config

  (** The session's resident executor (cache occupancy, resident-tensor
      counts for health reporting). *)
  val exec : session -> Galley_engine.Exec.t

  (** Bind or rebind an input; statistics are (re)computed here. *)
  val bind : session -> string -> T.t -> unit

  val run_logical_plan :
    session -> outputs:string list -> Logical_query.t list -> result

  (** Full pipeline (logical + physical optimization + execution) against
      the resident session state: the serving hot path.  Query outputs
      stay resident, so later programs can reference them by name.
      [config] overrides per-request knobs (timeouts, degradation,
      optimizer tier, faults); fields baked into the resident executor at
      {!create} (estimator, backend, domains, CSE, cache caps) are fixed.
      Timings report per-call deltas.  A structurally identical repeat
      request replays from the resident CSE cache without running any
      kernels. *)
  val run_program : session -> ?config:config -> Ir.program -> result

  (** Like {!run_program}, with classified failures as [Error]: the
      per-request isolation boundary of `galley serve`.  A failed request
      leaves resident state consistent. *)
  val run_program_checked :
    session -> ?config:config -> Ir.program -> (result, Errors.t) Stdlib.result

  val lookup : session -> string -> T.t option
end
