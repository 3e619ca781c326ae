(* Fixpoint subsystem: the `iterate` construct (DESIGN.md §13).

   An iterate statement runs its body — an ordinary Galley program
   fragment — repeatedly against a resident [Driver.Session], rebinding
   the loop-carried tensors between iterations.  Because each rebind
   recomputes measured statistics and each iteration re-enters the full
   logical + physical optimizer, plans and storage formats track the
   data as it densifies (the paper's Fig. 10 mechanism, generalized):
   when the statistics drift enough, the optimizer switches plans, and
   when they do not, the structurally identical program hits the
   resident kernel cache and recompiles nothing.

   Semantics of one iteration:

     - body statements run in order; `:=` updates are Gauss-Seidel
       (visible to later statements in the same iteration), while a
       statement's own right-hand side sees the pre-update value;
     - a primed name `X'` denotes the value the carried tensor X held
       at the start of the iteration;
     - the `until` condition, when present, is evaluated after the body
       as a scalar Galley query over the new values (nonzero =
       converged) — convergence testing is itself just a query and goes
       through the same optimizer and caches.

   Failure model: hitting the iteration cap with an unsatisfied `until`
   condition, or the wall-clock deadline before convergence, raises
   [Errors.Fixpoint_diverged]; the checked entry points surface it as a
   structured [Error] like every other taxonomy member. *)

module T = Galley_tensor.Tensor
module D = Galley.Driver
module E = Galley.Errors
module Obs = Galley_obs
module Metrics = Galley_obs.Metrics
open Galley_plan

let default_max_iters = 100

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Per-iteration reporting                                              *)
(* ------------------------------------------------------------------ *)

type iter_stat = {
  it_seconds : float; (* whole-pipeline time for this iteration *)
  it_compile_count : int; (* cold kernel compiles (0 = all warm) *)
  it_cse_hits : int;
  it_delta : float option;
      (* left-hand side of a comparison-shaped until condition: the
         natural "per-iteration delta" (residual, frontier size, ...) *)
  it_converged : bool; (* until condition value after this iteration *)
  it_replanned : bool; (* physical plan differs from previous iteration *)
  it_switch : string option;
      (* when replanned: the structural plan diff plus the refreshed
         carried-tensor statistics that flipped the decision *)
  it_nnz : (string * int) list; (* carried name -> nnz after update *)
  it_formats : (string * string) list; (* carried name -> chosen formats *)
}

type fix_report = {
  fr_name : string;
  fr_iterations : int;
  fr_converged : bool;
  fr_replans : int; (* iterations whose plan differed from the previous *)
  fr_switch_iters : int list; (* 1-based indices of those iterations *)
  fr_iters : iter_stat list; (* in iteration order *)
}

(* ------------------------------------------------------------------ *)
(* Iteration-program construction                                       *)
(* ------------------------------------------------------------------ *)

(* Internal names: '@' and '#' cannot appear in a lexed identifier, so
   these can never collide with source-level tensor names. *)
let next_name x = x ^ "@next"
let cond_name = "#fixcond"
let delta_name = "#fixdelta"

let plan_invalid ?query message =
  E.raise_error
    (E.Plan_invalid { context = E.context ?query E.Execution; message })

let diverged ?query ~iterations message =
  E.raise_error
    (E.Fixpoint_diverged
       { context = E.context ?query E.Execution; iterations; message })

(* Strip one trailing prime: "X'" -> Some "X". *)
let primed_stem (n : string) : string option =
  let l = String.length n in
  if l >= 2 && n.[l - 1] = '\'' then Some (String.sub n 0 (l - 1)) else None

(* Rewrite leaf names for the iteration program.  [env] maps a carried
   name to the name currently holding its newest value ("X" before its
   update, "X@next" after — Gauss-Seidel); a primed leaf "X'" always
   reads the carried tensor's session binding, i.e. its start-of-
   iteration value. *)
let rec rewrite_names (env : (string, string) Hashtbl.t)
    (carried : (string, unit) Hashtbl.t) (e : Ir.expr) : Ir.expr =
  match e with
  | Ir.Input (n, idxs) | Ir.Alias (n, idxs) -> (
      match primed_stem n with
      | Some stem when Hashtbl.mem carried stem -> Ir.Input (stem, idxs)
      | _ -> (
          match Hashtbl.find_opt env n with
          | Some n' -> Ir.Input (n', idxs)
          | None -> e))
  | Ir.Literal _ -> e
  | Ir.Map (op, args) -> Ir.Map (op, List.map (rewrite_names env carried) args)
  | Ir.Agg (op, idxs, body) ->
      Ir.Agg (op, idxs, rewrite_names env carried body)

(* Lower one fixpoint body + condition into the per-iteration program.
   The program is structurally identical every iteration (same query
   names, same shape), so an unchanged plan replays warm kernels; only
   the carried bindings (and hence statistics) move between runs.
   Returns the program and whether a separate delta query was carved
   out of a comparison-shaped condition. *)
let build_iteration (f : Ir.fixpoint) : Ir.program * bool =
  let carried_list = Ir.carried_names f in
  let carried = Hashtbl.create 8 in
  List.iter (fun n -> Hashtbl.replace carried n ()) carried_list;
  let env : (string, string) Hashtbl.t = Hashtbl.create 8 in
  let seen_update = Hashtbl.create 8 in
  let queries =
    List.map
      (fun (u : Ir.body_stmt) ->
        let q = u.Ir.u_query in
        let name = q.Ir.name in
        let expr = rewrite_names env carried q.Ir.expr in
        if u.Ir.u_carried then begin
          if Hashtbl.mem seen_update name then
            plan_invalid ~query:name
              "multiple := updates to the same name in one iterate body";
          Hashtbl.replace seen_update name ();
          Hashtbl.replace env name (next_name name);
          { q with Ir.name = next_name name; Ir.expr = expr }
        end
        else begin
          if Hashtbl.mem carried name then
            plan_invalid ~query:name
              "name is both = defined and := updated in the iterate body";
          { q with Ir.expr = expr }
        end)
      f.Ir.fix_body
  in
  let cond_queries, has_delta =
    match f.Ir.fix_cond with
    | None -> ([], false)
    | Some c ->
        let c = rewrite_names env carried c in
        if not (Ir.Idx_set.is_empty (Ir.free_indices c)) then
          plan_invalid ~query:f.Ir.fix_name
            "until condition must be a scalar (aggregate over all indices)";
        (match c with
        | Ir.Map
            ( ((Op.Lt | Op.Leq | Op.Gt | Op.Geq | Op.Eq | Op.Neq) as cmp),
              [ lhs; rhs ] ) ->
            (* Comparison-shaped condition: materialize the left-hand
               side separately so per-iteration deltas can be reported
               (and CSE shares it with the condition itself). *)
            ( [
                Ir.query delta_name lhs;
                Ir.query cond_name
                  (Ir.Map (cmp, [ Ir.Alias (delta_name, []); rhs ]));
              ],
              true )
        | _ -> ([ Ir.query cond_name c ], false))
  in
  let outputs =
    List.map next_name carried_list
    @ (if has_delta then [ delta_name ] else [])
    @ (match cond_queries with [] -> [] | _ -> [ cond_name ])
  in
  ({ Ir.queries = queries @ cond_queries; outputs }, has_delta)

(* ------------------------------------------------------------------ *)
(* The fixpoint loop                                                    *)
(* ------------------------------------------------------------------ *)

let formats_string (t : T.t) : string =
  String.concat ","
    (Array.to_list (Array.map T.format_to_string (T.formats t)))

(* Remaining wall-clock budget, or a divergence error once spent. *)
let remaining ~(deadline : float option) ~(name : string) ~(iterations : int)
    : float option =
  match deadline with
  | None -> None
  | Some d ->
      let rem = d -. now () in
      if rem <= 0.0 then
        diverged ~query:name ~iterations
          "wall-clock deadline reached before convergence"
      else Some rem

(* Run one fixpoint statement to completion against the session.
   Returns the results of every iteration (for timing aggregation; last
   one carries the final plans/tiers) and the report. *)
let run_fixpoint (s : D.Session.session) ~(config : D.config)
    ~(deadline : float option) (f : Ir.fixpoint) :
    D.result list * fix_report =
  let name = f.Ir.fix_name in
  let carried_list = Ir.carried_names f in
  List.iter
    (fun n ->
      if D.Session.lookup s n = None then
        plan_invalid ~query:n
          (Printf.sprintf
             "loop-carried %s needs an initial binding before iterate" n))
    carried_list;
  let prog, has_delta = build_iteration f in
  let max_iters =
    match f.Ir.fix_max_iters with Some n -> n | None -> default_max_iters
  in
  let results = ref [] in
  let stats = ref [] in
  let switches = ref [] in
  let fingerprint = ref None in
  let prev_plan : Physical.plan option ref = ref None in
  (* Carried-tensor nnz as seen by the optimizer: [feed_cur] fed this
     iteration's plan, [feed_prev] the previous one's — their delta is
     the refreshed statistic a plan switch is attributed to. *)
  let initial_nnz =
    List.map
      (fun n ->
        (n, match D.Session.lookup s n with Some t -> T.nnz t | None -> 0))
      carried_list
  in
  let feed_cur = ref initial_nnz in
  let feed_prev = ref initial_nnz in
  let converged = ref false in
  let iters = ref 0 in
  Obs.span ~cat:"phase" ~name:("fixpoint:" ^ name)
    ~attrs:(fun () ->
      [
        ("carried", String.concat "," carried_list);
        ("max_iters", string_of_int max_iters);
      ])
    (fun () ->
      while (not !converged) && !iters < max_iters do
        let i = !iters + 1 in
        let timeout = remaining ~deadline ~name ~iterations:!iters in
        (* Filled in by the iteration body below; the attrs thunk is only
           forced when the span is emitted, i.e. after the body returns,
           so each fixpoint_iter span reports what the iteration did. *)
        let at_delta = ref None in
        let at_replanned = ref false in
        let at_compiles = ref 0 in
        Obs.span ~cat:"phase"
          ~name:("fixpoint_iter:" ^ name)
          ~attrs:(fun () ->
            [
              ("iter", string_of_int i);
              ( "delta",
                match !at_delta with
                | Some d -> Printf.sprintf "%.6g" d
                | None -> "-" );
              ("replanned", string_of_bool !at_replanned);
              ("compiles", string_of_int !at_compiles);
            ])
          (fun () ->
            let res =
              D.Session.run_program s ~config:{ config with timeout } prog
            in
            if res.D.timed_out then
              diverged ~query:name ~iterations:!iters
                "wall-clock deadline reached before convergence";
            let fp = Physical.plan_to_string res.D.physical_plan in
            let replanned =
              match !fingerprint with Some p -> p <> fp | None -> false
            in
            fingerprint := Some fp;
            (* Structural diff + statistic attribution for a switch. *)
            let switch_detail =
              if not replanned then None
              else
                match !prev_plan with
                | None -> None
                | Some pp ->
                    let changes = Plan_diff.diff pp res.D.physical_plan in
                    let stat_deltas =
                      List.filter_map
                        (fun (n, cur) ->
                          match List.assoc_opt n !feed_prev with
                          | Some old when old <> cur ->
                              Some (Printf.sprintf "%s nnz %d->%d" n old cur)
                          | _ -> None)
                        !feed_cur
                    in
                    Some
                      (Plan_diff.summary changes
                      ^
                      match stat_deltas with
                      | [] -> ""
                      | ds -> " [stats: " ^ String.concat ", " ds ^ "]")
            in
            prev_plan := Some res.D.physical_plan;
            let updates =
              List.map
                (fun n -> (n, D.output_of res (next_name n)))
                carried_list
            in
            let conv, delta =
              match f.Ir.fix_cond with
              | None -> (false, None)
              | Some _ ->
                  ( T.scalar_value (D.output_of res cond_name) <> 0.0,
                    if has_delta then
                      Some (T.scalar_value (D.output_of res delta_name))
                    else None )
            in
            (* The iteration's updates take effect regardless of the
               condition: rebinding recomputes measured statistics, so the
               next re-optimization sees the data as it now is. *)
            List.iter (fun (n, t) -> D.Session.bind s n t) updates;
            iters := i;
            converged := conv;
            at_delta := delta;
            at_replanned := replanned;
            at_compiles := res.D.timings.D.compile_count;
            Metrics.incr_named "fixpoint.iterations";
            if replanned then begin
              Metrics.incr_named "fixpoint.replans";
              switches := i :: !switches;
              match switch_detail with
              | Some d ->
                  Obs.Log.info "fixpoint %s: plan switched at iteration %d: %s"
                    name i d
              | None ->
                  Obs.Log.info "fixpoint %s: plan switched at iteration %d"
                    name i
            end;
            results := res :: !results;
            let new_nnz = List.map (fun (n, t) -> (n, T.nnz t)) updates in
            feed_prev := !feed_cur;
            feed_cur := new_nnz;
            stats :=
              {
                it_seconds = res.D.timings.D.total_seconds;
                it_compile_count = res.D.timings.D.compile_count;
                it_cse_hits = res.D.timings.D.cse_hits;
                it_delta = delta;
                it_converged = conv;
                it_replanned = replanned;
                it_switch = switch_detail;
                it_nnz = new_nnz;
                it_formats =
                  List.map (fun (n, t) -> (n, formats_string t)) updates;
              }
              :: !stats)
      done;
      if (not !converged) && f.Ir.fix_cond <> None then
        diverged ~query:name ~iterations:!iters
          (Printf.sprintf
             "until condition still false after the %d-iteration cap"
             max_iters));
  let report =
    {
      fr_name = name;
      fr_iterations = !iters;
      (* A fixed-count loop (no until) completes by definition. *)
      fr_converged = (f.Ir.fix_cond = None || !converged);
      fr_replans = List.length !switches;
      fr_switch_iters = List.rev !switches;
      fr_iters = List.rev !stats;
    }
  in
  Obs.Log.info
    "fixpoint %s: %s after %d iterations (%d plan switch%s)" name
    (if report.fr_converged then "converged" else "stopped")
    report.fr_iterations report.fr_replans
    (if report.fr_replans = 1 then "" else "es");
  (List.rev !results, report)

(* ------------------------------------------------------------------ *)
(* Statement-level program execution                                    *)
(* ------------------------------------------------------------------ *)

type segment = Queries of Ir.query list | Fix of Ir.fixpoint

let segments (p : Ir.xprogram) : segment list =
  let rec go acc cur = function
    | [] -> List.rev (match cur with [] -> acc | _ -> Queries (List.rev cur) :: acc)
    | Ir.Query_stmt q :: rest -> go acc (q :: cur) rest
    | Ir.Fix_stmt f :: rest ->
        let acc =
          match cur with [] -> acc | _ -> Queries (List.rev cur) :: acc
        in
        go (Fix f :: acc) [] rest
  in
  go [] [] p.Ir.stmts

(* Merge the per-segment driver results into one: timings and counters
   sum; plans and tiers come from the representative results (straight-
   line segments, plus each fixpoint's final iteration). *)
let merge_results ~(outputs : (string * Ir.idx list * T.t) list)
    ~(incomplete : string list) (reps : D.result list)
    (all : D.result list) : D.result =
  let sumf f = List.fold_left (fun a r -> a +. f r) 0.0 all in
  let sumi f = List.fold_left (fun a r -> a + f r) 0 all in
  let timings =
    {
      D.stats_seconds = sumf (fun r -> r.D.timings.D.stats_seconds);
      logical_seconds = sumf (fun r -> r.D.timings.D.logical_seconds);
      physical_seconds = sumf (fun r -> r.D.timings.D.physical_seconds);
      compile_seconds = sumf (fun r -> r.D.timings.D.compile_seconds);
      execute_seconds = sumf (fun r -> r.D.timings.D.execute_seconds);
      total_seconds = sumf (fun r -> r.D.timings.D.total_seconds);
      compile_count = sumi (fun r -> r.D.timings.D.compile_count);
      kernel_count = sumi (fun r -> r.D.timings.D.kernel_count);
      cse_hits = sumi (fun r -> r.D.timings.D.cse_hits);
    }
  in
  {
    D.outputs;
    incomplete_outputs = incomplete;
    logical_plan = List.concat_map (fun r -> r.D.logical_plan) reps;
    physical_plan = List.concat_map (fun r -> r.D.physical_plan) reps;
    logical_tiers = List.concat_map (fun r -> r.D.logical_tiers) reps;
    physical_tiers = List.concat_map (fun r -> r.D.physical_tiers) reps;
    timings;
    timed_out = List.exists (fun r -> r.D.timed_out) all;
    nnz_guard_retries = sumi (fun r -> r.D.nnz_guard_retries);
    audit =
      (match List.filter_map (fun r -> r.D.audit) reps with
      | [] -> None
      | [ a ] -> Some a
      | many -> Some (Obs.Audit.concat many));
  }

(* Run a statement-level program (straight-line queries + fixpoints)
   against a resident session.  [config] overrides the per-request
   knobs, exactly like [Session.run_program]; [config.timeout] bounds
   the *whole* program, fixpoint loops included. *)
let run_session (s : D.Session.session) ?config (p : Ir.xprogram) :
    D.result * fix_report list =
  let config =
    match config with Some c -> c | None -> D.Session.config s
  in
  let deadline = Option.map (fun t -> now () +. t) config.D.timeout in
  let reports = ref [] in
  let reps = ref [] in
  let all = ref [] in
  let idx_orders : (string, Ir.idx list) Hashtbl.t = Hashtbl.create 8 in
  let note_result ?(strip_next = false) (r : D.result) =
    List.iter
      (fun (n, idxs, _) ->
        let n =
          if strip_next && Filename.check_suffix n "@next" then
            Filename.chop_suffix n "@next"
          else n
        in
        Hashtbl.replace idx_orders n idxs)
      r.D.outputs
  in
  let stopped = ref false in
  List.iter
    (fun seg ->
      if not !stopped then
        match seg with
        | Queries qs ->
            let names = List.map (fun (q : Ir.query) -> q.Ir.name) qs in
            let timeout =
              match deadline with
              | None -> None
              | Some d -> Some (Float.max 0.0 (d -. now ()))
            in
            let r =
              D.Session.run_program s
                ~config:{ config with timeout }
                { Ir.queries = qs; outputs = names }
            in
            note_result r;
            reps := r :: !reps;
            all := r :: !all;
            (* Past the deadline: report partial results with the
               driver's timed_out convention rather than guessing at
               the remaining statements. *)
            if r.D.timed_out then stopped := true
        | Fix f ->
            let rs, report = run_fixpoint s ~config ~deadline f in
            (match List.rev rs with
            | last :: _ ->
                note_result ~strip_next:true last;
                reps := last :: !reps
            | [] -> ());
            all := List.rev_append rs !all;
            reports := report :: !reports)
    (segments p);
  let outputs, incomplete =
    List.fold_left
      (fun (found, missing) name ->
        match (D.Session.lookup s name, Hashtbl.find_opt idx_orders name) with
        | Some t, Some idxs -> ((name, idxs, t) :: found, missing)
        | _ -> (found, name :: missing))
      ([], []) (List.rev p.Ir.xoutputs)
  in
  (merge_results ~outputs ~incomplete (List.rev !reps) (List.rev !all),
   List.rev !reports)

let error_ctx () = E.context E.Execution

let run_session_checked (s : D.Session.session) ?config (p : Ir.xprogram) :
    (D.result * fix_report list, E.t) result =
  match run_session s ?config p with
  | r -> Ok r
  | exception E.Galley_error e -> Error e
  | exception Tier.Exhausted ->
      let c = match config with Some c -> c | None -> D.Session.config s in
      Error
        (E.Optimizer_deadline
           {
             context = error_ctx ();
             budget =
               (match c.D.optimizer_timeout with Some s -> s | None -> 0.0);
           })
  | exception ((Invalid_argument _ | Failure _) as exn) ->
      Error (E.of_exn (error_ctx ()) exn)

(* Batch convenience: a throwaway session over explicit inputs. *)
let run ?(config = D.default_config) ~(inputs : (string * T.t) list)
    (p : Ir.xprogram) : D.result * fix_report list =
  let s = D.Session.create ~config () in
  List.iter (fun (n, t) -> D.Session.bind s n t) inputs;
  run_session s p

let run_checked ?(config = D.default_config) ~(inputs : (string * T.t) list)
    (p : Ir.xprogram) : (D.result * fix_report list, E.t) result =
  let s = D.Session.create ~config () in
  List.iter (fun (n, t) -> D.Session.bind s n t) inputs;
  run_session_checked s p

(* Parse to the statement-level dialect with taxonomy-classified
   failures: the fixpoint-aware counterpart of [Driver.parse_checked]. *)
let parse_checked (src : string) : (Ir.xprogram, E.t) result =
  match
    Obs.span ~cat:"phase" ~name:"parse"
      ~attrs:(fun () -> [ ("bytes", string_of_int (String.length src)) ])
      (fun () -> Galley_lang.Parser.parse_xprogram src)
  with
  | p -> Ok p
  | exception Galley_lang.Parser.Parse_error { message; pos } ->
      Error (E.Parse_error { message; position = pos })
  | exception Galley_lang.Lexer.Lex_error (message, pos) ->
      Error (E.Parse_error { message; position = pos })

let run_source_checked ?config ~(inputs : (string * T.t) list) (src : string)
    : (D.result * fix_report list, E.t) result =
  Result.bind (parse_checked src) (fun p -> run_checked ?config ~inputs p)
