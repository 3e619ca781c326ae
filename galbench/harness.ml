(* Benchmark harness entry point.

     harness.exe --workload NAME --seed N --seconds S --trace 0|1 --cli PATH

   Prints informational lines on stderr and, as the last line of stdout,
   one JSON object {correct, attempted, failed, metrics}.  With --trace 0
   the metrics are the end-to-end ones; with --trace 1 the per-layer ones
   from the traced replay.  See README.md. *)

module D = Galley.Driver
module T = Galley_tensor.Tensor
module Fix = Galley_fixpoint.Fixpoint
module B = Batch

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref 0
let cli = ref ""

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured window length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--cli", Arg.Set_string cli, "PATH galley CLI binary (serve_mix)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload NAME --seed N --seconds S --trace 0|1"

(* Setup runs this many times, each after a full major collection;
   setup_s is the median. *)
let setup_repeats = 15

let median_setup (f : unit -> unit) : float =
  Util.median
    (List.init setup_repeats (fun _ ->
         Gc.full_major ();
         snd (Util.time f)))

(* ------------------------------------------------------------------ *)
(* Batch ops.                                                           *)
(* ------------------------------------------------------------------ *)

let outcome_of_result (r : D.result) iterations : B.outcome =
  { B.outputs = List.map (fun (n, _, t) -> (n, t)) r.D.outputs; iterations }

let fix_iterations reports =
  List.fold_left (fun a r -> a + r.Fix.fr_iterations) 0 reports

(* One untraced op through the public entry point. *)
let run_op (p : B.prepared) : B.outcome =
  match p with
  | B.Prog (program, inputs) -> outcome_of_result (D.run ~config:B.config ~inputs program) 0
  | B.Fix (src, inputs) -> (
      match Fix.run_source_checked ~config:B.config ~inputs src with
      | Ok (r, reports) -> outcome_of_result r (fix_iterations reports)
      | Error e -> failwith (Galley.Errors.to_string e))

type sample = {
  k : int;
  label : string;
  latency : float;
  result : (B.outcome, string) result;
}

(* Passes over the mix a run makes at least, so that every op's best
   latency is a minimum over several repetitions. *)
let min_passes = 5

(* The closed loop: passes over the mix, ops back to back, until
   [seconds] of wall time have passed, the last pass is complete and
   there have been [min_passes] passes.  The op clock runs only inside
   [run]; input preparation and the collection before each op are
   outside. *)
let closed_loop (w : B.workload) (run : int -> B.prepared -> B.outcome) :
    sample list =
  let t0 = Util.now () in
  let rec go k acc =
    if
      Util.now () -. t0 >= !seconds
      && k mod w.B.rotation = 0
      && k >= min_passes * w.B.rotation
    then List.rev acc
    else
      let label, prep = w.B.op k in
      let p = prep () in
      (* Every op starts from a finished major cycle, so its repetitions
         do the same collection work and none pays for the previous
         op's garbage. *)
      Gc.full_major ();
      let t1 = Util.now () in
      let result =
        match run k p with
        | o -> Ok o
        | exception (Stack_overflow | Out_of_memory as e) -> raise e
        | exception e -> Error (Printexc.to_string e)
      in
      let latency = Util.now () -. t1 in
      go (k + 1) ({ k; label; latency; result } :: acc)
  in
  go 0 []

(* Oracle checks, after the window.  Returns the failed-op count. *)
let verify (w : B.workload) (samples : sample list) : int =
  List.fold_left
    (fun failed s ->
      let ok =
        match s.result with
        | Error msg ->
            Util.info "op %d (%s) failed: %s" s.k s.label msg;
            false
        | Ok o -> (
            match w.B.check s.k o with
            | true -> true
            | false ->
                Util.info "op %d (%s): output differs from the oracle" s.k s.label;
                false
            | exception e ->
                Util.info "op %d (%s): oracle raised %s" s.k s.label
                  (Printexc.to_string e);
                false)
      in
      if ok then failed else failed + 1)
    0 samples

let batch_untraced (w : B.workload) =
  let setup_s = median_setup w.B.setup in
  (* One op before the window lets lazy process-level state settle. *)
  (let _, prep = w.B.op 0 in
   ignore (run_op (prep ())));
  let samples = closed_loop w (fun _ p -> run_op p) in
  let rss = Util.peak_rss_mb () in
  (* An op's kind is its label: ops of one kind do the same work. *)
  let best = Util.best_per_kind (List.map (fun s -> (s.label, s.latency)) samples) in
  Util.info "%s" (Util.latency_summary (List.map (fun s -> s.latency) samples));
  let failed, verify_s = Util.time (fun () -> verify w samples) in
  Util.info "checked %d ops in %.1f s" (List.length samples) verify_s;
  (List.length samples, failed, Util.end_to_end ~setup_s ~best ~rss)

(* ------------------------------------------------------------------ *)
(* Traced batch runs.                                                   *)
(* ------------------------------------------------------------------ *)

(* Counts summed over the first pass of the mix: a fixed op list per
   seed, so they repeat exactly run to run. *)
let first_pass (w : B.workload) xs = List.filteri (fun i _ -> i < w.B.rotation) xs

let count_metrics (counts : (string * int) list) =
  let g n = float_of_int (Util.get n counts) in
  [
    ("stats.estimator_calls", g "estimator.calls.chain" +. g "estimator.calls.uniform");
    ("compile.count", g "kernel_cache.misses");
    ("compile.kernel_cache_hit_ratio", Util.ratio (g "kernel_cache.hits") (g "kernel_cache.misses"));
    ("engine.kernels_run", g "exec.kernels_run");
    ("engine.nnz_read", g "kernel.nnz_read");
    ("engine.nnz_written", g "kernel.nnz_written");
    ("engine.cse_hit_ratio", Util.ratio (g "cse.hits") (g "cse.misses"));
  ]

let sum_counts (cs : (string * int) list list) =
  List.map
    (fun n -> (n, List.fold_left (fun a c -> a + Util.get n c) 0 cs))
    Replay.counted

(* Straight-line programs: every op replayed layer by layer, then run
   through [Driver.run] (outside the op clock) to check the replay. *)
let batch_traced_replay (w : B.workload) =
  w.B.setup ();
  let layers = Hashtbl.create 64 in
  let mismatches = ref 0 in
  let run k p =
    match p with
    | B.Prog (program, inputs) ->
        let outputs, l = Replay.run ~config:B.config ~inputs program in
        Hashtbl.replace layers k l;
        let r = D.run ~config:B.config ~inputs program in
        if not (Replay.matches_driver r outputs) then begin
          incr mismatches;
          Util.info "op %d: replay outputs differ from Driver.run" k
        end;
        { B.outputs; iterations = 0 }
    | B.Fix _ -> invalid_arg "batch_traced_replay: fixpoint op"
  in
  let samples = closed_loop w run in
  let failed = verify w samples + !mismatches in
  let ls = List.filter_map (fun s -> Hashtbl.find_opt layers s.k) samples in
  let per_op f = Util.mean (List.map f ls) in
  let pass = first_pass w ls in
  let values =
    [
      ("stats.input_build_s", per_op (fun l -> l.Replay.stats_input_s));
      ("stats.jit_refresh_s", per_op (fun l -> l.Replay.jit_refresh_s));
      ("logical.search_s", per_op (fun l -> l.Replay.logical_s));
      ( "logical.search_nodes",
        float_of_int (List.fold_left (fun a l -> a + l.Replay.logical_nodes) 0 pass) );
      ("physical.search_s", per_op (fun l -> l.Replay.physical_s));
      ( "physical.search_nodes",
        float_of_int (List.fold_left (fun a l -> a + l.Replay.physical_nodes) 0 pass) );
      ("compile.s", per_op (fun l -> l.Replay.compile_s));
      ("engine.execute_s", per_op (fun l -> l.Replay.execute_s));
      ( "unattributed_s",
        per_op (fun l ->
            l.Replay.op_s
            -. (l.Replay.stats_input_s +. l.Replay.logical_s +. l.Replay.jit_refresh_s
              +. l.Replay.physical_s +. l.Replay.compile_s +. l.Replay.execute_s)) );
    ]
    @ count_metrics (sum_counts (List.map (fun l -> l.Replay.counts) pass))
  in
  (List.length samples, failed, Util.layer_metrics values)

(* Fixpoint programs: per-layer numbers from the fixpoint reports and the
   driver's merged timings, counts from registry deltas. *)
type fix_op = {
  driver : D.result;  (** the merged result of the whole program *)
  iters : Fix.iter_stat list;
  replans : int;
  op_s : float;
  counts : (string * int) list;
  stats_s : float;  (** side replay of the op's input-statistics build *)
}

let batch_traced_fixpoint (w : B.workload) =
  w.B.setup ();
  let per_op = Hashtbl.create 64 in
  let run k p =
    let src, inputs =
      match p with
      | B.Fix (src, inputs) -> (src, inputs)
      | B.Prog _ -> invalid_arg "batch_traced_fixpoint: straight-line op"
    in
    let c0 = Util.counters Replay.counted in
    let t0 = Util.now () in
    let result, reports =
      match Fix.run_source_checked ~config:B.config ~inputs src with
      | Ok x -> x
      | Error e -> failwith (Galley.Errors.to_string e)
    in
    let op_s = Util.now () -. t0 in
    let counts = Util.delta c0 (Util.counters Replay.counted) in
    (* The fixpoint reports do not time statistics; replay the op's
       input-statistics build beside it, off the op clock. *)
    let _, stats_s = Util.time (fun () -> Replay.input_stats ~config:B.config inputs) in
    Hashtbl.replace per_op k
      {
        driver = result;
        iters = List.concat_map (fun fr -> fr.Fix.fr_iters) reports;
        replans = List.fold_left (fun a fr -> a + fr.Fix.fr_replans) 0 reports;
        op_s;
        counts;
        stats_s;
      };
    outcome_of_result result (fix_iterations reports)
  in
  let samples = closed_loop w run in
  let failed = verify w samples in
  let ops = List.filter_map (fun s -> Hashtbl.find_opt per_op s.k) samples in
  let pass = first_pass w ops in
  let per_op f = Util.mean (List.map f ops) in
  let tm f = per_op (fun o -> f o.driver.D.timings) in
  let sum_pass f = float_of_int (List.fold_left (fun a o -> a + f o) 0 pass) in
  let secs its = List.map (fun it -> it.Fix.it_seconds) its in
  let values =
    [
      ("stats.input_build_s", per_op (fun o -> o.stats_s));
      ("logical.search_s", tm (fun t -> t.D.logical_seconds));
      ("physical.search_s", tm (fun t -> t.D.physical_seconds));
      ("compile.s", tm (fun t -> t.D.compile_seconds));
      ("engine.execute_s", tm (fun t -> t.D.execute_seconds));
      ("fixpoint.iterations", sum_pass (fun o -> List.length o.iters));
      ("fixpoint.replans", sum_pass (fun o -> o.replans));
      ( "fixpoint.first_iter_s",
        Util.mean (List.filter_map (fun o -> Option.map (fun it -> it.Fix.it_seconds) (List.nth_opt o.iters 0)) ops) );
      ( "fixpoint.steady_iter_s",
        Util.mean (List.concat_map (fun o -> match o.iters with _ :: steady -> secs steady | [] -> []) ops) );
      ("unattributed_s", per_op (fun o -> o.op_s -. o.stats_s -. Util.sum (secs o.iters)));
    ]
    @ count_metrics (sum_counts (List.map (fun o -> o.counts) pass))
  in
  (List.length samples, failed, Util.layer_metrics values)

(* ------------------------------------------------------------------ *)

let () =
  if !seconds <= 0.0 then (prerr_endline "harness: --seconds must be positive"; exit 2);
  Galley_obs.Metrics.set_detailed (!trace = 1);
  let probe_start = Util.host_probe () in
  let attempted, failed, metrics =
    match (!workload, B.of_name ~seed:!seed !workload) with
    | _, Some w when !trace = 0 -> batch_untraced w
    | "iterate", Some w -> batch_traced_fixpoint w
    | _, Some w -> batch_traced_replay w
    | "serve_mix", None ->
        if !cli = "" then (prerr_endline "harness: serve_mix needs --cli"; exit 2);
        Serve_mix.run ~cli:!cli ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
          ~setup_repeats
    | name, None ->
        Printf.eprintf "harness: unknown workload %S\n" name;
        exit 2
  in
  let probe_end = Util.host_probe () in
  (* The host-speed probe is stored with the run, never gated. *)
  Printf.printf "{\"host_probe_s\": {\"start\": %s, \"end\": %s}}\n"
    (Util.json_num probe_start) (Util.json_num probe_end);
  Util.print_result ~correct:(failed = 0) ~attempted ~failed metrics
