(* Shared helpers for the benchmark harness: timing, order statistics,
   process memory, the host-speed probe, metric-registry deltas, output
   comparison, and the result line. *)

module T = Galley_tensor.Tensor
module M = Galley_obs.Metrics

let now = Unix.gettimeofday

let info fmt = Printf.eprintf (fmt ^^ "\n%!")

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics.                                                    *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank quantile of a non-empty sample, [q] in [0, 1]. *)
let quantile (xs : float list) (q : float) : float =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = quantile xs 0.5

(* For stderr only: the median of all op latencies, and the highest
   percentile of 99.9, 99, 95, 90, 75 and 50 with at least ten samples
   beyond it, with the sample count. *)
let latency_summary (xs : float list) : string =
  let n = List.length xs in
  let beyond p = n - int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  let p =
    Option.value ~default:50.0
      (List.find_opt (fun p -> beyond p >= 10) [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ])
  in
  Printf.sprintf "all %d ops: median %.6fs, p%g %.6fs (%d beyond)" n (median xs) p
    (quantile xs (p /. 100.0)) (beyond p)

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs = match xs with [] -> 0.0 | _ -> sum xs /. float_of_int (List.length xs)

(* Share of hits among hits and misses; 0 when there were neither. *)
let ratio hits misses = if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses)

(* Each kind's best (lowest) latency in [samples] of (kind, latency),
   with its sample count as its share of the mix, and a summary line per
   kind on stderr. *)
let best_per_kind (samples : (string * float) list) : (float * float) list =
  let kinds = List.sort_uniq compare (List.map fst samples) in
  List.map
    (fun k ->
      let xs = List.filter_map (fun (k', x) -> if k' = k then Some x else None) samples in
      let best = List.fold_left Float.min infinity xs in
      info "  %-40s n=%-6d best=%.6fs p25=%.6fs p50=%.6fs max=%.6fs" k (List.length xs)
        best (quantile xs 0.25) (median xs) (List.fold_left Float.max 0.0 xs);
      (best, float_of_int (List.length xs)))
    kinds

(* ------------------------------------------------------------------ *)
(* Process memory and host speed.                                       *)
(* ------------------------------------------------------------------ *)

(* VmHWM (peak resident set) of a process, in MB, from /proc. *)
let peak_rss_mb ?(pid = "self") () : float =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

(* A fixed integer loop, timed: the same work on every run, so its time
   tells a host phase apart from a program change.  Median of five. *)
let host_probe () : float =
  let once () =
    let t0 = now () in
    let x = ref 1 in
    for i = 1 to 20_000_000 do
      x := (!x * 1103515245) + 12345 + i land 0xffff
    done;
    let dt = now () -. t0 in
    if !x = 42 then prerr_string "";
    dt
  in
  median (List.init 5 (fun _ -> once ()))

(* ------------------------------------------------------------------ *)
(* Metric-registry deltas (counts of work done inside the library).     *)
(* ------------------------------------------------------------------ *)

let counter name = Option.value ~default:0 (M.counter_value name)

let counters names = List.map (fun n -> (n, counter n)) names

(* Per-name difference between two [counters] snapshots. *)
let delta before after =
  List.map2 (fun (n, a) (_, b) -> (n, b - a)) before after

let get name kvs = try List.assoc name kvs with Not_found -> 0

(* ------------------------------------------------------------------ *)
(* Output comparison.                                                   *)
(* ------------------------------------------------------------------ *)

(* Same dims, fill and stored entries, every value equal bit for bit. *)
let bit_identical (a : T.t) (b : T.t) : bool =
  T.dims a = T.dims b
  && Int64.equal (Int64.bits_of_float (T.fill a)) (Int64.bits_of_float (T.fill b))
  &&
  let ca = T.to_coo a and cb = T.to_coo b in
  Array.length ca = Array.length cb
  && Array.for_all2
       (fun (xa, va) (xb, vb) ->
         xa = xb
         && Int64.equal (Int64.bits_of_float va) (Int64.bits_of_float vb))
       ca cb

let close ~rtol a b =
  (Float.is_nan a && Float.is_nan b)
  || a = b
  || Float.abs (a -. b) <= rtol *. Float.max 1.0 (Float.abs b)

(* Every coordinate of the union of both tensors' stored entries agrees
   within [rtol] (relative, absolute below magnitude 1). *)
let approx_equal ~rtol (a : T.t) (b : T.t) : bool =
  T.dims a = T.dims b
  &&
  let ok = ref true in
  T.iter_explicit a (fun c v -> if not (close ~rtol v (T.get b c)) then ok := false);
  T.iter_explicit b (fun c v -> if not (close ~rtol (T.get a c) v) then ok := false);
  !ok

(* ------------------------------------------------------------------ *)
(* Results.                                                             *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

(* A JSON number with all its digits; non-finite values become null. *)
let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* The five end-to-end metrics of a run, from [best]: for each op kind
   of the mix, its best latency over the run's repetitions of it and its
   share of the mix (README.md).  The median is over the ops of the mix,
   each op at its kind's best latency; the throughput is that of a closed
   loop in which every op takes its kind's best latency. *)
let end_to_end ~setup_s ~(best : (float * float) list) ~rss : metric list =
  let sorted = List.sort compare best in
  let total = sum (List.map snd best) in
  let rec median_of cum = function
    | [ (v, _) ] -> v
    | (v, w) :: rest -> if cum +. w >= total /. 2.0 then v else median_of (cum +. w) rest
    | [] -> nan
  in
  [
    m "best_latency_p50_s" "s" (median_of 0.0 sorted);
    m "best_latency_max_s" "s" (List.fold_left (fun a (v, _) -> Float.max a v) 0.0 best);
    m "best_throughput_ops_s" "1/s" (total /. sum (List.map (fun (v, w) -> v *. w) best));
    m "setup_s" "s" setup_s;
    m "peak_rss_mb" "MB" rss;
  ]

(* The per-layer metric names, in BENCHMARK.json order; a workload that
   does not load a layer reports 0 for it. *)
let layer_names =
  [
    ("stats.input_build_s", "s");
    ("stats.jit_refresh_s", "s");
    ("stats.estimator_calls", "count");
    ("logical.search_s", "s");
    ("logical.search_nodes", "count");
    ("physical.search_s", "s");
    ("physical.search_nodes", "count");
    ("compile.s", "s");
    ("compile.count", "count");
    ("compile.kernel_cache_hit_ratio", "ratio");
    ("engine.execute_s", "s");
    ("engine.kernels_run", "count");
    ("engine.nnz_read", "count");
    ("engine.nnz_written", "count");
    ("engine.cse_hit_ratio", "ratio");
    ("fixpoint.iterations", "count");
    ("fixpoint.replans", "count");
    ("fixpoint.first_iter_s", "s");
    ("fixpoint.steady_iter_s", "s");
    ("serve.queue_wait_s", "s");
    ("serve.protocol_s", "s");
    ("serve.bind_s", "s");
    ("serve.warm_query_s", "s");
    ("serve.cold_query_s", "s");
    ("unattributed_s", "s");
  ]

let layer_metrics (values : (string * float) list) : metric list =
  List.map
    (fun (name, unit_) ->
      m name unit_ (Option.value ~default:0.0 (List.assoc_opt name values)))
    layer_names

let print_result ~correct ~attempted ~failed (metrics : metric list) : unit =
  let body =
    String.concat ", "
      (List.map
         (fun mt ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name
             (json_num mt.value) mt.unit_)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body
