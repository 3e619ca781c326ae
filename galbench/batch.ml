(* The three batch workloads (ml_joins, subgraph_count, iterate) and the
   closed loop that measures them.  One op is one program run on one
   domain; the schedule of ops is fixed by the seed. *)

open Galley_plan
module D = Galley.Driver
module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module W = Galley_workloads
module Fix = Galley_fixpoint.Fixpoint
module Rel = Galley_relational.Rel_engine

(* Every workload pins one domain in the config it passes (README.md). *)
let config = { D.default_config with D.domains = 1 }

type prepared =
  | Prog of Ir.program * (string * T.t) list
  | Fix of string * (string * T.t) list

type outcome = {
  outputs : (string * T.t) list;
  iterations : int;  (** fixpoint iterations of the op's loop, 0 if none *)
}

type workload = {
  setup : unit -> unit;  (** builds the shared inputs; timed as setup_s *)
  rotation : int;
      (** ops in one pass over the mix; every pass repeats the same ops
          in the same order, so the op at schedule position k is the op
          at pass position k mod rotation *)
  op : int -> string * (unit -> prepared);
      (** the op at schedule position k: its label and its (untimed)
          input preparation *)
  check : int -> outcome -> bool;
      (** oracle comparison of the op at schedule position k, run after
          the measured window *)
}

(* A seeded permutation of 0..n-1. *)
let permutation ~seed n =
  let a = Array.init n Fun.id in
  Prng.shuffle (Prng.create seed) a;
  a

(* An isomorphic copy of [g]: the seed relabels vertices, so every seed
   gets the same counts and the same work, on different tensors. *)
let relabel ~seed (g : W.Graphs.t) : W.Graphs.t * int array =
  let perm = permutation ~seed g.W.Graphs.n in
  let edges = Array.map (fun (u, v) -> (perm.(u), perm.(v))) g.W.Graphs.edges in
  Array.sort compare edges;
  ({ g with W.Graphs.edges }, perm)

(* Shared inputs: [build] makes them (and is what setup_s times; setup
   runs more than once), [get] returns the latest build. *)
let shared (f : unit -> 'a) : (unit -> unit) * (unit -> 'a) =
  let cell = ref None in
  ((fun () -> cell := Some (f ())), fun () -> Option.get !cell)

(* A memo table keyed by label. *)
let memo () =
  let tbl = Hashtbl.create 16 in
  fun key f ->
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = f () in
        Hashtbl.replace tbl key v;
        v

let output name (o : outcome) = List.assoc_opt name o.outputs

(* ------------------------------------------------------------------ *)
(* ml_joins: the fig6 star-join programs on fresh inputs per op.        *)
(* ------------------------------------------------------------------ *)

(* Scales at which linreg's best latency is about 0.12 s, most of it in
   statistics, and covariance's about 1.4 s, most of it in logical
   search (README.md).  Small ops give each kind many repetitions in a
   run. *)
let ml_scale =
  { W.Tpch.n_lineitems = 120; n_suppliers = 8; n_parts = 20;
    n_orders = 30; n_customers = 12 }

let cov_scale =
  { W.Tpch.n_lineitems = 60; n_suppliers = 6; n_parts = 12;
    n_orders = 15; n_customers = 7 }

(* One pass over the mix: two each of linreg, logreg and nn, one
   covariance; the seed shuffles the order within the pass. *)
let ml_rotation ~seed =
  let pass = W.Ml.[| Linreg; Logreg; Nn; Linreg; Logreg; Nn; Covariance |] in
  Prng.shuffle (Prng.create (seed + 3)) pass;
  pass

(* The star instance's own seed: one fixed shape per algorithm. *)
let ml_shape_seed = function
  | W.Ml.Linreg -> 1000
  | Logreg -> 1001
  | Nn -> 1002
  | Covariance -> 1003

(* The inputs of the op at pass position [i]: a star instance of fixed
   shape whose lineitems the seed relabels, and parameters drawn from the
   seed, so every seed does the same work on different tensors.  Every
   repetition of the op generates them afresh: the same values in new
   tensors, so the op's work repeats exactly and no tensor is reused
   between ops. *)
let ml_instance ~seed (alg : W.Ml.algorithm) i =
  let scale = if alg = W.Ml.Covariance then cov_scale else ml_scale in
  let star = W.Tpch.star_instance ~scale ~seed:(ml_shape_seed alg) () in
  let perm = permutation ~seed:((seed * 100_003) + i) star.W.Tpch.n in
  let relabel_l (name, t) =
    if name <> "L" then (name, t)
    else
      let coo =
        Array.map
          (fun (c, v) ->
            let c = Array.copy c in
            c.(0) <- perm.(c.(0));
            (c, v))
          (T.to_coo t)
      in
      Array.sort compare coo;
      (name, T.of_coo ~dims:(T.dims t) ~formats:(T.formats t) coo)
  in
  let params =
    W.Ml.parameter_inputs ~seed:((seed * 100_019) + i) ~d:star.W.Tpch.d
      ~hidden:16
  in
  (star, List.map relabel_l star.W.Tpch.inputs @ params)

let ml_output = function
  | W.Ml.Linreg -> "Y"
  | Logreg -> "Prob"
  | Covariance -> "Cov"
  | Nn -> "Out"

(* Oracle: the hand-written baseline plan on the interpreter backend
   (uniform estimator; the plan is fixed, so the estimator only picks
   formats), equal within a relative 1e-9. *)
let ml_rtol = 1e-9

let ml_joins ~seed : workload =
  let rotation = ml_rotation ~seed in
  let n = Array.length rotation in
  let alg k = rotation.(k mod n) in
  let prep k () =
    let a = alg k in
    let star, inputs = ml_instance ~seed a (k mod n) in
    Prog (W.Ml.program_of a ~x:star.W.Tpch.x_def ~pts:[ "i" ], inputs)
  in
  let oracle = memo () in
  let check k (o : outcome) =
    let a = alg k in
    let expected =
      oracle (string_of_int (k mod n)) (fun () ->
          let star, inputs = ml_instance ~seed a (k mod n) in
          let plan, out = W.Ml.baseline_plan a ~x:star.W.Tpch.x_def ~pts:[ "i" ] in
          let oracle_config =
            { config with
              D.kernel_backend = Galley_engine.Exec.Interp;
              estimator = Galley_stats.Ctx.Uniform_kind }
          in
          D.output_of
            (D.run_logical_plan ~config:oracle_config ~inputs ~outputs:[ out ] plan)
            out)
    in
    match output (ml_output a) o with
    | Some t -> Util.approx_equal ~rtol:ml_rtol t expected
    | None -> false
  in
  {
    (* Ops generate their own inputs, untimed; setup_s times generating
       the inputs of one pass over the mix. *)
    setup =
      (fun () ->
        for i = 0 to n - 1 do
          ignore (ml_instance ~seed (alg i) i)
        done);
    rotation = n;
    op = (fun k -> (W.Ml.algorithm_name (alg k), prep k));
    check;
  }

(* ------------------------------------------------------------------ *)
(* subgraph_count: unlabelled cyclic patterns on crawl-style graphs.    *)
(* ------------------------------------------------------------------ *)

(* The crawl-style graphs, and the ops on each: the four cheaper cyclic
   patterns on dblp_lite and youtube_lite, and the 4-clique on an
   80-vertex dblp_lite, where it already costs about three times the
   median op (it grows super-linearly with graph size; README.md). *)
let sg_graphs () =
  let crawl name ~seed ~n ~alpha =
    W.Graphs.symmetrize (W.Graphs.power_law ~name ~seed ~n ~m:(3 * n) ~alpha ())
  in
  [
    crawl "dblp_lite" ~seed:104 ~n:300 ~alpha:0.7;
    crawl "youtube_lite" ~seed:105 ~n:300 ~alpha:0.8;
    crawl "dblp_lite_n80" ~seed:104 ~n:80 ~alpha:0.7;
  ]

let sg_cheap = W.Subgraph.[ triangle; tailed_triangle; cycle 4; diamond ]

(* One pass: each cheap pattern on both graphs, the 4-clique twice. *)
let sg_pass =
  List.concat_map
    (fun g -> List.map (fun p -> (g, p)) sg_cheap)
    [ "dblp_lite"; "youtube_lite" ]
  @ [ ("dblp_lite_n80", W.Subgraph.clique 4); ("dblp_lite_n80", W.Subgraph.clique 4) ]

(* Exact count by the relational engine (binary joins with eager
   aggregation), independent of Galley's optimizers and kernels. *)
let rel_count (adj : T.t) (p : W.Subgraph.pattern) : float =
  let db = Rel.create_db () in
  Rel.register_tensor db "M" adj;
  let atoms =
    List.map
      (fun (u, v) -> { Rel.rel = "M"; vars = [ W.Subgraph.var u; W.Subgraph.var v ] })
      p.W.Subgraph.pedges
  in
  let r = Rel.sum_product db ~atoms ~out_vars:[] () in
  Galley_relational.Relation.total r.Rel.relation

let subgraph_count ~seed : workload =
  let build, graphs =
    shared (fun () ->
        List.map
          (fun g ->
            let g, _ = relabel ~seed g in
            (g.W.Graphs.name, W.Graphs.adjacency g))
          (sg_graphs ()))
  in
  let combos = Array.of_list sg_pass in
  let order = permutation ~seed:(seed + 1) (Array.length combos) in
  let combo k = combos.(order.(k mod Array.length combos)) in
  let oracle = memo () in
  let label k =
    let g, p = combo k in
    g ^ "/" ^ p.W.Subgraph.pname
  in
  let prep k () =
    let g, p = combo k in
    Prog (W.Subgraph.count_program p, [ ("M", List.assoc g (graphs ())) ])
  in
  let check k (o : outcome) =
    let g, p = combo k in
    let expected =
      oracle (label k) (fun () -> rel_count (List.assoc g (graphs ())) p)
    in
    match output "count" o with
    | Some t -> T.get t [||] = expected
    | None -> false
  in
  {
    setup = build;
    rotation = Array.length combos;
    op = (fun k -> (label k, prep k));
    check;
  }

(* ------------------------------------------------------------------ *)
(* iterate: PageRank, Bellman-Ford, reachability to convergence.        *)
(* ------------------------------------------------------------------ *)

type fix_instance = {
  fname : string;
  source : string;
  inputs : (string * T.t) list;
  reference : int -> T.t -> bool;  (** iterations, carried output *)
  carried : string;
}

let pr_rtol = 1e-9

let fix_instances ~seed () : fix_instance list =
  let module I = W.Iterative in
  let pr_g, _ =
    relabel ~seed (W.Graphs.erdos_renyi ~seed:41 ~n:600 ~m:3000 ())
  in
  let bf_g, bf_perm =
    relabel ~seed
      (W.Graphs.symmetrize (W.Graphs.power_law ~seed:43 ~n:450 ~m:1350 ()))
  in
  let rc_g, rc_perm =
    relabel ~seed
      (W.Graphs.symmetrize (W.Graphs.power_law ~seed:44 ~n:2500 ~m:7500 ()))
  in
  let pr_inputs = I.pagerank_inputs pr_g in
  let bf_source = bf_perm.(0) and rc_source = rc_perm.(0) in
  let bf_inputs = I.bellman_inputs bf_g ~source:bf_source in
  let rc_inputs = I.reach_inputs rc_g ~source:rc_source in
  let vector_close ~rtol (expected : float array) (t : T.t) =
    Array.length expected = (T.dims t).(0)
    && Array.for_all Fun.id
         (Array.mapi (fun j e -> Util.close ~rtol (T.get t [| j |]) e) expected)
  in
  let bfs (g : W.Graphs.t) src =
    let adj = Array.make g.W.Graphs.n [] in
    Array.iter (fun (u, v) -> adj.(u) <- v :: adj.(u)) g.W.Graphs.edges;
    let seen = Array.make g.W.Graphs.n false in
    let q = Queue.create () in
    seen.(src) <- true;
    Queue.add src q;
    while not (Queue.is_empty q) do
      List.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            Queue.add v q
          end)
        adj.(Queue.pop q)
    done;
    seen
  in
  [
    {
      fname = "pagerank";
      source = I.pagerank_source ();
      inputs = pr_inputs;
      carried = "R";
      reference =
        (fun iters t ->
          let get n = List.assoc n pr_inputs in
          vector_close ~rtol:pr_rtol
            (I.pagerank_reference ~m:(get "M") ~b:(get "B") ~r0:(get "R") ~iters)
            t);
    };
    {
      fname = "bellman_ford";
      source = I.bellman_source ();
      inputs = bf_inputs;
      carried = "D";
      reference =
        (fun iters t ->
          vector_close ~rtol:0.0
            (I.bellman_reference ~w:(List.assoc "W" bf_inputs) ~source:bf_source
               ~iters)
            t);
    };
    {
      fname = "reachability";
      source = I.reach_source ();
      inputs = rc_inputs;
      carried = "V";
      reference =
        (fun _ t ->
          let seen = bfs rc_g rc_source in
          vector_close ~rtol:0.0
            (Array.map (fun s -> if s then 1.0 else 0.0) seen)
            t);
    };
  ]

let iterate ~seed : workload =
  let build, instances =
    shared (fun () -> Array.of_list (fix_instances ~seed ()))
  in
  let order = permutation ~seed:(seed + 2) 3 in
  let inst k = (instances ()).(order.(k mod 3)) in
  let verdicts = memo () in
  let check k (o : outcome) =
    let fi = inst k in
    match output fi.carried o with
    | Some t ->
        (* Ops on one instance must agree bit for bit with each other,
           and the first with the oracle. *)
        let first, verdict =
          verdicts fi.fname (fun () -> (t, fi.reference o.iterations t))
        in
        verdict && Util.bit_identical first t
    | None -> false
  in
  {
    setup = build;
    rotation = 3;
    op = (fun k -> ((inst k).fname, fun () -> Fix ((inst k).source, (inst k).inputs)));
    check;
  }

let of_name ~seed = function
  | "ml_joins" -> Some (ml_joins ~seed)
  | "subgraph_count" -> Some (subgraph_count ~seed)
  | "iterate" -> Some (iterate ~seed)
  | _ -> None
