(* Tests for the sparsity-estimation framework: the uniform estimator's
   closed-form cases, the chain bound's soundness as an upper bound
   (property-checked against true non-fill counts), aggregation projections,
   renaming, and the estimation context. *)

module T = Galley_tensor.Tensor
module Prng = Galley_tensor.Prng
module Ir = Galley_plan.Ir
module Op = Galley_plan.Op
module Schema = Galley_plan.Schema
module Uniform = Galley_stats.Uniform
module Chain = Galley_stats.Chain
module Ctx = Galley_stats.Ctx

let check_float = Alcotest.(check (float 1e-6))
let check_bool = Alcotest.(check bool)

let dims_of (l : (string * int) list) : int Ir.Idx_map.t =
  List.fold_left (fun acc (i, n) -> Ir.Idx_map.add i n acc) Ir.Idx_map.empty l

let sparse_matrix ~prng ~rows ~cols ~density =
  T.random ~prng ~dims:[| rows; cols |]
    ~formats:[| T.Dense; T.Sparse_list |]
    ~density ()

(* -------------------------------------------------------------- *)
(* Uniform estimator.                                               *)
(* -------------------------------------------------------------- *)

let test_uniform_of_tensor () =
  let prng = Prng.create 1 in
  let t = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  let s = Uniform.of_tensor t ~idxs:[ "i"; "j" ] in
  check_float "nnz" (float_of_int (T.nnz t)) (Uniform.estimate s)

let test_uniform_annihilating () =
  (* A[i,j] (30 nnz over 100) * B[j,k] (20 nnz over 100):
     expected = 100*100/... : out space 10*10*10, p = .3 * .2 *)
  let dims = dims_of [ ("i", 10); ("j", 10); ("k", 10) ] in
  let a = { Uniform.idxs = Ir.Idx_set.of_list [ "i"; "j" ];
            dims = dims_of [ ("i", 10); ("j", 10) ]; nnz = 30.0 } in
  let b = { Uniform.idxs = Ir.Idx_set.of_list [ "j"; "k" ];
            dims = dims_of [ ("j", 10); ("k", 10) ]; nnz = 20.0 } in
  let c = Uniform.map_annihilating ~dims [ a; b ] in
  check_float "product density" (1000.0 *. 0.3 *. 0.2) (Uniform.estimate c)

let test_uniform_non_annihilating () =
  let dims = dims_of [ ("i", 10); ("j", 10) ] in
  let a = { Uniform.idxs = Ir.Idx_set.of_list [ "i"; "j" ]; dims; nnz = 30.0 } in
  let b = { Uniform.idxs = Ir.Idx_set.of_list [ "i"; "j" ]; dims; nnz = 20.0 } in
  let c = Uniform.map_non_annihilating ~dims [ a; b ] in
  (* 100 * (1 - 0.7*0.8) = 44 *)
  check_float "union density" 44.0 (Uniform.estimate c)

let test_uniform_aggregate () =
  let dims = dims_of [ ("i", 10); ("j", 10) ] in
  let a = { Uniform.idxs = Ir.Idx_set.of_list [ "i"; "j" ]; dims; nnz = 30.0 } in
  let c = Uniform.aggregate ~dims a ~over:[ "j" ] in
  (* 10 * (1 - 0.7^10) *)
  check_float "projection" (10.0 *. (1.0 -. (0.7 ** 10.0))) (Uniform.estimate c);
  check_bool "idxs shrink" true
    (Ir.Idx_set.equal (Uniform.idxs c) (Ir.Idx_set.singleton "i"))

let test_uniform_rename () =
  let dims = dims_of [ ("i", 10); ("j", 20) ] in
  let a = { Uniform.idxs = Ir.Idx_set.of_list [ "i"; "j" ]; dims; nnz = 30.0 } in
  let r = Uniform.rename a (fun x -> if x = "i" then "p" else x) in
  check_bool "renamed" true (Ir.Idx_set.mem "p" (Uniform.idxs r));
  check_float "same estimate" 30.0 (Uniform.estimate r)

let test_uniform_literal () =
  check_float "literal deviates nowhere" 0.0 (Uniform.estimate (Uniform.of_literal 2.0))

(* -------------------------------------------------------------- *)
(* Chain bound.                                                     *)
(* -------------------------------------------------------------- *)

let test_chain_of_tensor_exact_total () =
  let prng = Prng.create 2 in
  let t = sparse_matrix ~prng ~rows:8 ~cols:8 ~density:0.4 in
  let s = Chain.of_tensor t ~idxs:[ "i"; "j" ] in
  check_float "total exact" (float_of_int (T.nnz t)) (Chain.estimate s)

let test_chain_degree_bound_matrix () =
  (* A matrix with one dense row: D(j|i) = cols, D(i|j) small. *)
  let entries = Array.init 6 (fun j -> ([| 2; j |], 1.0)) in
  let t = T.of_coo ~dims:[| 6; 6 |] ~formats:[| T.Dense; T.Sparse_list |] entries in
  let s = Chain.of_tensor t ~idxs:[ "i"; "j" ] in
  check_float "estimate = nnz" 6.0 (Chain.estimate s)

let test_chain_triangle_bound () =
  (* nnz(A_ij * B_jk) <= chain bound; check the bound is no tighter than
     the true count on a concrete instance. *)
  let prng = Prng.create 3 in
  let a = sparse_matrix ~prng ~rows:8 ~cols:8 ~density:0.3 in
  let b = sparse_matrix ~prng ~rows:8 ~cols:8 ~density:0.3 in
  let dims = dims_of [ ("i", 8); ("j", 8); ("k", 8) ] in
  let sa = Chain.of_tensor a ~idxs:[ "i"; "j" ] in
  let sb = Chain.of_tensor b ~idxs:[ "j"; "k" ] in
  let sc = Chain.map_annihilating ~dims [ sa; sb ] in
  let true_count = ref 0 in
  for i = 0 to 7 do
    for j = 0 to 7 do
      for k = 0 to 7 do
        if T.get a [| i; j |] <> 0.0 && T.get b [| j; k |] <> 0.0 then
          incr true_count
      done
    done
  done;
  check_bool "upper bound" true
    (Chain.estimate sc +. 1e-9 >= float_of_int !true_count)

let test_chain_aggregate_drops_conditioned () =
  let prng = Prng.create 4 in
  let t = sparse_matrix ~prng ~rows:8 ~cols:8 ~density:0.4 in
  let s = Chain.of_tensor t ~idxs:[ "i"; "j" ] in
  let dims = dims_of [ ("i", 8); ("j", 8) ] in
  let p = Chain.aggregate ~dims s ~over:[ "j" ] in
  check_bool "projection bounded by rows" true (Chain.estimate p <= 8.0);
  (* and it is a sound upper bound on the number of non-empty rows *)
  let nonempty = ref 0 in
  for i = 0 to 7 do
    let any = ref false in
    for j = 0 to 7 do
      if T.get t [| i; j |] <> 0.0 then any := true
    done;
    if !any then incr nonempty
  done;
  check_bool "sound" true (Chain.estimate p +. 1e-9 >= float_of_int !nonempty)

(* Property: the chain bound is an upper bound on the true non-fill count of
   random sum-product expressions. *)
let prop_chain_upper_bound =
  QCheck.Test.make ~name:"chain bound is an upper bound" ~count:80
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let n = 4 + Prng.int prng 4 in
      let a = sparse_matrix ~prng ~rows:n ~cols:n ~density:0.4 in
      let b = sparse_matrix ~prng ~rows:n ~cols:n ~density:0.4 in
      let dims = dims_of [ ("i", n); ("j", n); ("k", n) ] in
      let sa = Chain.of_tensor a ~idxs:[ "i"; "j" ] in
      let sb = Chain.of_tensor b ~idxs:[ "j"; "k" ] in
      (* product then project: matrix multiplication pattern *)
      let prod = Chain.map_annihilating ~dims [ sa; sb ] in
      let proj = Chain.aggregate ~dims prod ~over:[ "j" ] in
      let true_prod = ref 0 and true_proj = ref 0 in
      for i = 0 to n - 1 do
        for k = 0 to n - 1 do
          let any = ref false in
          for j = 0 to n - 1 do
            if T.get a [| i; j |] <> 0.0 && T.get b [| j; k |] <> 0.0 then begin
              incr true_prod;
              any := true
            end
          done;
          if !any then incr true_proj
        done
      done;
      Chain.estimate prod +. 1e-9 >= float_of_int !true_prod
      && Chain.estimate proj +. 1e-9 >= float_of_int !true_proj)

(* Property: non-annihilating merges bound the union pattern. *)
let prop_chain_union_upper_bound =
  QCheck.Test.make ~name:"chain bound covers unions" ~count:80
    (QCheck.int_range 0 100_000)
    (fun seed ->
      let prng = Prng.create seed in
      let n = 4 + Prng.int prng 4 in
      let a = sparse_matrix ~prng ~rows:n ~cols:n ~density:0.3 in
      let b = sparse_matrix ~prng ~rows:n ~cols:n ~density:0.3 in
      let dims = dims_of [ ("i", n); ("j", n) ] in
      let sa = Chain.of_tensor a ~idxs:[ "i"; "j" ] in
      let sb = Chain.of_tensor b ~idxs:[ "i"; "j" ] in
      let sum = Chain.map_non_annihilating ~dims [ sa; sb ] in
      let true_union = ref 0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if T.get a [| i; j |] <> 0.0 || T.get b [| i; j |] <> 0.0 then
            incr true_union
        done
      done;
      Chain.estimate sum +. 1e-9 >= float_of_int !true_union)

(* Property: the packed-key degree counts equal a naive string-keyed
   count, for random tensors — some with dimensions whose product
   overflows the packed key —, every split the statistics leave out is
   implied by one they keep, and diagonal renames map constraints as
   index sets would. *)
let naive_degree (t : T.t) (names : Ir.idx list) (x : Ir.Idx_set.t)
    (y : Ir.Idx_set.t) : float =
  let pos = List.mapi (fun k i -> (i, k)) names in
  let key s c =
    String.concat ","
      (List.map (fun i -> string_of_int c.(List.assoc i pos)) (Ir.Idx_set.elements s))
  in
  let groups = Hashtbl.create 16 in
  T.iter_nonfill t (fun c _ ->
      let yk = key y c in
      let xs =
        match Hashtbl.find_opt groups yk with
        | Some xs -> xs
        | None ->
            let xs = Hashtbl.create 8 in
            Hashtbl.add groups yk xs;
            xs
      in
      Hashtbl.replace xs (key x c) ());
  float_of_int (Hashtbl.fold (fun _ xs acc -> max acc (Hashtbl.length xs)) groups 0)

(* A statistic's constraints as index sets; mask -1 means every index. *)
let constraints (c : Chain.t) : (Ir.Idx_set.t * Ir.Idx_set.t * float) list =
  let set m =
    Ir.Idx_set.of_list
      (List.filteri
         (fun k _ -> m = -1 || m land (1 lsl k) <> 0)
         (Array.to_list c.Chain.names))
  in
  List.init (Array.length c.Chain.cx) (fun k ->
      (set c.Chain.cx.(k), set c.Chain.cy.(k), c.Chain.cb.(k)))

let random_tensor st =
  let nd = 1 + Random.State.int st 4 in
  let huge = Random.State.bool st in
  let dims =
    Array.init nd (fun _ ->
        if huge && Random.State.int st 3 = 0 then 1 lsl (40 + Random.State.int st 21)
        else 1 + Random.State.int st 6)
  in
  let entries =
    Array.init (Random.State.int st 40) (fun _ ->
        (Array.map (fun n -> Random.State.full_int st n) dims, 1.0))
  in
  T.of_coo ~dims ~formats:(Array.make nd T.Sparse_list) entries

let prop_chain_degree_counts =
  QCheck.Test.make ~name:"packed degree counts match a naive count" ~count:300
    (QCheck.int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let t = random_tensor st in
      let nd = T.ndims t in
      (* storage order differs from name order *)
      let names = List.init nd (fun k -> Printf.sprintf "n%d" (nd - k)) in
      let s = Chain.of_tensor t ~idxs:names in
      let all = Ir.Idx_set.of_list names in
      let cons = constraints s in
      (* every (X|Y) split: each index goes to X, to Y or to neither *)
      let rec splits = function
        | [] -> [ (Ir.Idx_set.empty, Ir.Idx_set.empty) ]
        | i :: rest ->
            List.concat_map
              (fun (x, y) -> [ (x, y); (Ir.Idx_set.add i x, y); (x, Ir.Idx_set.add i y) ])
              (splits rest)
      in
      List.for_all
        (fun (x, y, b) ->
          if Ir.Idx_set.equal x all && Ir.Idx_set.is_empty y then
            b = float_of_int (T.nnz t)
          else b = naive_degree t names x y)
        cons
      (* a split left out is implied by a kept one: same X, a subset of
         its Y, no larger bound *)
      && List.for_all
           (fun (x, y) ->
             Ir.Idx_set.is_empty x
             || List.exists
                  (fun (x', y', b) ->
                    Ir.Idx_set.equal x x' && Ir.Idx_set.subset y' y
                    && b <= naive_degree t names x y)
                  cons)
           (splits names)
      &&
      (* a diagonal access A[d,d,...]: the first two names merge *)
      let f i = if nd >= 2 && (i = List.nth names 0 || i = List.nth names 1) then "d" else i in
      let listed = List.map (fun (x, y, b) -> (Ir.Idx_set.elements x, Ir.Idx_set.elements y, b)) in
      listed (constraints (Chain.rename s f))
      = listed
          (List.map (fun (x, y, b) -> (Ir.Idx_set.map f x, Ir.Idx_set.map f y, b)) cons))

(* Past 62 indices a statistic keeps only the total count; aggregating
   down to a few indices and merging still give sound upper bounds. *)
let test_chain_wide_fallback () =
  let nd = 64 in
  let names = List.init nd (Printf.sprintf "w%02d") in
  let entries =
    Array.init 5 (fun e -> (Array.init nd (fun k -> if k = e then 1 else 0), 1.0))
  in
  let t = T.of_coo ~dims:(Array.make nd 2) ~formats:(Array.make nd T.Sparse_list) entries in
  let s = Chain.of_tensor t ~idxs:names in
  (match constraints s with
  | [ (x, y, b) ] ->
      check_bool "total over every index" true
        (Ir.Idx_set.cardinal x = nd && Ir.Idx_set.is_empty y);
      check_float "nnz" 5.0 b
  | cons -> Alcotest.failf "expected one constraint, got %d" (List.length cons));
  let dims = dims_of (List.map (fun i -> (i, 2)) names) in
  let over = List.filteri (fun k _ -> k >= 3) names in
  let p = Chain.aggregate ~dims s ~over in
  (* entries 0-2 project to distinct points, 3 and 4 to the origin *)
  check_float "projected total" 5.0 (Chain.estimate p);
  check_bool "sound" true (Chain.estimate p >= 4.0);
  let narrow =
    Chain.of_tensor
      (T.of_coo ~dims:[| 2 |] ~formats:[| T.Sparse_list |] [| ([| 1 |], 1.0) |])
      ~idxs:[ "w00" ]
  in
  let both = Chain.aggregate ~dims (Chain.map_annihilating ~dims [ s; narrow ]) ~over in
  (* the narrow side's cylinder over 64 indices is far larger than 5 *)
  check_float "intersection keeps the smaller total" 5.0 (Chain.estimate both);
  let union = Chain.aggregate ~dims (Chain.map_non_annihilating ~dims [ s; narrow ]) ~over in
  check_bool "union bound covers both" true (Chain.estimate union >= 5.0);
  let r = Chain.rename p (fun i -> if i = "w00" then "a" else i) in
  check_float "rename keeps the total" 5.0 (Chain.estimate r)

(* -------------------------------------------------------------- *)
(* Estimation context.                                              *)
(* -------------------------------------------------------------- *)

let make_ctx ?(kind = Ctx.Chain_kind) (inputs : (string * T.t) list) : Ctx.t =
  let schema = Schema.create () in
  List.iter (fun (n, t) -> Schema.declare_tensor schema n t) inputs;
  let ctx = Ctx.create ~kind schema in
  List.iter (fun (n, t) -> ctx.Ctx.register_input n t) inputs;
  ctx

let test_ctx_estimates_input () =
  let prng = Prng.create 6 in
  let t = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  List.iter
    (fun kind ->
      let ctx = make_ctx ~kind [ ("A", t) ] in
      check_float
        (Ctx.kind_to_string kind)
        (float_of_int (T.nnz t))
        (ctx.Ctx.estimate_expr (Ir.input "A" [ "i"; "j" ])))
    [ Ctx.Uniform_kind; Ctx.Chain_kind ]

let test_ctx_sigmoid_fill_flip () =
  (* sigmoid makes everything non-fill w.r.t. the *new* fill only where the
     input deviates: pattern size is preserved. *)
  let prng = Prng.create 7 in
  let t = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  let ctx = make_ctx [ ("A", t) ] in
  let est =
    ctx.Ctx.estimate_expr (Ir.map Op.Sigmoid [ Ir.input "A" [ "i"; "j" ] ])
  in
  check_bool "pattern preserved" true (est >= float_of_int (T.nnz t) -. 1e-6)

let test_ctx_alias_estimated () =
  let prng = Prng.create 8 in
  let a = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  let ctx = make_ctx [ ("A", a) ] in
  let def = Ir.(sum [ "j" ] (input "A" [ "i"; "j" ])) in
  Schema.declare ctx.Ctx.schema "V" ~dims:[| 10 |] ~fill:0.0;
  ctx.Ctx.register_alias_estimated "V" ~output_idxs:[ "i" ] def;
  check_bool "alias registered" true (ctx.Ctx.has_stats "V");
  let est = ctx.Ctx.estimate_expr (Ir.alias "V" [ "q" ]) in
  check_bool "estimate sane" true (est >= 0.0 && est <= 10.0)

let test_ctx_alias_measured_overrides () =
  let prng = Prng.create 9 in
  let a = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  let ctx = make_ctx [ ("A", a) ] in
  Schema.declare ctx.Ctx.schema "V" ~dims:[| 10 |] ~fill:0.0;
  ctx.Ctx.register_alias_estimated "V" ~output_idxs:[ "i" ]
    Ir.(sum [ "j" ] (input "A" [ "i"; "j" ]));
  let measured =
    T.of_coo ~dims:[| 10 |] ~formats:[| T.Sparse_list |] [| ([| 3 |], 1.0) |]
  in
  ctx.Ctx.register_alias_tensor "V" measured;
  check_float "measured wins" 1.0 (ctx.Ctx.estimate_expr (Ir.alias "V" [ "i" ]))

let test_ctx_clone_isolated () =
  let prng = Prng.create 10 in
  let a = sparse_matrix ~prng ~rows:10 ~cols:10 ~density:0.3 in
  let ctx = make_ctx [ ("A", a) ] in
  let clone = ctx.Ctx.clone () in
  Schema.declare clone.Ctx.schema "W" ~dims:[| 10 |] ~fill:0.0;
  clone.Ctx.register_alias_estimated "W" ~output_idxs:[ "i" ]
    Ir.(sum [ "j" ] (input "A" [ "i"; "j" ]));
  check_bool "clone has it" true (clone.Ctx.has_stats "W");
  check_bool "original does not" false (ctx.Ctx.has_stats "W")

let test_ctx_access_projected () =
  let entries = Array.init 6 (fun j -> ([| 2; j |], 1.0)) in
  let t = T.of_coo ~dims:[| 6; 6 |] ~formats:[| T.Dense; T.Sparse_list |] entries in
  let ctx = make_ctx [ ("A", t) ] in
  let total =
    ctx.Ctx.estimate_access_projected "A" [ "i"; "j" ]
      (Ir.Idx_set.of_list [ "i"; "j" ])
  in
  check_float "full" 6.0 total;
  let rows =
    ctx.Ctx.estimate_access_projected "A" [ "i"; "j" ] (Ir.Idx_set.singleton "i")
  in
  check_bool "rows >= 1" true (rows >= 1.0 && rows <= 6.0)

(* Rebinding an input must not leave inferred alias statistics built from
   the old binding behind. *)
let test_ctx_rebind_refreshes_alias_stats () =
  let dense_rows = Array.init 1250 (fun e -> ([| e / 50; e mod 50 |], 1.0)) in
  let a1 = T.of_coo ~dims:[| 50; 50 |] ~formats:[| T.Dense; T.Sparse_list |] dense_rows in
  let a2 =
    T.of_coo ~dims:[| 50; 50 |] ~formats:[| T.Dense; T.Sparse_list |]
      (Array.init 26 (fun e -> ([| e; 0 |], 1.0)))
  in
  let def = Ir.(sum [ "j" ] (mul [ input "A" [ "i"; "j" ]; input "A" [ "j"; "k" ] ])) in
  let alias_estimate ctx =
    Schema.declare ctx.Ctx.schema "V" ~dims:[| 50; 50 |] ~fill:0.0;
    ctx.Ctx.register_alias_estimated "V" ~output_idxs:[ "i"; "k" ] def;
    ctx.Ctx.estimate_expr (Ir.alias "V" [ "i"; "k" ])
  in
  let ctx = make_ctx [ ("A", a1) ] in
  let before = alias_estimate ctx in
  Schema.declare_tensor ctx.Ctx.schema "A" a2;
  ctx.Ctx.register_input "A" a2;
  let after = alias_estimate ctx in
  let fresh = alias_estimate (make_ctx [ ("A", a2) ]) in
  check_float "rebound = fresh" fresh after;
  check_bool "old binding gave another estimate" true (before <> fresh)

(* -------------------------------------------------------------- *)
(* Cost model.                                                      *)
(* -------------------------------------------------------------- *)

let test_cost_model () =
  let open Galley_stats.Cost in
  let c = logical_query_cost ~nnz_body:100.0 ~nnz_out:10.0 () in
  check_bool "positive" true (c > 0.0);
  let c2 = logical_query_cost ~nnz_body:100.0 ~nnz_out:1000.0 () in
  check_bool "bigger output costs more" true (c2 > c);
  check_float "transpose linear" (2.0 *. transpose_cost ~nnz:50.0 ())
    (transpose_cost ~nnz:100.0 ())

(* -------------------------------------------------------------- *)
(* Bit-identity goldens.                                            *)
(* -------------------------------------------------------------- *)

(* Recorded from the string-keyed chain implementation that preceded the
   integer one: per workload expression, the bit patterns of a few probe
   estimates, a digest of every estimate the logical search asks for (in
   call order), and digests of the chosen physical plan and of the
   outputs.  Any change to a float the chain bound produces, or to a plan
   it picks, shows here. *)

module D = Galley.Driver
module W = Galley_workloads
module Canonical = Galley_plan.Canonical
module Physical = Galley_plan.Physical

let bits v = Printf.sprintf "%Lx" (Int64.bits_of_float v)
let hex s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* A context that appends every estimate it returns to [trace]. *)
let rec recording (trace : Buffer.t) (ctx : Ctx.t) : Ctx.t =
  let note v =
    Buffer.add_string trace (bits v);
    Buffer.add_char trace ';';
    v
  in
  {
    ctx with
    Ctx.estimate_expr = (fun e -> note (ctx.Ctx.estimate_expr e));
    estimate_access_projected =
      (fun n idxs keep -> note (ctx.Ctx.estimate_access_projected n idxs keep));
    clone = (fun () -> recording trace (ctx.Ctx.clone ()));
  }

let golden_values ~inputs ~(probes : Ir.expr list) (program : Ir.program) :
    string list =
  (* Fresh binder names feed the index order, so pin their counter. *)
  Canonical.fresh_counter := 0;
  let ctx = make_ctx inputs in
  let probe = List.map (fun e -> bits (ctx.Ctx.estimate_expr e)) probes in
  Canonical.fresh_counter := 0;
  let trace = Buffer.create 4096 in
  ignore
    (Galley_logical.Optimizer.optimize_program_tiered
       D.default_config.D.logical
       (recording trace (make_ctx inputs))
       (D.resolve_names program));
  Canonical.fresh_counter := 0;
  let r = D.run ~config:{ D.default_config with D.domains = 1 } ~inputs program in
  let outputs =
    String.concat ";"
      (List.map
         (fun (n, _, t) ->
           n ^ "="
           ^ String.concat ","
               (Array.to_list
                  (Array.map (fun (_, v) -> bits v) (T.to_coo t))))
         r.D.outputs)
  in
  probe
  @ [
      "trace " ^ hex (Buffer.contents trace);
      "plan " ^ hex (Physical.plan_to_string r.D.physical_plan);
      "out " ^ hex outputs;
    ]

let star_case alg ~scale ~seed =
  let star = W.Tpch.star_instance ~scale ~seed () in
  let params = W.Ml.parameter_inputs ~seed ~d:star.W.Tpch.d ~hidden:16 in
  let x = star.W.Tpch.x_def in
  let probes =
    Ir.
      [
        x;
        sum [ "j" ] (mul [ x; input "theta" [ "j" ] ]);
        sum [ "i" ] (mul [ x; W.Ml.x_with_feature x "k" ]);
      ]
  in
  golden_values
    ~inputs:(star.W.Tpch.inputs @ params)
    ~probes
    (W.Ml.program_of alg ~x ~pts:[ "i" ])

let pattern_case p =
  let g =
    W.Graphs.symmetrize
      (W.Graphs.power_law ~name:"dblp_lite" ~seed:104 ~n:80 ~m:240 ~alpha:0.7 ())
  in
  let program = W.Subgraph.count_program p in
  let body = (List.hd program.Ir.queries).Ir.expr in
  let probes =
    match body with Ir.Agg (_, _, product) -> [ body; product ] | _ -> [ body ]
  in
  golden_values ~inputs:(W.Subgraph.bindings g p) ~probes program

let ml_scale =
  { W.Tpch.n_lineitems = 120; n_suppliers = 8; n_parts = 20; n_orders = 30;
    n_customers = 12 }

let cov_scale =
  { W.Tpch.n_lineitems = 60; n_suppliers = 6; n_parts = 12; n_orders = 15;
    n_customers = 7 }

let goldens : (string * (unit -> string list) * string list) list =
  [
    ( "fig6 linreg",
      (fun () -> star_case W.Ml.Linreg ~scale:ml_scale ~seed:1000),
      [ "40c5cc0000000000"; "405e000000000000"; "40c0e48000000000"; "trace 3decd65cb5fa1747"; "plan 86d6addf272b19b3"; "out c0e9ea821a973039" ] );
    ( "fig6 nn",
      (fun () -> star_case W.Ml.Nn ~scale:ml_scale ~seed:1002),
      [ "40c7700000000000"; "405e000000000000"; "40c3880000000000"; "trace f4ca7c1fd01261c9"; "plan 0dd157b697c80d38"; "out a0023f3872bbcf90" ] );
    ( "fig6 covariance",
      (fun () -> star_case W.Ml.Covariance ~scale:cov_scale ~seed:1003),
      [ "40b20c0000000000"; "404e000000000000"; "40b7290000000000"; "trace ac63a9be845ba79a"; "plan cad34ccd86fb38ea"; "out 48aac419bcbfbc94" ] );
    ( "fig7 triangle",
      (fun () -> pattern_case W.Subgraph.triangle),
      [ "3ff0000000000000"; "40cc300000000000"; "trace f546d33d02dab380"; "plan 63a5e97ffba3bbd4"; "out bffdf2b5c484ce5a" ] );
    ( "fig7 diamond",
      (fun () -> pattern_case W.Subgraph.diamond),
      [ "3ff0000000000000"; "40fa440000000000"; "trace 3e782961a0c6532e"; "plan 14f0d0bd06966971"; "out 1024a63bc91aca1c" ] );
    ( "fig7 4-clique",
      (fun () -> pattern_case (W.Subgraph.clique 4)),
      [ "3ff0000000000000"; "40fa440000000000"; "trace 086a217b4809e9de"; "plan b6b1cc64780c1d27"; "out 1dd8971374afa69f" ] );
  ]

(* Random chain pipelines — tensors of 1 to 8 dimensions, some past the
   statistics work budget; cheap and full statistics; annihilating and
   non-annihilating merges, projections and renames that may merge two
   indices — one line of estimate bit patterns per seed. *)
let chain_pipeline (seed : int) : string =
  let prng = Prng.create seed in
  let pool = [| "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j"; "k" |] in
  let mk () =
    let nd = 1 + Prng.int prng (if seed mod 10 = 0 then 8 else 4) in
    let dims = Array.init nd (fun _ -> 1 + Prng.int prng (if nd > 5 then 3 else 7)) in
    let n = Prng.int prng (if seed mod 7 = 0 then 3000 else 60) in
    let entries =
      Array.init n (fun _ -> (Array.map (fun d -> Prng.int prng d) dims, 1.0))
    in
    let t = T.of_coo ~dims ~formats:(Array.make nd T.Sparse_list) entries in
    let names = Array.copy pool in
    Prng.shuffle prng names;
    let idxs = Array.to_list (Array.sub names 0 nd) in
    (Chain.of_tensor ~cheap:(Prng.bool prng) t ~idxs, List.combine idxs (Array.to_list dims))
  in
  let a, da = mk () in
  let b, db = mk () in
  let dims = dims_of (da @ db) in
  let over = List.filter (fun _ -> Prng.bool prng) (List.map fst (da @ db)) in
  let x = pool.(Prng.int prng 11) and y = pool.(Prng.int prng 11) in
  let ra = Chain.rename a (fun i -> if i = x then y else i) in
  let m1 = Chain.map_annihilating ~dims [ a; b ] in
  let m2 = Chain.map_non_annihilating ~dims [ a; b ] in
  let agg c = Chain.aggregate ~dims c ~over in
  String.concat " "
    (List.map
       (fun c -> bits (Chain.estimate c))
       [
         a; b; m1; m2; agg m1; agg m2; agg a; ra;
         Chain.map_annihilating ~dims [ ra; b ];
         Chain.aggregate ~dims (Chain.map_annihilating ~dims [ ra; agg m2 ]) ~over:[ y ];
         Chain.map_non_annihilating ~dims [ agg m1; b; ra ];
       ])

let test_chain_pipelines_golden () =
  let all = String.concat "\n" (List.init 400 (fun k -> chain_pipeline (k + 1))) in
  Alcotest.(check string) "400 pipelines" "993930c282996f50" (hex all)

let golden_tests =
  List.map
    (fun (name, run, expected) ->
      Alcotest.test_case name `Quick (fun () ->
          Alcotest.(check (list string)) name expected (run ())))
    goldens
  @ [ Alcotest.test_case "random chain pipelines" `Quick test_chain_pipelines_golden ]

let () =
  Alcotest.run "stats"
    [
      ( "uniform",
        [
          Alcotest.test_case "of_tensor" `Quick test_uniform_of_tensor;
          Alcotest.test_case "annihilating" `Quick test_uniform_annihilating;
          Alcotest.test_case "non-annihilating" `Quick test_uniform_non_annihilating;
          Alcotest.test_case "aggregate" `Quick test_uniform_aggregate;
          Alcotest.test_case "rename" `Quick test_uniform_rename;
          Alcotest.test_case "literal" `Quick test_uniform_literal;
        ] );
      ( "chain",
        [
          Alcotest.test_case "exact total" `Quick test_chain_of_tensor_exact_total;
          Alcotest.test_case "degree bound" `Quick test_chain_degree_bound_matrix;
          Alcotest.test_case "triangle bound" `Quick test_chain_triangle_bound;
          Alcotest.test_case "aggregate" `Quick test_chain_aggregate_drops_conditioned;
          Alcotest.test_case "past 62 indices" `Quick test_chain_wide_fallback;
        ] );
      ( "context",
        [
          Alcotest.test_case "input estimate" `Quick test_ctx_estimates_input;
          Alcotest.test_case "sigmoid fill" `Quick test_ctx_sigmoid_fill_flip;
          Alcotest.test_case "alias estimated" `Quick test_ctx_alias_estimated;
          Alcotest.test_case "alias measured" `Quick test_ctx_alias_measured_overrides;
          Alcotest.test_case "clone isolation" `Quick test_ctx_clone_isolated;
          Alcotest.test_case "projected access" `Quick test_ctx_access_projected;
          Alcotest.test_case "rebind refreshes alias stats" `Quick
            test_ctx_rebind_refreshes_alias_stats;
        ] );
      ("cost", [ Alcotest.test_case "weights" `Quick test_cost_model ]);
      ("golden", golden_tests);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_chain_upper_bound;
            prop_chain_union_upper_bound;
            prop_chain_degree_counts;
          ] );
    ]
