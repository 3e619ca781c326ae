(* Estimation context: the bridge between the optimizers and a concrete
   sparsity estimator.

   The context annotates expressions bottom-up with statistics objects
   (paper Sec. 7.2): Input/Alias leaves look up cached per-tensor statistics
   (renamed to the access's index variables), Map nodes dispatch to the
   annihilating or non-annihilating merge depending on the operator's
   annihilator and the children's fill values, and Agg nodes project.

   Alias statistics can come from two sources: *inferred* (annotating the
   defining expression, used during logical optimization) or *measured*
   (constructed from the materialized tensor, used by just-in-time physical
   optimization, paper Sec. 8.1). *)

open Galley_plan

type kind = Uniform_kind | Chain_kind

let kind_to_string = function
  | Uniform_kind -> "uniform"
  | Chain_kind -> "chain"

type t = {
  kind : kind;
  schema : Schema.t;
  register_input : string -> Galley_tensor.Tensor.t -> unit;
  register_alias_estimated : string -> output_idxs:Ir.idx list -> Ir.expr -> unit;
  register_alias_tensor : string -> Galley_tensor.Tensor.t -> unit;
  estimate_expr : Ir.expr -> float;
  estimate_access_projected : string -> Ir.idx list -> Ir.Idx_set.t -> float;
  has_stats : string -> bool;
  clone : unit -> t; (* snapshot of the alias-statistics state for search *)
}

(* Canonical positional index names used for cached per-tensor stats. *)
let canon_names = Array.init 16 (Printf.sprintf "%%%d")

let canon_idx k =
  if k < Array.length canon_names then canon_names.(k)
  else Printf.sprintf "%%%d" k

(* k for a canonical name "%k", else -1. *)
let canon_pos (i : string) : int =
  let n = String.length i in
  let rec digits p acc =
    if p = n then acc
    else
      match i.[p] with
      | '0' .. '9' as c -> digits (p + 1) ((acc * 10) + Char.code c - 48)
      | _ -> -1
  in
  if n >= 2 && i.[0] = '%' && (n = 2 || i.[1] <> '0') then digits 1 0 else -1

(* Estimator traffic, per context kind, for the metrics report.  Memo
   hits count too — the counters measure how hard the optimizers lean on
   the estimator, not estimator-internal cost. *)
let m_calls_uniform = Galley_obs.Metrics.counter "estimator.calls.uniform"
let m_calls_chain = Galley_obs.Metrics.counter "estimator.calls.chain"

let calls_counter = function
  | Uniform_kind -> m_calls_uniform
  | Chain_kind -> m_calls_chain

module Build (E : Estimator_sig.S) = struct
  type state = {
    schema : Schema.t;
    cache : (string, E.t) Hashtbl.t; (* canonical positional names *)
    memo : (string, float) Hashtbl.t;
        (* estimates per resolved canonical key: alias names are replaced by
           the ids of their definitions' keys, so semantically identical
           sub-queries reached along different search branches share
           entries.  Cleared only when an existing name is re-registered
           (JIT refresh, rebind). *)
    def_keys : (string, string) Hashtbl.t; (* alias -> definition id *)
    def_ids : (string, string) Hashtbl.t;
        (* resolved definition key -> short id ("=" and a number, which no
           tensor name can be): keys embed the id, not the expanded
           definition.  Shared across clones; never cleared, so an id
           never changes meaning. *)
    stats_memo : (string, E.t) Hashtbl.t;
        (* inferred alias statistics per (definition id | output order):
           branch-independent, shared across clones like [memo], and
           cleared with it *)
  }

  let resolved_key (st : state) (e : Ir.expr) : string =
    Canonical.canonical_key
      ~resolve_alias:(fun n ->
        match Hashtbl.find_opt st.def_keys n with Some k -> k | None -> n)
      e

  let intern (st : state) (key : string) : string =
    match Hashtbl.find_opt st.def_ids key with
    | Some id -> id
    | None ->
        let id = "=" ^ string_of_int (Hashtbl.length st.def_ids) in
        Hashtbl.add st.def_ids key id;
        id

  (* A re-registered name makes every cached estimate and every inferred
     alias statistic that may have read it stale. *)
  let invalidate (st : state) : unit =
    Hashtbl.reset st.memo;
    Hashtbl.reset st.stats_memo

  let lookup (st : state) (name : string) (access_idxs : Ir.idx list) : E.t =
    match Hashtbl.find_opt st.cache name with
    | None -> invalid_arg ("Stats.Ctx: no statistics registered for " ^ name)
    | Some stats ->
        let access = Array.of_list access_idxs in
        E.rename stats (fun i ->
            let k = canon_pos i in
            if k >= 0 && k < Array.length access then access.(k) else i)

  (* Annotate an expression, returning its statistics and its fill value. *)
  let rec annotate (st : state) (dims : int Ir.Idx_map.t) (e : Ir.expr) :
      E.t * float =
    match e with
    | Ir.Input (name, idxs) | Ir.Alias (name, idxs) ->
        (lookup st name idxs, Schema.fill_of st.schema name)
    | Ir.Literal v -> (E.of_literal v, v)
    | Ir.Map (op, args) ->
        let annotated = List.map (annotate st dims) args in
        let stats = List.map fst annotated in
        let fills = List.map snd annotated in
        let fill = Op.apply op (Array.of_list fills) in
        let annihilating =
          match Op.annihilator op with
          | Some a -> List.for_all (fun f -> f = a) fills
          | None -> false
        in
        let merged =
          if annihilating then E.map_annihilating ~dims stats
          else E.map_non_annihilating ~dims stats
        in
        (merged, fill)
    | Ir.Agg (op, idxs, body) ->
        let body_stats, body_fill = annotate st dims body in
        let n = int_of_float (Schema.space dims idxs) in
        (E.aggregate ~dims body_stats ~over:idxs, Op.repeat op body_fill n)

  let rec make_with (st : state) (kind : kind) : t =
    let register_tensor ?cheap name tensor =
      let nd = Array.length (Galley_tensor.Tensor.dims tensor) in
      let idxs = List.init nd canon_idx in
      if Hashtbl.mem st.cache name then begin
        (* Re-registration (JIT refresh, rebind). *)
        invalidate st;
        Hashtbl.remove st.def_keys name
      end;
      Hashtbl.replace st.cache name (E.of_tensor ?cheap tensor ~idxs)
    in
    let schema = st.schema in
    {
      kind;
      schema;
      register_input = register_tensor ~cheap:false;
      register_alias_estimated =
        (fun name ~output_idxs e ->
          let def_key = intern st (resolved_key st e) in
          let stats_key = def_key ^ "|" ^ String.concat "," output_idxs in
          let stats =
            match Hashtbl.find_opt st.stats_memo stats_key with
            | Some stats -> stats
            | None ->
                let dims = Schema.index_dims schema e in
                let stats, _fill = annotate st dims e in
                (* Store under canonical positional names following the
                   alias's output dimension order. *)
                let subst = Hashtbl.create 8 in
                List.iteri
                  (fun k i -> Hashtbl.replace subst i (canon_idx k))
                  output_idxs;
                let stats =
                  E.rename stats (fun i ->
                      match Hashtbl.find_opt subst i with
                      | Some j -> j
                      | None -> i)
                in
                Hashtbl.replace st.stats_memo stats_key stats;
                stats
          in
          if Hashtbl.mem st.cache name then invalidate st;
          Hashtbl.replace st.def_keys name def_key;
          Hashtbl.replace st.cache name stats);
      register_alias_tensor = register_tensor ~cheap:true;
      estimate_expr =
        (fun e ->
          Galley_obs.Metrics.incr (calls_counter kind);
          let key = resolved_key st e in
          match Hashtbl.find_opt st.memo key with
          | Some v -> v
          | None ->
              let dims = Schema.index_dims schema e in
              let stats, _ = annotate st dims e in
              let v = E.estimate stats in
              Hashtbl.replace st.memo key v;
              v);
      estimate_access_projected =
        (fun name idxs keep ->
          Galley_obs.Metrics.incr (calls_counter kind);
          let stats = lookup st name idxs in
          let over = List.filter (fun i -> not (Ir.Idx_set.mem i keep)) idxs in
          let dims =
            List.fold_left
              (fun acc i ->
                match Schema.find schema name with
                | Some info ->
                    let k =
                      match
                        List.find_opt (fun (_, j) -> j = i)
                          (List.mapi (fun k j -> (k, j)) idxs)
                      with
                      | Some (k, _) -> k
                      | None -> 0
                    in
                    Ir.Idx_map.add i info.Schema.dims.(k) acc
                | None -> acc)
              Ir.Idx_map.empty idxs
          in
          E.estimate (E.aggregate ~dims stats ~over));
      has_stats = (fun name -> Hashtbl.mem st.cache name);
      clone =
        (fun () ->
          make_with
            {
              schema = Schema.copy st.schema;
              cache = Hashtbl.copy st.cache;
              memo = st.memo; (* shared: resolved keys are branch-independent *)
              def_keys = Hashtbl.copy st.def_keys;
              def_ids = st.def_ids;
              stats_memo = st.stats_memo;
            }
            kind);
    }

  let make (schema : Schema.t) (kind : kind) : t =
    make_with
      {
        schema;
        cache = Hashtbl.create 32;
        memo = Hashtbl.create 1024;
        def_keys = Hashtbl.create 64;
        def_ids = Hashtbl.create 64;
        stats_memo = Hashtbl.create 256;
      }
      kind
end

module Uniform_ctx = Build (Uniform)
module Chain_ctx = Build (Chain)

let create ?(kind = Chain_kind) (schema : Schema.t) : t =
  match kind with
  | Uniform_kind -> Uniform_ctx.make schema kind
  | Chain_kind -> Chain_ctx.make schema kind
