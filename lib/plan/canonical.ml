(* Canonicalization of input programs (paper Sec. 5.1) and canonical hashing
   for common sub-expression elimination (paper Sec. 8.2).

   The canonicalization rules, applied exhaustively:
     1. merge nested Map operators with the same associative operator;
     2. merge nested Agg operators with the same operator;
     3. lift Agg operators above Map operators when the pointwise operator
        distributes over the aggregate and no other Map argument mentions
        the aggregated indices;
     4. rename aggregate-bound indices to be globally unique;
   plus housekeeping: drop empty aggregates, unwrap singleton variadic maps,
   fold all-literal maps, and turn aggregates over indices absent from their
   body into an explicit repeated-application Map. *)

let fresh_counter = ref 0

let fresh_idx (base : Ir.idx) : Ir.idx =
  incr fresh_counter;
  Printf.sprintf "%s#%d" base !fresh_counter

(* Rule 4: make every Agg binder unique and distinct from free indices. *)
let uniquify (e : Ir.expr) : Ir.expr =
  let free = Ir.free_indices e in
  let seen_binders = ref free in
  let rename subst i =
    match Ir.Idx_map.find_opt i subst with Some j -> j | None -> i
  in
  let rec go (subst : Ir.idx Ir.Idx_map.t) (e : Ir.expr) : Ir.expr =
    match e with
    | Ir.Input (n, idxs) -> Ir.Input (n, List.map (rename subst) idxs)
    | Ir.Alias (n, idxs) -> Ir.Alias (n, List.map (rename subst) idxs)
    | Ir.Literal _ -> e
    | Ir.Map (op, args) -> Ir.Map (op, List.map (go subst) args)
    | Ir.Agg (op, idxs, body) ->
        let subst, idxs =
          List.fold_left_map
            (fun subst i ->
              if Ir.Idx_set.mem i !seen_binders then begin
                let j = fresh_idx i in
                seen_binders := Ir.Idx_set.add j !seen_binders;
                (Ir.Idx_map.add i j subst, j)
              end
              else begin
                seen_binders := Ir.Idx_set.add i !seen_binders;
                (subst, i)
              end)
            subst idxs
        in
        Ir.Agg (op, idxs, go subst body)
  in
  go Ir.Idx_map.empty e

(* One bottom-up simplification pass; [dims] is needed to rewrite aggregates
   over absent indices into repeated application. *)
let rec simplify_once (dims : int Ir.Idx_map.t) (e : Ir.expr) : Ir.expr =
  match e with
  | Ir.Input _ | Ir.Alias _ | Ir.Literal _ -> e
  | Ir.Map (op, args) -> (
      let args = List.map (simplify_once dims) args in
      (* Rule 1: flatten nested variadic maps with the same operator. *)
      let args =
        if Op.is_associative op then
          List.concat_map
            (fun a ->
              match a with Ir.Map (op', args') when op' = op -> args' | _ -> [ a ])
            args
        else args
      in
      (* Fold literals. *)
      let lits, rest =
        List.partition (fun a -> match a with Ir.Literal _ -> true | _ -> false) args
      in
      let args =
        if Op.is_commutative op && List.length lits >= 2 then begin
          let v =
            Op.apply op
              (Array.of_list
                 (List.map
                    (fun a -> match a with Ir.Literal v -> v | _ -> assert false)
                    lits))
          in
          Ir.Literal v :: rest
        end
        else args
      in
      match args with
      | [ a ] when Op.arity op = Op.Variadic || op = Op.Ident -> a
      | [ Ir.Literal v ] when Op.arity op = Op.Unary -> Ir.Literal (Op.apply1 op v)
      | [ Ir.Literal a; Ir.Literal b ] when Op.arity op = Op.Binary ->
          Ir.Literal (Op.apply2 op a b)
      | args -> lift_aggregates dims op args)
  | Ir.Agg (op, idxs, body) -> (
      let body = simplify_once dims body in
      if idxs = [] then body
      else
        (* Split indices into those present in the body and those absent;
           absent ones contribute a repeated application g(x, n). *)
        let free = Ir.free_indices body in
        let present, absent = List.partition (fun i -> Ir.Idx_set.mem i free) idxs in
        let wrap_absent e =
          List.fold_left
            (fun e i ->
              let n = Schema.dim_of_idx dims i in
              (* [Ir.repeat_expr] carries the per-aggregate algebra,
                 including the 0/1 normalization Or/And need (they are
                 idempotent only up to truthiness). *)
              match Ir.repeat_expr op e n with
              | Some e' -> e'
              | None -> Ir.Agg (op, [ i ], e) (* keep: no closed form *))
            e absent
        in
        let core =
          if present = [] then body
          else
            (* Rule 2: merge directly nested aggregates with the same op. *)
            match body with
            | Ir.Agg (op', idxs', body') when op' = op ->
                Ir.Agg (op, present @ idxs', body')
            | _ -> Ir.Agg (op, present, body)
        in
        wrap_absent core)

(* Rule 3: given Map (op, args) where some argument is an aggregate that op
   distributes over (or where op is the same commutative operator), lift the
   aggregate above the map when no *other* argument mentions its indices. *)
and lift_aggregates (dims : int Ir.Idx_map.t) (op : Op.t)
    (args : Ir.expr list) : Ir.expr =
  let try_lift () =
    let rec split before = function
      | [] -> None
      | Ir.Agg (agg_op, idxs, body) :: after
        when Op.distributes_over ~pointwise:op ~aggregate:agg_op
             && List.for_all
                  (fun other ->
                    List.for_all (fun i -> not (Ir.mentions other i)) idxs)
                  (List.rev_append before after) ->
          Some (List.rev before, (agg_op, idxs, body), after)
      | a :: after -> split (a :: before) after
    in
    split [] args
  in
  match try_lift () with
  | Some (before, (agg_op, idxs, body), after) ->
      simplify_once dims
        (Ir.Agg (agg_op, idxs, Ir.Map (op, before @ (body :: after))))
  | None -> Ir.Map (op, args)

let rec simplify (dims : int Ir.Idx_map.t) (e : Ir.expr) : Ir.expr =
  let e' = simplify_once dims e in
  if e' = e then e else simplify dims e'

(* Full canonicalization of a query expression. *)
let canonicalize (schema : Schema.t) (e : Ir.expr) : Ir.expr =
  let e = uniquify e in
  let dims = Schema.index_dims schema e in
  simplify dims e

(* ------------------------------------------------------------------ *)
(* Canonical keys for common sub-expression elimination.                *)
(* ------------------------------------------------------------------ *)

(* A canonical string for an expression: indices are renamed in first-
   occurrence order of a canonical traversal, and the children of
   commutative operators are sorted by their canonical strings.  Two
   expressions with equal keys denote the same tensor (given equal input
   bindings), up to index naming.  Written in one pass into a buffer;
   only the children of a commutative operator get strings of their own,
   the naming-independent keys they are sorted by. *)
let canonical_key ?(resolve_alias = fun (n : string) -> n) (e : Ir.expr) :
    string =
  let rec add_int b k =
    if k >= 10 then add_int b (k / 10);
    Buffer.add_char b (Char.chr (48 + (k mod 10)))
  in
  (* [env]: indices numbered so far, with their numbers *)
  let rec emit (b : Buffer.t) (env : (Ir.idx * int) list ref) (e : Ir.expr) :
      unit =
    let idx i =
      let k =
        match List.assoc_opt i !env with
        | Some k -> k
        | None ->
            let k = List.length !env in
            env := (i, k) :: !env;
            k
      in
      Buffer.add_char b '$';
      add_int b k
    in
    let idx_list idxs =
      List.iteri
        (fun n i ->
          if n > 0 then Buffer.add_char b ',';
          idx i)
        idxs
    in
    match e with
    | Ir.Input (n, idxs) ->
        Buffer.add_string b "I:";
        Buffer.add_string b n;
        Buffer.add_char b '[';
        idx_list idxs;
        Buffer.add_char b ']'
    | Ir.Alias (n, idxs) ->
        Buffer.add_string b "A:{";
        Buffer.add_string b (resolve_alias n);
        Buffer.add_string b "}[";
        idx_list idxs;
        Buffer.add_char b ']'
    | Ir.Literal v -> Buffer.add_string b (Printf.sprintf "L:%h" v)
    | Ir.Map (op, args) ->
        let args =
          if Op.is_commutative op then
            (* Sort by a naming-independent preliminary key so the final
               index numbering does not depend on the original order. *)
            List.map snd
              (List.stable_sort
                 (fun (k1, _) (k2, _) -> String.compare k1 k2)
                 (List.map (fun a -> (key a, a)) args))
          else args
        in
        Buffer.add_string b "M:";
        Buffer.add_string b (Op.to_string op);
        Buffer.add_char b '(';
        List.iteri
          (fun n a ->
            if n > 0 then Buffer.add_char b ';';
            emit b env a)
          args;
        Buffer.add_char b ')'
    | Ir.Agg (op, idxs, body) ->
        Buffer.add_string b "G:";
        Buffer.add_string b (Op.to_string op);
        Buffer.add_char b '[';
        idx_list idxs;
        Buffer.add_string b "](";
        emit b env body;
        Buffer.add_char b ')'
  and key (e : Ir.expr) : string =
    let b = Buffer.create 64 in
    emit b (ref []) e;
    Buffer.contents b
  in
  key e
