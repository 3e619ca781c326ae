(* Degree statistics and the chain bound (paper Sec. 7.3.2).

   A degree statistic D_A(X|Y) stores the maximum number of distinct
   non-fill X-coordinates conditioned on any fixed Y-coordinate.  Estimates
   are *upper bounds* computed as the cheapest product of degree weights
   along a path from the empty index set to the full index set
   (breadth-first search over the cardinality-estimation graph, after
   Chen et al. [13]).

   Representation: the index names are kept sorted in [Ir.Idx_set] order,
   so bit k of an index-set mask is [names.(k)].  Constraint k reads
   D(cx.(k) | cy.(k)) <= cb.(k).  Every product of dimension sizes runs in
   increasing bit order, the order a fold over the index set takes, which
   keeps the floats independent of the representation.

   Past [max_bits] indices a mask no longer fits an int.  Such statistics
   keep one constraint, the total count, with [cx = -1] standing for "all
   names": a looser bound, still an upper bound. *)

open Galley_plan
module T = Galley_tensor.Tensor

type t = {
  names : Ir.idx array;  (* sorted; bit k is names.(k) *)
  sizes : int array;  (* sizes.(k): dimension of names.(k) *)
  cx : int array;
  cy : int array;
  cb : float array;
  empty : bool; (* true when the deviation set is known to be empty *)
}

let name = "chain"

let max_bits = 62

let wide_n n = n > max_bits

let idxs t = Ir.Idx_set.of_list (Array.to_list t.names)

(* Beyond this many index variables we stop enumerating all (X,Y) splits
   and fall back to singleton-X constraints. *)
let max_full_enum = 6

let full_mask n = if wide_n n then -1 else (1 lsl n) - 1

let space (t : t) : float =
  let acc = ref 1.0 in
  for k = 0 to Array.length t.sizes - 1 do
    acc := !acc *. float_of_int t.sizes.(k)
  done;
  !acc

(* Product of the sizes of [m]'s members, in increasing bit order. *)
let prod (sizes : int array) (m : int) : float =
  let acc = ref 1.0 and m = ref m and k = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 then acc := !acc *. float_of_int sizes.(!k);
    m := !m lsr 1;
    incr k
  done;
  !acc

(* [prod sizes m] for every mask m over [sizes], by adding the highest
   bit last: the same floats as [prod]. *)
let prod_table (sizes : int array) : float array =
  let n = Array.length sizes in
  let tbl = Array.make (1 lsl n) 1.0 in
  for k = 0 to n - 1 do
    let s = float_of_int sizes.(k) in
    for m = 1 lsl k to (1 lsl (k + 1)) - 1 do
      tbl.(m) <- tbl.(m - (1 lsl k)) *. s
    done
  done;
  tbl

(* Position of [i] in the sorted [names], or -1. *)
let find (names : Ir.idx array) (i : Ir.idx) : int =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let c = String.compare names.(mid) i in
      if c = 0 then mid else if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length names)

(* Rewrite [m] bit by bit: bit k goes to bit [dst.(k)] (dropped when -1). *)
let remap (dst : int array) (m : int) : int =
  let r = ref 0 and m = ref m and k = ref 0 in
  while !m <> 0 do
    if !m land 1 = 1 && dst.(!k) >= 0 then r := !r lor (1 lsl dst.(!k));
    m := !m lsr 1;
    incr k
  done;
  !r

(* The restricted split enumeration over [n] indices: X a singleton or
   everything-but-Y, with |Y| <= 2.  Its length is the traversal cost the
   statistics budget weighs, so it keeps the duplicate it makes when a
   single index is left over. *)
let xy_pairs_restricted (n : int) : (int * int) list =
  let full = full_mask n in
  let ys =
    0
    :: List.concat
         (List.init n (fun i ->
              (1 lsl i)
              :: List.init (n - i - 1) (fun d ->
                     (1 lsl i) lor (1 lsl (i + d + 1)))))
  in
  List.concat_map
    (fun y ->
      let rest = full land lnot y in
      let singles =
        List.filter_map
          (fun k -> if rest land (1 lsl k) <> 0 then Some (1 lsl k, y) else None)
          (List.init n Fun.id)
      in
      if rest = 0 then singles else (rest, y) :: singles)
    ys

(* All (X, Y) pairs of disjoint subsets with X non-empty, as parallel mask
   arrays: every pair up to [max_full_enum] indices (tabulated once),
   the restricted enumeration past it. *)
let split_arrays (l : (int * int) list) : int array * int array =
  let l = List.sort_uniq compare l in
  (Array.of_list (List.map fst l), Array.of_list (List.map snd l))

let full_pairs =
  Array.init (max_full_enum + 1) (fun n ->
      let full = full_mask n in
      let acc = ref [] in
      for y = 0 to full do
        let rest = full land lnot y in
        (* non-empty submasks of [rest] *)
        let x = ref rest in
        while !x <> 0 do
          acc := (!x, y) :: !acc;
          x := (!x - 1) land rest
        done
      done;
      split_arrays !acc)

let xy_pairs (n : int) : int array * int array =
  if n <= max_full_enum then full_pairs.(n)
  else split_arrays (xy_pairs_restricted n)

let popcount (m : int) : int =
  let c = ref 0 and m = ref m in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr c
  done;
  !c

(* Drop every constraint another one implies.  (X|Y) with bound b is
   implied by (X|Y') with Y' ⊆ Y and b' <= b: wherever the first applies
   (a relaxation edge, a cylinder bound, a projection that keeps it) the
   second applies too, at no larger weight, so no minimum the chain bound
   takes can change.  Equal constraints collapse to one.  The result is
   ordered by (X, bound). *)
let prune (cx : int array) (cy : int array) (cb : float array) : t -> t =
  let n = Array.length cx in
  let ord = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      if cx.(a) <> cx.(b) then Int.compare cx.(a) cx.(b)
      else if cb.(a) <> cb.(b) then Float.compare cb.(a) cb.(b)
      else Int.compare (popcount cy.(a)) (popcount cy.(b)))
    ord;
  (* Within a run of equal X, an entry is kept unless an earlier kept one
     (no larger bound) conditions on a subset of its Y. *)
  let kept = Array.make n 0 and m = ref 0 and group = ref 0 in
  for j = 0 to n - 1 do
    let a = ord.(j) in
    if j > 0 && cx.(ord.(j - 1)) <> cx.(a) then group := !m;
    let implied = ref false in
    for i = !group to !m - 1 do
      let b = kept.(i) in
      if cy.(b) land cy.(a) = cy.(b) then implied := true
    done;
    if not !implied then begin
      kept.(!m) <- a;
      incr m
    end
  done;
  let pick a = Array.init !m (fun j -> a.(kept.(j))) in
  fun c -> { c with cx = pick cx; cy = pick cy; cb = pick cb }

(* ------------------------------------------------------------------ *)
(* Degree counting.                                                     *)
(* ------------------------------------------------------------------ *)

(* Length of the longest run of distinct adjacent values among the first
   [n] sorted [keys] that [same_y] puts in one group. *)
let longest_run (n : int) (distinct : int -> bool) (same_y : int -> bool) :
    int =
  let best = ref (min n 1) and run = ref 1 in
  for e = 1 to n - 1 do
    if distinct e then
      if same_y e then begin
        incr run;
        if !run > !best then best := !run
      end
      else run := 1
  done;
  !best

(* Maximum number of distinct x-projections per y-projection over the
   [n] entries of [coords] (entry e's coordinate at storage position p is
   [coords.(e * nd + p)]).  Each entry becomes one mixed-radix key (y, x)
   in [keys] (length [n]); sorted, the keys of one y form a run, and
   distinct keys in a run are distinct x.  When the radix product
   overflows, keys are boxed int arrays compared lexicographically. *)
let max_degree ~(coords : int array) ~(nd : int) ~(n : int) ~(keys : int array)
    ~(dims : int array) ~(xpos : int array) ~(ypos : int array) : int =
  let radix ps =
    Array.fold_left
      (fun acc p ->
        if acc >= 0 && (dims.(p) = 0 || acc <= max_int / dims.(p)) then
          acc * dims.(p)
        else -1)
      1 ps
  in
  let xs = radix xpos and ys = radix ypos in
  let pack ps base =
    let acc = ref 0 in
    for j = 0 to Array.length ps - 1 do
      acc := (!acc * dims.(ps.(j))) + coords.(base + ps.(j))
    done;
    !acc
  in
  if xs >= 0 && ys >= 0 && (ys = 0 || xs <= max_int / ys) then begin
    for e = 0 to n - 1 do
      keys.(e) <- (pack ypos (e * nd) * xs) + pack xpos (e * nd)
    done;
    Array.sort Int.compare keys;
    longest_run n
      (fun e -> keys.(e) <> keys.(e - 1))
      (fun e -> keys.(e) / xs = keys.(e - 1) / xs)
  end
  else begin
    let ps = Array.append ypos xpos and ny = Array.length ypos in
    let boxed =
      Array.init n (fun e -> Array.map (fun p -> coords.((e * nd) + p)) ps)
    in
    Array.sort compare boxed;
    longest_run n
      (fun e -> boxed.(e) <> boxed.(e - 1))
      (fun e -> Array.sub boxed.(e) 0 ny = Array.sub boxed.(e - 1) 0 ny)
  end

let of_tensor ?(cheap = false) tensor ~idxs:idx_list =
  let dims = T.dims tensor in
  let nd = Array.length dims in
  if nd <> List.length idx_list then
    invalid_arg "Chain.of_tensor: arity mismatch";
  let idx_arr = Array.of_list idx_list in
  (* order.(k): storage position of the k-th name in sorted order *)
  let order = Array.init nd Fun.id in
  Array.stable_sort (fun a b -> String.compare idx_arr.(a) idx_arr.(b)) order;
  let names = Array.map (fun p -> idx_arr.(p)) order in
  for k = 1 to nd - 1 do
    if names.(k) = names.(k - 1) then
      invalid_arg ("Chain.of_tensor: repeated index " ^ names.(k))
  done;
  let sizes = Array.map (fun p -> dims.(p)) order in
  let n_entries = T.nnz tensor in
  let stats cx cy cb = { names; sizes; cx; cy; cb; empty = n_entries = 0 } in
  let total = float_of_int n_entries in
  if nd = 0 then stats [||] [||] [||]
  else if wide_n nd then stats [| -1 |] [| 0 |] [| total |]
  else begin
    (* The total count D(I|emptyset) is exactly the non-fill count: free.
       The remaining splits cost one traversal of all *explicit* slots each
       (dense levels store every position), so pick the split set by a
       work budget — large tensors (e.g. intermediates measured by JIT
       optimization, where mostly the *size* matters, paper Sec. 8.1) keep
       only cheap stats. *)
    let work_budget = if cheap then 40_000 else 400_000 in
    let pass_cost = max n_entries (T.explicit_count tensor) in
    let restricted = xy_pairs_restricted nd in
    let xs, ys =
      let n_all =
        if nd <= max_full_enum then Array.length (fst full_pairs.(nd))
        else List.length restricted
      in
      if pass_cost * n_all <= work_budget then xy_pairs nd
      else if pass_cost * List.length restricted <= work_budget then
        split_arrays restricted
      else if pass_cost * nd <= 2 * work_budget then
        (* Per-dimension distinct counts only. *)
        (Array.init nd (fun k -> 1 lsl k), Array.make nd 0)
      else ([||], [||]) (* total count only: what JIT refresh needs (Sec. 8.1) *)
    in
    let full = full_mask nd in
    let cx = Array.append [| full |] xs and cy = Array.append [| 0 |] ys in
    (* One traversal collects the coordinates, if some split needs them;
       each split then counts its degrees from them. *)
    let coords =
      lazy
        (let coords = Array.make (n_entries * nd) 0 and e = ref 0 in
         T.iter_nonfill tensor (fun c _ ->
             Array.blit c 0 coords (!e * nd) nd;
             incr e);
         coords)
    in
    let keys = lazy (Array.make n_entries 0) in
    let positions m =
      Array.of_list
        (List.filter_map
           (fun k -> if m land (1 lsl k) <> 0 then Some order.(k) else None)
           (List.init nd Fun.id))
    in
    let cb =
      Array.mapi
        (fun k x ->
          if x = full && cy.(k) = 0 then total
          else
            float_of_int
              (max_degree ~coords:(Lazy.force coords) ~nd ~n:n_entries
                 ~keys:(Lazy.force keys) ~dims ~xpos:(positions x)
                 ~ypos:(positions cy.(k))))
        cx
    in
    prune cx cy cb (stats cx cy cb)
  end

let of_literal _v =
  { names = [||]; sizes = [||]; cx = [||]; cy = [||]; cb = [||]; empty = true }

(* ------------------------------------------------------------------ *)
(* Merges.                                                              *)
(* ------------------------------------------------------------------ *)

(* Sorted names without repeats. *)
let sorted_unique (a : Ir.idx array) : Ir.idx array =
  let a = Array.copy a in
  Array.sort String.compare a;
  let first k = k = 0 || a.(k) <> a.(k - 1) in
  let rec unique k = k = Array.length a || (first k && unique (k + 1)) in
  if unique 0 then a
  else
    Array.of_list
      (List.filter_map
         (fun k -> if first k then Some a.(k) else None)
         (List.init (Array.length a) Fun.id))

(* The union of the children's names, with sizes from [dims] first, else
   from the first child that has the name. *)
let union_names ~(dims : int Ir.Idx_map.t) (children : t list) :
    Ir.idx array * int array =
  let names = sorted_unique (Array.concat (List.map (fun c -> c.names) children)) in
  let sizes =
    Array.map
      (fun i ->
        match Ir.Idx_map.find_opt i dims with
        | Some n -> n
        | None ->
            let c = List.find (fun c -> find c.names i >= 0) children in
            c.sizes.(find c.names i))
      names
  in
  (names, sizes)

(* [c]'s constraint masks moved to the bit positions of [names], a
   superset of [c.names] that fits the mask width. *)
let lift (names : Ir.idx array) (c : t) : int array * int array =
  let dst = Array.map (find names) c.names in
  (Array.map (remap dst) c.cx, Array.map (remap dst) c.cy)

(* Sound bound on the non-fill count of [c] extended cylindrically to
   [names]/[sizes]: how merges past [max_bits] keep their total count. *)
let cylinder_total (c : t) ~(names : Ir.idx array) ~(sizes : int array) :
    float =
  if c.empty then 0.0
  else begin
    let outside = ref 1.0 in
    Array.iteri
      (fun k i ->
        if find c.names i < 0 then outside := !outside *. float_of_int sizes.(k))
      names;
    let all = full_mask (Array.length c.names) in
    let inner = ref (space c) in
    Array.iteri
      (fun k x ->
        if c.cy.(k) = 0 then
          let extra = if x = -1 then 1.0 else prod c.sizes (all land lnot x) in
          inner := Float.min !inner (c.cb.(k) *. extra))
      c.cx;
    !inner *. !outside
  end

let total_only names sizes bound empty =
  { names; sizes; cx = [| -1 |]; cy = [| 0 |]; cb = [| bound |]; empty }

let map_annihilating ~dims children =
  let names, sizes = union_names ~dims children in
  let empty = List.exists (fun c -> c.empty) children in
  if wide_n (Array.length names) then
    total_only names sizes
      (List.fold_left
         (fun acc c -> Float.min acc (cylinder_total c ~names ~sizes))
         infinity children)
      empty
  else begin
    (* Every child's constraints in [names]' bits, pruned. *)
    let lifted = List.map (lift names) children in
    let cx = Array.concat (List.map fst lifted)
    and cy = Array.concat (List.map snd lifted)
    and cb = Array.concat (List.map (fun c -> c.cb) children) in
    prune cx cy cb { names; sizes; cx; cy; cb; empty }
  end

let map_non_annihilating ~dims children =
  let names, sizes = union_names ~dims children in
  let empty = List.for_all (fun c -> c.empty) children in
  let n = Array.length names in
  if wide_n n then
    total_only names sizes
      (List.fold_left
         (fun acc c -> acc +. cylinder_total c ~names ~sizes)
         0.0 children)
      empty
  else begin
    let xs, ys = xy_pairs n in
    let tbl = if n <= 16 then prod_table sizes else [||] in
    let space_of m = if n <= 16 then tbl.(m) else prod sizes m in
    let kids =
      Array.of_list
        (List.map
           (fun c ->
             let lx, ly = lift names c in
             (c.empty, lx, ly, c.cb))
           children)
    in
    (* Per pair, the sum over children of the tightest bound on the
       distinct [x]-coordinates of the child's cylinder, conditioned on
       [y]: any constraint (X'|Y') with X' ⊆ x and Y' ⊆ y gives
       bound · Π_{k ∈ x∖X'} n_k. *)
    let cb =
      Array.mapi
        (fun p x ->
          let y = ys.(p) in
          let sum = ref 0.0 in
          for j = 0 to Array.length kids - 1 do
            let empty, lx, ly, lb = kids.(j) in
            if not empty then begin
              let best = ref (space_of x) in
              for k = 0 to Array.length lx - 1 do
                if lx.(k) land x = lx.(k) && ly.(k) land y = ly.(k) then
                  best :=
                    Float.min !best (lb.(k) *. space_of (x land lnot lx.(k)))
              done;
              sum := !sum +. !best
            end
          done;
          !sum)
        xs
    in
    prune xs ys cb { names; sizes; cx = xs; cy = ys; cb; empty }
  end

let aggregate ~dims:_ (c : t) ~over =
  let n = Array.length c.names in
  let dropped = Array.make n false in
  List.iter
    (fun i ->
      let k = find c.names i in
      if k >= 0 then dropped.(k) <- true)
    over;
  if not (Array.exists Fun.id dropped) then c
  else begin
    let keep = List.filter (fun k -> not dropped.(k)) (List.init n Fun.id) in
    let names = Array.of_list (List.map (fun k -> c.names.(k)) keep) in
    let sizes = Array.of_list (List.map (fun k -> c.sizes.(k)) keep) in
    let m = Array.length names in
    if wide_n n then
      (* Only the total count, which projects to the kept names. *)
      if m = 0 then { c with names; sizes; cx = [||]; cy = [||]; cb = [||] }
      else { c with names; sizes; cx = [| full_mask m |]; cy = [| 0 |] }
    else begin
      let dst = Array.make n (-1) in
      List.iteri (fun j k -> dst.(k) <- j) keep;
      let over_mask = ref 0 in
      Array.iteri (fun k d -> if d then over_mask := !over_mask lor (1 lsl k)) dropped;
      let over_mask = !over_mask in
      (* Conditioning on an aggregated index is meaningless afterwards; X
         may be projected (distinct counts only shrink). *)
      let kept =
        Array.of_list
          (List.filter
             (fun k ->
               c.cy.(k) land over_mask = 0 && c.cx.(k) land lnot over_mask <> 0)
             (List.init (Array.length c.cx) Fun.id))
      in
      {
        names;
        sizes;
        cx = Array.map (fun k -> remap dst c.cx.(k)) kept;
        cy = Array.map (fun k -> remap dst c.cy.(k)) kept;
        cb = Array.map (fun k -> c.cb.(k)) kept;
        empty = c.empty;
      }
    end
  end

(* Shortest weighted path from the empty set to the full index set, where an
   edge S -> S ∪ X with weight D(X|Y) exists whenever Y ⊆ S.  Implicit
   fallback edges S -> S ∪ {i} with weight n_i keep the graph connected.
   Every edge leads to a strict superset, a numerically larger mask, so one
   pass in increasing mask order settles each distance before it is read. *)
let estimate (c : t) : float =
  if c.empty then 0.0
  else begin
    let d = Array.length c.names in
    if d = 0 then 1.0
    else if d > 16 then space c
    else begin
      let full = (1 lsl d) - 1 in
      let dist = Array.make (full + 1) infinity in
      dist.(0) <- 1.0;
      let cx = c.cx and cy = c.cy and cb = c.cb and sizes = c.sizes in
      for s = 0 to full do
        let ds = dist.(s) in
        if ds < infinity then begin
          for k = 0 to Array.length cx - 1 do
            let ym = cy.(k) and xm = cx.(k) in
            if ym land s = ym && xm land lnot s <> 0 then begin
              let s' = s lor xm and nd = ds *. cb.(k) in
              if nd < dist.(s') then dist.(s') <- nd
            end
          done;
          for k = 0 to d - 1 do
            if s land (1 lsl k) = 0 then begin
              let s' = s lor (1 lsl k) and nd = ds *. float_of_int sizes.(k) in
              if nd < dist.(s') then dist.(s') <- nd
            end
          done
        end
      done;
      let bound = dist.(full) in
      if bound = infinity then space c else Float.min bound (space c)
    end
  end

(* Renaming permutes bits; names that collide (a diagonal access such as
   A[i,i]) merge into one bit, and the size of the last one wins. *)
let rename (c : t) (f : Ir.idx -> Ir.idx) : t =
  let mapped = Array.map f c.names in
  let names = sorted_unique mapped in
  let dst = Array.map (find names) mapped in
  let sizes = Array.make (Array.length names) 0 in
  Array.iteri (fun k s -> sizes.(dst.(k)) <- s) c.sizes;
  let moved = ref (Array.length names <> Array.length dst) in
  Array.iteri (fun k d -> if d <> k then moved := true) dst;
  if not !moved then { c with names; sizes }
  else begin
    let whole = full_mask (Array.length names) in
    let m x = if x = -1 then whole else remap dst x in
    { c with names; sizes; cx = Array.map m c.cx; cy = Array.map m c.cy }
  end

let pp fmt (c : t) =
  Format.fprintf fmt "chain{[%s] %d degs est=%.3g}"
    (String.concat "," (Array.to_list c.names))
    (Array.length c.cx) (estimate c)
