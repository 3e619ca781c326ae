(* serve_mix: a `galley serve` daemon in its own process, driven by two
   closed-loop client connections from this process.

   Each client owns its resident tensors (suffix 0 or 1), so whether a
   request hits a cache never depends on how the clients interleave.
   Each client's requests follow a seeded shuffle of a fixed rotation:

     warm   repeat queries, replayed from the resident CSE cache
     fresh  a query with a constant no request used before: the daemon
            optimizes it and compiles a new kernel
     bind   rebinds the client's matrix B (recomputes its statistics)

   Outputs are checked after the window against [Driver.run] over this
   process's own copies of the bound tensors. *)

module D = Galley.Driver
module T = Galley_tensor.Tensor
module P = Galley_serve.Protocol
module C = Galley_serve.Client
module J = Galley_obs.Json

let clients = 2

(* One rotation per client: warm, fresh and bind shares. *)
let rotation = List.init 47 (fun _ -> `Warm) @ List.init 2 (fun _ -> `Fresh) @ [ `Bind ]

(* Resident tensors per client c: E and x (read by warm requests), S
   and y (read by fresh requests), and B (rebound by bind requests). *)
let spec ~seed ~c name =
  let s k = (seed * 1009) + (c * 101) + k in
  match name with
  | "E" -> Printf.sprintf "200x200:0.05:%d" (s 1)
  | "x" -> Printf.sprintf "200:0.5:%d" (s 2)
  | "S" -> Printf.sprintf "60x60:0.1:%d" (s 3)
  | "y" -> Printf.sprintf "60:0.5:%d" (s 4)
  | _ -> invalid_arg "spec"

let resident = [ "E"; "x"; "S"; "y" ]

(* The k-th rebind of B by client c: one of eight matrices, so the
   checks build few copies; every bind recomputes statistics. *)
let bind_spec ~seed ~c k =
  Printf.sprintf "800x800:0.005:%d" ((seed * 7919) + (c * 101) + (k mod 8))

(* Warm queries compile to one kernel that reads only the client's own
   resident tensors.  A program with intermediates would not do: the
   session names intermediates per program (#s1, #s2, ...), so the other
   client's requests would rebind them and decide its cache hits. *)
let warm_queries c =
  [
    Printf.sprintf "wa%d[i] = sum[j](E%d[i,j] * x%d[j])" c c c;
    Printf.sprintf "wb%d = sum[i](x%d[i] * x%d[i])" c c c;
    Printf.sprintf "wc%d[j] = sum[i](E%d[i,j] * x%d[i])" c c c;
    Printf.sprintf "wd%d[i] = sum[j](E%d[i,j])" c c;
  ]

(* A constant no other request uses, so one of its kernels is new. *)
let fresh_query c k =
  Printf.sprintf "f%d[i] = sum[j](S%d[i,j] * y%d[j] * %.17g)" c c c
    (1.0 +. (float_of_int ((c * 1_000_000) + k) *. 1e-7))

type req = {
  c : int;
  k : int;  (** position in the client's request sequence *)
  kind : [ `Warm | `Fresh | `Bind ];
  src : string;  (** query source, or the bind spec *)
  mutable rtt : float;
  mutable resp : string;
}

let req_id r = Printf.sprintf "c%d-%d" r.c r.k

(* The client's request sequence: seeded shuffles of [rotation]. *)
let sequence ~seed c : int -> req =
  let rot = Array.of_list rotation in
  let prng = Galley_tensor.Prng.create ((seed * 31) + c) in
  let passes = Hashtbl.create 64 in
  let warm = Array.of_list (warm_queries c) in
  let fresh_n = ref 0 and bind_n = ref 0 in
  let pass i =
    match Hashtbl.find_opt passes i with
    | Some a -> a
    | None ->
        let a = Array.copy rot in
        Galley_tensor.Prng.shuffle prng a;
        Hashtbl.replace passes i a;
        a
  in
  fun k ->
    let kind = (pass (k / Array.length rot)).(k mod Array.length rot) in
    let src =
      match kind with
      | `Warm -> warm.(k mod Array.length warm)
      | `Fresh ->
          incr fresh_n;
          fresh_query c !fresh_n
      | `Bind ->
          incr bind_n;
          bind_spec ~seed ~c !bind_n
    in
    { c; k; kind; src; rtt = 0.0; resp = "" }

let encode r =
  let id = req_id r in
  match r.kind with
  | `Bind -> P.encode_bind_random ~id ~name:(Printf.sprintf "B%d" r.c) r.src
  | `Warm | `Fresh -> P.encode_query ~id r.src

(* ------------------------------------------------------------------ *)
(* The daemon process.                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; socket : string }

let run_dir = "galbench/_run"

let rpc ~socket line =
  match C.rpc ~retries:3 ~socket line with
  | Ok resp -> resp
  | Error e -> failwith ("serve_mix rpc: " ^ e)

let ok_exn resp =
  match C.decode resp with
  | Ok (true, json) -> json
  | Ok (false, _) | Error _ -> failwith ("serve_mix: request failed: " ^ resp)

(* The traced run keeps every request's flight record (the default ring
   holds 256); the untraced run keeps the default, so the daemon's memory
   does not grow with the number of requests. *)
let start_daemon ~cli ~trace : daemon =
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let socket = Printf.sprintf "%s/serve-%d.sock" run_dir (Unix.getpid ()) in
  if Sys.file_exists socket then Sys.remove socket;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process cli
      (Array.append
         [| cli; "serve"; "--socket"; socket; "--domains"; "1" |]
         (if trace then [| "--flight-cap"; "65536" |] else [||]))
      devnull devnull devnull
  in
  Unix.close devnull;
  (match C.connect ~retries:12 ~backoff:0.01 socket with
  | Ok conn -> C.close conn
  | Error e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith ("serve_mix: daemon did not start: " ^ e));
  { pid; socket }

(* Ask the daemon to drain and wait for it; kill it if it lingers. *)
let stop_daemon (d : daemon) =
  (try ignore (C.rpc ~socket:d.socket (P.encode_shutdown ())) with _ -> ());
  let deadline = Util.now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Util.now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  wait ();
  if Sys.file_exists d.socket then Sys.remove d.socket

let initial_binds ~seed (d : daemon) =
  for c = 0 to clients - 1 do
    List.iter
      (fun n ->
        ignore
          (ok_exn
             (rpc ~socket:d.socket
                (P.encode_bind_random ~name:(Printf.sprintf "%s%d" n c)
                   (spec ~seed ~c n)))))
      resident;
    ignore
      (ok_exn
         (rpc ~socket:d.socket
            (P.encode_bind_random ~name:(Printf.sprintf "B%d" c) (bind_spec ~seed ~c 0))))
  done

(* ------------------------------------------------------------------ *)
(* Checking.                                                            *)
(* ------------------------------------------------------------------ *)

let tensor_of_spec s =
  match P.random_of_spec s with Ok t -> t | Error e -> failwith e

(* The single output of a query response as sorted (coords, value)
   entries, with its dims. *)
let response_entries (json : J.t) : (int array * (int list * float) list) option =
  let ( let* ) = Option.bind in
  let* outs = Option.bind (J.member "outputs" json) J.to_list in
  match outs with
  | [ o ] ->
      let ints v = List.filter_map (fun x -> Option.map int_of_float (J.to_float x)) v in
      let* dims = Option.bind (J.member "dims" o) J.to_list in
      let* entries = Option.bind (J.member "entries" o) J.to_list in
      let entry e =
        match List.rev (Option.value ~default:[] (J.to_list e)) with
        | v :: coords -> Option.map (fun v -> (ints (List.rev coords), v)) (J.to_float v)
        | [] -> None
      in
      let es = List.filter_map entry entries in
      if List.length es <> List.length entries then None
      else Some (Array.of_list (ints dims), List.sort compare es)
  | _ -> None

let tensor_entries (t : T.t) =
  ( T.dims t,
    List.sort compare
      (Array.to_list (Array.map (fun (c, v) -> (Array.to_list c, v)) (T.to_coo t))) )

let same_entries (dims, es) (dims', es') =
  dims = dims'
  && List.length es = List.length es'
  && List.for_all2
       (fun (c, v) (c', v') ->
         c = c' && Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v'))
       es es'

(* The "outputs" member of a response line, as raw JSON text: responses
   to one query differ only in id and timings, so each distinct outputs
   text is decoded and compared once. *)
let outputs_text (resp : string) : string option =
  let key = "\"outputs\":" in
  let kl = String.length key and n = String.length resp in
  let rec matches i j = j = kl || (resp.[i + j] = key.[j] && matches i (j + 1)) in
  let rec find i =
    if i + kl > n then None else if matches i 0 then Some (i + kl) else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      (* the array ends at its matching bracket (no brackets in strings) *)
      let rec close i depth =
        if i >= n then None
        else
          match resp.[i] with
          | '[' -> close (i + 1) (depth + 1)
          | ']' when depth = 1 -> Some (String.sub resp start (i + 1 - start))
          | ']' -> close (i + 1) (depth - 1)
          | _ -> close (i + 1) depth
      in
      close start 0

let check_all ~seed (reqs : req list) : int =
  let local =
    Array.init clients (fun c ->
        List.map
          (fun n -> (Printf.sprintf "%s%d" n c, tensor_of_spec (spec ~seed ~c n)))
          resident)
  in
  (* The oracle binds only the tensors the query reads. *)
  let reads src (name, _) =
    let key = name ^ "[" in
    let n = String.length src and k = String.length key in
    let rec at i = i + k <= n && (String.sub src i k = key || at (i + 1)) in
    at 0
  in
  let oracle r =
    let inputs = List.filter (reads r.src) local.(r.c) in
    match D.run_source_checked ~config:Batch.config ~inputs r.src with
    | Ok { D.outputs = [ (_, _, t) ]; _ } -> tensor_entries t
    | Ok _ -> failwith "serve_mix: oracle has no single output"
    | Error e -> failwith (Galley.Errors.to_string e)
  in
  let verdicts = Hashtbl.create 64 in
  let query_ok r =
    match outputs_text r.resp with
    | None -> false
    | Some text -> (
        match Hashtbl.find_opt verdicts (r.src, text) with
        | Some v -> v
        | None ->
            let v =
              match J.parse ("{\"outputs\":" ^ text ^ "}") with
              | Ok json -> (
                  match response_entries json with
                  | Some got -> same_entries got (oracle r)
                  | None -> false)
              | Error _ -> false
            in
            Hashtbl.replace verdicts (r.src, text) v;
            v)
  in
  let nnz = Hashtbl.create 16 in
  let bind_nnz src =
    match Hashtbl.find_opt nnz src with
    | Some n -> n
    | None ->
        let n = T.nnz (tensor_of_spec src) in
        Hashtbl.replace nnz src n;
        n
  in
  let ok_prefix = "{\"ok\":true" in
  List.fold_left
    (fun failed r ->
      let ok =
        String.length r.resp >= String.length ok_prefix
        && String.sub r.resp 0 (String.length ok_prefix) = ok_prefix
        &&
        match r.kind with
        | `Bind -> (
            match C.decode r.resp with
            | Ok (true, json) ->
                Option.bind (J.member "nnz" json) J.to_float
                = Some (float_of_int (bind_nnz r.src))
            | _ -> false)
        | `Warm | `Fresh -> query_ok r
      in
      if not ok then
        Util.info "request %s (%s) failed its check: %s" (req_id r) r.src
          (if String.length r.resp > 200 then String.sub r.resp 0 200 else r.resp);
      if ok then failed else failed + 1)
    0 reqs

(* ------------------------------------------------------------------ *)
(* The measured window.                                                 *)
(* ------------------------------------------------------------------ *)

(* A request's kind for the best-latency metrics: each warm query on its
   own, and per client all fresh queries and all binds. *)
let kind_key r =
  match r.kind with
  | `Warm -> r.src
  | `Fresh -> Printf.sprintf "fresh%d" r.c
  | `Bind -> Printf.sprintf "bind%d" r.c

let window ~seed ~seconds (d : daemon) : req list * float =
  let out = Array.make clients [] in
  let t0 = Util.now () in
  let deadline = t0 +. seconds in
  let worker c =
    let next = sequence ~seed c in
    match C.connect ~retries:5 d.socket with
    | Error e -> failwith ("serve_mix connect: " ^ e)
    | Ok conn ->
        Fun.protect
          ~finally:(fun () -> C.close conn)
          (fun () ->
            let rec go k acc =
              if Util.now () >= deadline then acc
              else begin
                let r = next k in
                let line = encode r in
                let t1 = Util.now () in
                (match C.request conn line with
                | Ok resp -> r.resp <- resp
                | Error e -> r.resp <- "error: " ^ e);
                r.rtt <- Util.now () -. t1;
                go (k + 1) (r :: acc)
              end
            in
            out.(c) <- List.rev (go 0 []))
  in
  let threads = List.init clients (fun c -> Thread.create worker c) in
  List.iter Thread.join threads;
  let wall = Util.now () -. t0 in
  (List.concat (Array.to_list out), wall)

(* Every warm query once per client, so repeats replay from the cache. *)
let warm_up (d : daemon) =
  for c = 0 to clients - 1 do
    List.iter
      (fun q -> ignore (ok_exn (rpc ~socket:d.socket (P.encode_query q))))
      (warm_queries c)
  done

(* ------------------------------------------------------------------ *)
(* Traced: per-layer numbers from the daemon's flight records.          *)
(* ------------------------------------------------------------------ *)

(* Requests per client whose counts are summed: a fixed prefix, so the
   counts repeat exactly run to run. *)
let count_prefix = 200

let flight_records (d : daemon) : (string, J.t) Hashtbl.t =
  let json = ok_exn (rpc ~socket:d.socket (P.encode_debug ())) in
  let tbl = Hashtbl.create 4096 in
  List.iter
    (fun r ->
      match Option.bind (J.member "id" r) J.to_string with
      | Some id -> Hashtbl.replace tbl id r
      | None -> ())
    (Option.value ~default:[] (Option.bind (J.member "records" json) J.to_list));
  tbl

let layer_values (reqs : req list) (records : (string, J.t) Hashtbl.t) =
  let field r k =
    Option.value ~default:0.0 (Option.bind (J.member k r) J.to_float)
  in
  let us r k = field r k *. 1e-6 in
  let recs =
    List.filter_map
      (fun r -> Option.map (fun j -> (r, j)) (Hashtbl.find_opt records (req_id r)))
      reqs
  in
  if List.length recs < List.length reqs then
    Util.info "serve_mix: %d of %d requests have no flight record"
      (List.length reqs - List.length recs) (List.length reqs);
  let mean f xs = Util.mean (List.map f xs) in
  let of_kind k = List.filter (fun (r, _) -> r.kind = k) recs in
  let queries = List.filter (fun (r, _) -> r.kind <> `Bind) recs in
  let phases = [ "queue_us"; "logical_us"; "physical_us"; "compile_us"; "execute_us" ] in
  let prefix = List.filter (fun (r, _) -> r.k < count_prefix) recs in
  let total k = Util.sum (List.map (fun (_, j) -> field j k) prefix) in
  let kernels = total "kernels" and compiles = total "compiles" and cse = total "cse_hits" in
  [
    ("logical.search_s", mean (fun (_, j) -> us j "logical_us") queries);
    ("physical.search_s", mean (fun (_, j) -> us j "physical_us") queries);
    ("compile.s", mean (fun (_, j) -> us j "compile_us") queries);
    ("compile.count", compiles);
    ("compile.kernel_cache_hit_ratio", Util.ratio (kernels -. compiles) compiles);
    ("engine.execute_s", mean (fun (_, j) -> us j "execute_us") queries);
    ("engine.kernels_run", kernels);
    ("engine.cse_hit_ratio", Util.ratio cse kernels);
    ("serve.queue_wait_s", mean (fun (_, j) -> us j "queue_us") recs);
    ("serve.protocol_s", mean (fun (r, j) -> r.rtt -. us j "total_us") recs);
    ("serve.bind_s", mean (fun (_, j) -> us j "total_us") (of_kind `Bind));
    ("serve.warm_query_s", mean (fun (_, j) -> us j "total_us") (of_kind `Warm));
    ("serve.cold_query_s", mean (fun (_, j) -> us j "total_us") (of_kind `Fresh));
    ( "unattributed_s",
      mean
        (fun (_, j) ->
          us j "total_us" -. Util.sum (List.map (fun p -> us j p) phases))
        queries );
  ]

(* ------------------------------------------------------------------ *)

let run ~cli ~seed ~seconds ~trace ~setup_repeats =
  let setup () =
    let d = start_daemon ~cli ~trace in
    (try initial_binds ~seed d with e -> stop_daemon d; raise e);
    d
  in
  (* Set up [setup_repeats] times; keep the last daemon. *)
  let times = ref [] in
  let rec go i =
    let d, dt = Util.time setup in
    times := dt :: !times;
    if i + 1 < setup_repeats then begin
      stop_daemon d;
      go (i + 1)
    end
    else d
  in
  let d = go 0 in
  Fun.protect
    ~finally:(fun () -> stop_daemon d)
    (fun () ->
      warm_up d;
      let reqs, wall = window ~seed ~seconds d in
      let rss = Util.peak_rss_mb ~pid:(string_of_int d.pid) () in
      let records = if trace then Some (flight_records d) else None in
      let failed, check_s = Util.time (fun () -> check_all ~seed reqs) in
      Util.info "checked %d responses in %.1f s" (List.length reqs) check_s;
      Util.info "window: %d requests in %.2f s" (List.length reqs) wall;
      let n = List.length reqs in
      let metrics =
        match records with
        | Some recs -> Util.layer_metrics (layer_values reqs recs)
        | None ->
            Util.info "%s" (Util.latency_summary (List.map (fun r -> r.rtt) reqs));
            let best = Util.best_per_kind (List.map (fun r -> (kind_key r, r.rtt)) reqs) in
            Util.end_to_end ~setup_s:(Util.median !times) ~best ~rss
      in
      (n, failed, metrics))
