(* In-process replay of a workload's operation sequence: the traced pass
   that attributes time to layers, the same pass with recording off, and
   whole [Exec.execute] passes with each observability sink on and off.
   Every pass starts from fresh stores and a fresh cache and applies the
   same updates, so each sees the store and cache states the one-client
   HTTP run saw. *)

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let store_path dir i = Filename.concat dir (Catalog.store_name i)

(* Mean wall time in ms of the measured operations: those at index
   [warm] or later. *)
let per_op ~warm times =
  let n = Array.length times - warm in
  let sum = ref 0. in
  for i = warm to Array.length times - 1 do
    sum := !sum +. times.(i)
  done;
  !sum /. float_of_int (max 1 n) *. 1000.

let check (cat : Gen.loaded) ~exact mismatches (r : Catalog.read) body =
  if exact then
    match Hashtbl.find_opt cat.Gen.expected (Catalog.read_key r) with
    | Some d when String.equal d (Gen.md5 body) -> ()
    | _ -> incr mismatches

let load_stores ~dir =
  Tracer.current_op := -1;
  Array.mapi
    (fun i _ ->
      Tracer.span "store.load" (fun () -> Store.Shredded.load (store_path dir i)))
    Catalog.datasets

type sinks = { cache : bool; qlog : bool; statdb : bool }

(* One pass of the served sequence through [Exec.execute] itself, with
   the given sinks. *)
let exec_pass ~dir ~cache_mb ~warm (sinks : sinks) ops =
  let qlog = Filename.concat dir "replay-qlog.jsonl" in
  let statdb = Filename.concat dir "replay-stats.db" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ qlog; statdb ];
  if sinks.cache then Xmcache.enable ~budget_bytes:(cache_mb * 1024 * 1024)
  else Xmcache.disable ();
  if sinks.qlog then Xmobs.Qlog.enable qlog;
  if sinks.statdb then Xmobs.Statdb.enable statdb;
  let cells = load_stores ~dir in
  let times =
    Array.map
      (fun op ->
        time (fun () ->
            match op with
            | Catalog.Write { doc; node; value } ->
                cells.(doc) <- Store.Shredded.update_value cells.(doc) node value
            | Catalog.Read r -> (
                match
                  Xmserve.Exec.execute ~source:"serve"
                    ~doc:(Catalog.store_name r.Catalog.doc)
                    ?query:r.Catalog.query cells.(r.Catalog.doc)
                    r.Catalog.guard
                with
                | Xmserve.Exec.Failed { message; _ } -> failwith message
                | Xmserve.Exec.Rendered _ | Xmserve.Exec.Query_result _ -> ())))
      ops
  in
  if sinks.qlog then Xmobs.Qlog.disable ();
  if sinks.statdb then Xmobs.Statdb.disable ();
  Xmcache.disable ();
  per_op ~warm times

(* Two configurations measured as A B B A, so that a drift in machine
   speed between passes cancels instead of reading as a difference. *)
let abba a b =
  let a1 = a () in
  let b1 = b () in
  let b2 = b () in
  let a2 = a () in
  ((a1 +. a2) /. 2., (b1 +. b2) /. 2.)

(* The spans recorded so far, summarized (self time per layer, store
   loads) and written out; the buffer is then emptied for the overhead
   passes, whose spans are not kept. *)
type ledger = {
  selfs : (string, float) Hashtbl.t;
  loads : float list;
}

let close_trace ~dir ~workload ~warm =
  let selfs = Tracer.self_times ~from_op:warm in
  let loads =
    List.filter_map
      (fun (s : Tracer.span) ->
        if s.Tracer.name = "store.load" then Some (s.Tracer.t1 -. s.Tracer.t0)
        else None)
      (Xmutil.Vec.to_list Tracer.spans)
  in
  Tracer.write_spans (Filename.concat dir ("spans-" ^ workload ^ ".json"));
  Xmutil.Vec.clear Tracer.spans;
  { selfs; loads }

(* Operations past the warm-up that the A B B A comparisons replay:
   short passes see one machine state, and the comparisons only need a
   difference, not the whole run. *)
let compared = 200

let served ~dir ~workload ~seed ~cache_mb ~qlog ~statdb ~warm ~n =
  Xmutil.Pool.set_jobs 1;
  let cat = Gen.load dir in
  let ops =
    Array.init n (fun i ->
        Loadgen.op_for ~workload ~seed ~pools:cat.Gen.pools ~client:0
          ~clients:1 i)
  in
  let exact = workload <> "serve-churn" in
  let use_cache = cache_mb > 0 && not statdb in
  let mismatches = ref 0 in
  let pass ~traced ops =
    Tracer.recording := traced;
    if use_cache then Xmcache.enable ~budget_bytes:(cache_mb * 1024 * 1024);
    let counts = Tracer.zero_counts () in
    let cells = load_stores ~dir in
    let times =
      Array.mapi
        (fun i op ->
          Tracer.current_op := i;
          if i = warm then begin
            counts.Tracer.out_nodes <- 0;
            counts.Tracer.blocks <- 0;
            counts.Tracer.printed <- 0
          end;
          time (fun () ->
              Tracer.span "op" (fun () ->
                  match Tracer.served_op counts ~use_cache cells op with
                  | Some (r, body) -> check cat ~exact mismatches r body
                  | None -> ())))
        ops
    in
    Xmcache.disable ();
    Tracer.recording := false;
    (per_op ~warm times, counts)
  in
  (* The first pass pays for page faults and heap growth; it only warms. *)
  ignore (pass ~traced:false (Array.sub ops 0 (min n 200)));
  let _, counts = pass ~traced:true ops in
  let ledger = close_trace ~dir ~workload ~warm in
  let prefix = Array.sub ops 0 (min n (warm + compared)) in
  let untraced, traced =
    abba
      (fun () -> fst (pass ~traced:false prefix))
      (fun () ->
        let t = fst (pass ~traced:true prefix) in
        Xmutil.Vec.clear Tracer.spans;
        t)
  in
  let base = { cache = cache_mb > 0; qlog; statdb } in
  let exec_full = exec_pass ~dir ~cache_mb ~warm base ops in
  let cost sink without =
    let on, off =
      abba
        (fun () -> exec_pass ~dir ~cache_mb ~warm base prefix)
        (fun () -> exec_pass ~dir ~cache_mb ~warm without prefix)
    in
    (sink, on -. off)
  in
  let sinks =
    (if qlog then [ cost "qlog" { base with qlog = false } ] else [])
    @
    if statdb then
      (* The warehouse also bypasses the cache; the comparison that
         isolates its cost is against the same uncached pipeline. *)
      [ cost "statdb" { base with statdb = false; cache = false } ]
    else []
  in
  (untraced, traced, counts, ledger, exec_full, sinks, !mismatches)

let oneshot ~dir ~workload ~jobs ~n =
  Xmutil.Pool.set_jobs jobs;
  let cat = Gen.load dir in
  let job i = Catalog.oneshot_jobs.(cat.Gen.order.(i mod Array.length cat.Gen.order)) in
  let mismatches = ref 0 in
  let counts = Tracer.zero_counts () in
  let run_job ~traced i =
    Tracer.recording := traced;
    Tracer.current_op := i;
    let r = job i in
    let c = if traced then counts else Tracer.zero_counts () in
    let t =
      time (fun () ->
          Tracer.span "op" (fun () ->
              check cat ~exact:true mismatches r (Tracer.oneshot_job c ~dir r)))
    in
    Tracer.recording := false;
    t
  in
  (* One round warms the process; then every job runs untraced and
     traced back to back, in alternating order, so both see the same
     machine state. *)
  for i = 0 to min n (Array.length Catalog.oneshot_round) - 1 do
    ignore (run_job ~traced:false i)
  done;
  let untraced = Array.make n 0. and traced = Array.make n 0. in
  for i = 0 to n - 1 do
    if i mod 2 = 0 then begin
      untraced.(i) <- run_job ~traced:false i;
      traced.(i) <- run_job ~traced:true i
    end
    else begin
      traced.(i) <- run_job ~traced:true i;
      untraced.(i) <- run_job ~traced:false i
    end
  done;
  (* Stores are loaded only by the served workloads' daemon; measuring
     the load of the same inputs here keeps the layer comparable. *)
  Tracer.recording := true;
  ignore (load_stores ~dir);
  Tracer.recording := false;
  let ledger = close_trace ~dir ~workload ~warm:0 in
  (per_op ~warm:0 untraced, per_op ~warm:0 traced, counts, ledger, !mismatches)

let run ~dir ~workload ~seed ~cache_mb ~qlog ~statdb ~jobs ~warm ~n =
  let untraced, traced, counts, ledger, exec_full, sinks, mismatches, warm =
    if workload = "oneshot" then
      let u, t, c, l, m = oneshot ~dir ~workload ~jobs ~n in
      (u, t, c, l, 0., [], m, 0)
    else
      let u, t, c, l, e, s, m =
        served ~dir ~workload ~seed ~cache_mb ~qlog ~statdb ~warm ~n
      in
      (u, t, c, l, e, s, m, warm)
  in
  let measured = float_of_int (max 1 (n - warm)) in
  let layers =
    Hashtbl.fold
      (fun name s acc ->
        if name = "store.load" then acc
        else (name, Xmutil.Json.Float (s /. measured *. 1000.)) :: acc)
      ledger.selfs []
  in
  let f x = Xmutil.Json.Float x in
  let out =
    Xmutil.Json.Obj
      [ ("ops", Xmutil.Json.Int (n - warm));
        ("layers_ms_per_op", Xmutil.Json.Obj layers);
        ( "store_load_ms",
          f
            (List.fold_left ( +. ) 0. ledger.loads
            /. float_of_int (max 1 (List.length ledger.loads))
            *. 1000.) );
        ("out_nodes_per_op", f (float_of_int counts.Tracer.out_nodes /. measured));
        ("blocks_per_op", f (float_of_int counts.Tracer.blocks /. measured));
        ("print_kb_per_op", f (float_of_int counts.Tracer.printed /. 1024. /. measured));
        ("traced_ms_per_op", f traced);
        ("untraced_ms_per_op", f untraced);
        ("exec_ms_per_op", f exec_full);
        ( "sink_ms_per_op",
          Xmutil.Json.Obj (List.map (fun (k, v) -> (k, f v)) sinks) );
        ("replay_mismatches", Xmutil.Json.Int mismatches) ]
  in
  Gen.print_json out
