(* The closed-loop load generator for the served workloads.

   [clients] domains each send their next operation only after the
   previous reply arrived.  Client [c] of [k] runs operation indices
   c, c+k, c+2k, ... of the workload's stream, so one client replays the
   stream in order — which is what the traced replay does in-process.
   Operations that start before [warmup] seconds have passed fill the
   caches and are not measured. *)

type sample = { start : float; ms : float; write : bool; ok : bool }

type client_result = {
  samples : sample list;  (** newest first *)
  writes : (int * int * string) list;  (** completed (doc, node, value), newest first *)
  reasons : (string * int) list;
}

let now = Unix.gettimeofday

let op_for ~workload ~seed ~pools ~client ~clients i =
  match workload with
  | "serve-hot" | "serve-warehouse" -> Catalog.hot_op ~seed i
  | "serve-churn" -> Catalog.churn_op ~seed ~pools ~client ~clients i
  | w -> failwith ("ledger: no served workload " ^ w)

(* A read is checked by digest when the store state it reads is known:
   always on the read-only workloads, at quiescent points on churn. *)
let check_read ~expected ~exact (r : Catalog.read) (status, body) =
  if status <> 200 then Error (Printf.sprintf "status %d" status)
  else if not exact then Ok ()
  else
    match Hashtbl.find_opt expected (Catalog.read_key r) with
    | Some d when String.equal d (Gen.md5 body) -> Ok ()
    | Some _ -> Error "body digest mismatch"
    | None -> Error "no expected digest"

let client ~port ~workload ~seed ~(cat : Gen.loaded) ~client ~clients ~stop_at =
  let samples = ref [] and writes = ref [] and reasons = Hashtbl.create 4 in
  let exact = workload <> "serve-churn" in
  let fail reason =
    Hashtbl.replace reasons reason
      (1 + Option.value ~default:0 (Hashtbl.find_opt reasons reason))
  in
  let rec loop i =
    let t0 = now () in
    if t0 < stop_at then begin
      let op =
        op_for ~workload ~seed ~pools:cat.Gen.pools ~client ~clients i
      in
      let outcome =
        match op with
        | Catalog.Read r -> (
            match Client.read ~port r with
            | resp -> check_read ~expected:cat.Gen.expected ~exact r resp
            | exception e -> Error (Printexc.to_string e))
        | Catalog.Write { doc; node; value } -> (
            match Client.update ~port ~doc ~node ~value with
            | 200, _ ->
                writes := (doc, node, value) :: !writes;
                Ok ()
            | status, _ -> Error (Printf.sprintf "update status %d" status)
            | exception e -> Error (Printexc.to_string e))
      in
      let ms = (now () -. t0) *. 1000. in
      (match outcome with Ok () -> () | Error reason -> fail reason);
      samples :=
        {
          start = t0;
          ms;
          write = (match op with Catalog.Write _ -> true | Catalog.Read _ -> false);
          ok = Result.is_ok outcome;
        }
        :: !samples;
      loop (i + clients)
    end
  in
  loop client;
  {
    samples = !samples;
    writes = !writes;
    reasons = Hashtbl.fold (fun k v acc -> (k, v) :: acc) reasons [];
  }

let cache_snapshot ~port =
  match Client.request ~port ~meth:"GET" ~target:"/debug/cache" () with
  | 200, body -> Xmutil.Json.of_string body
  | status, _ -> failwith (Printf.sprintf "ledger: /debug/cache status %d" status)

(* Quiescent check: every read in [reads] against the digests of the
   store state [expected] describes. *)
let check_all ~port ~expected reads =
  Array.fold_left
    (fun (attempted, failed, reasons) (r : Catalog.read) ->
      let ok =
        match Client.read ~port r with
        | resp -> check_read ~expected ~exact:true r resp
        | exception e -> Error (Printexc.to_string e)
      in
      match ok with
      | Ok () -> (attempted + 1, failed, reasons)
      | Error m -> (attempted + 1, failed + 1, ("quiescent check: " ^ m) :: reasons))
    (0, 0, []) reads

(* The state after a churn run: each node holds the value of the last
   write its one owner completed.  Expected digests are recomputed from
   the documents with those updates applied. *)
let final_expected ~dir ~seed results =
  let stores = Array.mapi (fun i _ -> Gen.shred_file dir i) Catalog.datasets in
  let last = Hashtbl.create 64 in
  List.iter
    (fun r ->
      List.iter
        (fun (doc, node, value) ->
          if not (Hashtbl.mem last (doc, node)) then
            Hashtbl.replace last (doc, node) value)
        r.writes)
    results;
  Hashtbl.iter
    (fun (doc, node) value ->
      stores.(doc) <- Store.Shredded.update_value stores.(doc) node value)
    last;
  let expected = Hashtbl.create 32 in
  Array.iter
    (fun (r : Catalog.read) ->
      Hashtbl.replace expected (Catalog.read_key r)
        (Gen.md5 (Gen.expected_body stores.(r.Catalog.doc) r)))
    (Catalog.churn_checks ~seed);
  expected

let json_floats l = Xmutil.Json.List (List.map (fun f -> Xmutil.Json.Float f) l)

let run ~dir ~port ~workload ~seed ~clients ~warmup ~seconds =
  Xmutil.Pool.set_jobs 1;
  let cat = Gen.load dir in
  let checks =
    if workload = "serve-churn" then Catalog.churn_checks ~seed else Catalog.hot
  in
  let a0, f0, r0 = check_all ~port ~expected:cat.Gen.expected checks in
  let t_start = now () in
  let t_measure = t_start +. warmup and stop_at = t_start +. warmup +. seconds in
  let domains =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            client ~port ~workload ~seed ~cat ~client:c ~clients ~stop_at))
  in
  Unix.sleepf (Float.max 0. (t_measure -. now ()));
  let cache0 = cache_snapshot ~port in
  let results = List.map Domain.join domains in
  let t_end = now () in
  let cache1 = cache_snapshot ~port in
  let a1, f1, r1 =
    if workload = "serve-churn" then
      check_all ~port ~expected:(final_expected ~dir ~seed results) checks
    else (0, 0, [])
  in
  let measured =
    List.concat_map
      (fun r -> List.filter (fun s -> s.start >= t_measure) r.samples)
      results
  in
  let lat write =
    List.filter_map
      (fun s -> if s.write = write && s.ok then Some s.ms else None)
      measured
  in
  let all = List.concat_map (fun r -> r.samples) results in
  let failed_ops = List.length (List.filter (fun s -> not s.ok) all) in
  let reasons =
    List.concat_map (fun r -> r.reasons) results
    @ List.map (fun m -> (m, 1)) (r0 @ r1)
  in
  let out =
    Xmutil.Json.Obj
      [ ("workload", Xmutil.Json.String workload);
        ("clients", Xmutil.Json.Int clients);
        ("measured_s", Xmutil.Json.Float (t_end -. t_measure));
        ("ops", Xmutil.Json.Int (List.length measured));
        ("attempted", Xmutil.Json.Int (List.length all + a0 + a1));
        ("failed", Xmutil.Json.Int (failed_ops + f0 + f1));
        ( "ops_per_client",
          Xmutil.Json.List
            (List.map (fun r -> Xmutil.Json.Int (List.length r.samples)) results)
        );
        ( "warm_ops_per_client",
          Xmutil.Json.List
            (List.map
               (fun r ->
                 Xmutil.Json.Int
                   (List.length
                      (List.filter (fun s -> s.start < t_measure) r.samples)))
               results) );
        ( "reasons",
          Xmutil.Json.Obj
            (List.map (fun (k, v) -> (k, Xmutil.Json.Int v)) reasons) );
        ("read_ms", json_floats (lat false));
        ("write_ms", json_floats (lat true));
        ("cache_before", cache0);
        ("cache_after", cache1) ]
  in
  Gen.print_json out
