(* The benchmark's helper program.  [run.py] drives it:

     ledger.exe gen    --seed N --dir D
     ledger.exe load   --dir D --port P --workload W --seed N --clients K
                       --warmup S --seconds S
     ledger.exe replay --dir D --workload W --seed N --ops N --warm M
                       --cache-mb C --qlog 0|1 --statdb 0|1 --jobs J

   [gen] writes the inputs and the expected digests, [load] is the
   closed-loop HTTP client, [replay] the in-process traced run.  [load]
   and [replay] print one JSON object on stdout. *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("ledger: unexpected argument " ^ a)
  in
  let cmd, kv =
    match args with
    | cmd :: rest -> (cmd, opts [] rest)
    | [] -> failwith "ledger: usage: ledger.exe (gen|load|replay) --key value ..."
  in
  let str k =
    match List.assoc_opt k kv with
    | Some v -> v
    | None -> failwith ("ledger: missing --" ^ k)
  in
  let int k = int_of_string (str k) and float k = float_of_string (str k) in
  match cmd with
  | "gen" -> Gen.run ~seed:(int "seed") ~dir:(str "dir")
  | "load" ->
      Loadgen.run ~dir:(str "dir") ~port:(int "port") ~workload:(str "workload")
        ~seed:(int "seed") ~clients:(int "clients") ~warmup:(float "warmup")
        ~seconds:(float "seconds")
  | "replay" ->
      Replay.run ~dir:(str "dir") ~workload:(str "workload") ~seed:(int "seed")
        ~cache_mb:(int "cache-mb") ~qlog:(int "qlog" = 1)
        ~statdb:(int "statdb" = 1) ~jobs:(int "jobs") ~warm:(int "warm")
        ~n:(int "ops")
  | c -> failwith ("ledger: unknown command " ^ c)
