(* Input generation and the expected-output table.

   [run] writes the three documents and [catalog.json]: the update pools,
   the digest every checked read must produce, and the fingerprints (size
   and digest) of each document and of the guard list.  Expected bodies
   come from {!Xmserve.Exec.execute} in this process at jobs 1 with the
   cache off — the byte-identity contract says the CLI at any [--jobs] and
   the daemon with its cache must return exactly these bytes. *)

let md5 s = Digest.to_hex (Digest.string s)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* [Xmutil.Json] prints floats with six significant digits; a measurement
   keeps all of its digits. *)
let rec json_buffer b = function
  | Xmutil.Json.Float f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Xmutil.Json.List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          json_buffer b v)
        l;
      Buffer.add_char b ']'
  | Xmutil.Json.Obj kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Xmutil.Json.to_buffer ~pretty:false b (Xmutil.Json.String k);
          Buffer.add_char b ':';
          json_buffer b v)
        kv;
      Buffer.add_char b '}'
  | v -> Xmutil.Json.to_buffer ~pretty:false b v

let print_json v =
  let b = Buffer.create 65536 in
  json_buffer b v;
  print_string (Buffer.contents b);
  print_newline ()

let doc_path dir i = Filename.concat dir (Catalog.datasets.(i).name ^ ".xml")

(* The body [xmorph run] / [xmorph query] prints and [POST /query]
   returns for [r] against [store]. *)
let expected_body store (r : Catalog.read) =
  match
    Xmserve.Exec.execute ~source:"ledger" ?query:r.Catalog.query store
      r.Catalog.guard
  with
  | Xmserve.Exec.Rendered { body; _ } | Xmserve.Exec.Query_result { body; _ }
    ->
      body
  | Xmserve.Exec.Failed { message; _ } ->
      failwith
        (Printf.sprintf "ledger: %S on %s fails: %s" r.Catalog.guard
           (Catalog.store_name r.Catalog.doc)
           message)

let shred_file dir i = Store.Shredded.shred (Xml.Doc.of_string (read_file (doc_path dir i)))

(* Everything a workload sends that is not a document: the guard list
   whose fingerprint guards against a silent change of the catalog. *)
let guard_list ~seed ~pools =
  let b = Buffer.create 65536 in
  let add_read (r : Catalog.read) =
    Buffer.add_string b (Catalog.read_key r);
    Buffer.add_char b '\n'
  in
  Array.iter add_read Catalog.oneshot_jobs;
  Array.iter add_read Catalog.hot;
  Array.iter add_read (Catalog.churn_checks ~seed);
  for i = 0 to 1999 do
    match Catalog.churn_op ~seed ~pools ~client:0 ~clients:1 i with
    | Catalog.Read r -> add_read r
    | Catalog.Write { doc; node; value } ->
        Buffer.add_string b (Printf.sprintf "update\t%d\t%d\t%s\n" doc node value)
  done;
  Buffer.contents b

let run ~seed ~dir =
  Xmutil.Pool.set_jobs 1;
  let n = Array.length Catalog.datasets in
  let texts =
    Array.init n (fun i ->
        let text = Xml.Printer.to_string (Catalog.generate i ~seed) in
        write_file (doc_path dir i) text;
        text)
  in
  let docs = Array.map Xml.Doc.of_string texts in
  let stores = Array.map Store.Shredded.shred docs in
  let pools = Array.mapi (fun i d -> Catalog.update_pool d i ~seed) docs in
  let checked =
    Array.concat
      [ Catalog.oneshot_jobs; Catalog.hot; Catalog.churn_checks ~seed ]
  in
  let expected =
    Array.to_list
      (Array.map
         (fun (r : Catalog.read) ->
           ( Catalog.read_key r,
             Xmutil.Json.String (md5 (expected_body stores.(r.Catalog.doc) r))
           ))
         checked)
  in
  let guards = guard_list ~seed ~pools in
  let fingerprint name text =
    ( name,
      Xmutil.Json.Obj
        [ ("bytes", Xmutil.Json.Int (String.length text));
          ("md5", Xmutil.Json.String (md5 text)) ] )
  in
  let fingerprints =
    Array.to_list
      (Array.mapi
         (fun i text -> fingerprint (Catalog.datasets.(i).name ^ ".xml") text)
         texts)
    @ [ fingerprint "guards" guards ]
  in
  let ints a = Xmutil.Json.List (Array.to_list (Array.map (fun i -> Xmutil.Json.Int i) a)) in
  let catalog =
    Xmutil.Json.Obj
      [ ("seed", Xmutil.Json.Int seed);
        ("fingerprints", Xmutil.Json.Obj fingerprints);
        ("pools", Xmutil.Json.List (Array.to_list (Array.map ints pools)));
        ("expected", Xmutil.Json.Obj expected);
        ( "oneshot_jobs",
          Xmutil.Json.List
            (Array.to_list
               (Array.map
                  (fun (r : Catalog.read) ->
                    Xmutil.Json.Obj
                      ([ ("file", Xmutil.Json.String (Catalog.datasets.(r.Catalog.doc).name ^ ".xml"));
                         ("guard", Xmutil.Json.String r.Catalog.guard);
                         ("key", Xmutil.Json.String (Catalog.read_key r)) ]
                      @
                      match r.Catalog.query with
                      | None -> []
                      | Some q -> [ ("query", Xmutil.Json.String q) ]))
                  Catalog.oneshot_jobs)) );
        ("oneshot_order", ints (Catalog.oneshot_order ~seed ~rounds:400)) ]
  in
  write_file (Filename.concat dir "catalog.json")
    (Xmutil.Json.to_string ~pretty:true catalog ^ "\n")

(* The parts of [catalog.json] the client and the replay need. *)
type loaded = {
  pools : int array array;
  expected : (string, string) Hashtbl.t;
  order : int array;
}

let load dir =
  let json = Xmutil.Json.of_string (read_file (Filename.concat dir "catalog.json")) in
  let field k = function
    | Xmutil.Json.Obj kv -> List.assoc k kv
    | _ -> failwith "ledger: malformed catalog.json"
  in
  let ints = function
    | Xmutil.Json.List l ->
        Array.of_list
          (List.map (function Xmutil.Json.Int i -> i | _ -> failwith "int") l)
    | _ -> failwith "ledger: malformed catalog.json"
  in
  let expected = Hashtbl.create 64 in
  (match field "expected" json with
  | Xmutil.Json.Obj kv ->
      List.iter
        (function
          | k, Xmutil.Json.String v -> Hashtbl.replace expected k v
          | _ -> failwith "ledger: malformed catalog.json")
        kv
  | _ -> failwith "ledger: malformed catalog.json");
  {
    pools =
      (match field "pools" json with
      | Xmutil.Json.List l -> Array.of_list (List.map ints l)
      | _ -> failwith "ledger: malformed catalog.json");
    expected;
    order = ints (field "oneshot_order" json);
  }
