(* The load generator's own HTTP/1.1 client: one connection per request,
   matching the daemon's [Connection: close].  It shares no code with the
   daemon's HTTP layer, so a change to that layer cannot change the client
   that measures it. *)

exception Bad_response of string

let percent_encode s =
  let b = Buffer.create (String.length s * 3) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '-' | '_' | '.' | '~' ->
          Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let read_all fd =
  let b = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Buffer.contents b

let find_sub s sub from =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go from

(* Status line, headers, and a body whose length must equal the
   Content-Length the daemon sent. *)
let parse_response raw =
  match find_sub raw "\r\n\r\n" 0 with
  | None -> raise (Bad_response "no header terminator")
  | Some hdr_end ->
      let head = String.sub raw 0 hdr_end in
      let body = String.sub raw (hdr_end + 4) (String.length raw - hdr_end - 4) in
      let lines = String.split_on_char '\n' head in
      let status =
        match String.split_on_char ' ' (String.trim (List.hd lines)) with
        | _ :: code :: _ -> (
            match int_of_string_opt code with
            | Some c -> c
            | None -> raise (Bad_response "bad status line"))
        | _ -> raise (Bad_response "bad status line")
      in
      List.iter
        (fun line ->
          match String.index_opt line ':' with
          | Some i
            when String.lowercase_ascii (String.trim (String.sub line 0 i))
                 = "content-length" ->
              let v =
                String.trim (String.sub line (i + 1) (String.length line - i - 1))
              in
              if int_of_string_opt v <> Some (String.length body) then
                raise (Bad_response "body shorter than content-length")
          | _ -> ())
        (List.tl lines);
      (status, body)

let request ~port ~meth ~target ?(body = "") () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nhost: 127.0.0.1:%d\r\ncontent-length: %d\r\n\
           connection: close\r\n\r\n%s"
          meth target port (String.length body) body
      in
      write_all fd req 0 (String.length req);
      parse_response (read_all fd))

let query_target (r : Catalog.read) =
  let doc = "doc=" ^ percent_encode (Catalog.store_name r.Catalog.doc) in
  match r.Catalog.query with
  | None -> "/query?" ^ doc
  | Some q -> "/query?" ^ doc ^ "&query=" ^ percent_encode q

let read ~port r =
  request ~port ~meth:"POST" ~target:(query_target r) ~body:r.Catalog.guard ()

let update ~port ~doc ~node ~value =
  request ~port ~meth:"POST"
    ~target:
      (Printf.sprintf "/update?doc=%s&node=%d"
         (percent_encode (Catalog.store_name doc))
         node)
    ~body:value ()
