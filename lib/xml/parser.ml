exception Error of { line : int; col : int; msg : string }

(* [buf] is one scratch buffer for the whole parse: character data of the
   element being read, or an attribute value that needs decoding.  It is
   empty whenever an element starts: text is flushed before a child or a
   close tag, and an attribute value is taken out of it at once. *)
type state = { src : string; len : int; mutable pos : int; buf : Buffer.t }

let position st =
  (* Recompute line/col lazily: only on error paths. *)
  let line = ref 1 and col = ref 1 in
  for i = 0 to min st.pos st.len - 1 do
    if st.src.[i] = '\n' then (incr line; col := 1) else incr col
  done;
  (!line, !col)

let fail st msg =
  let line, col = position st in
  raise (Error { line; col; msg })

let eof st = st.pos >= st.len

let peek st = if eof st then '\000' else st.src.[st.pos]

let peek2 st = if st.pos + 1 >= st.len then '\000' else st.src.[st.pos + 1]

let advance st = st.pos <- st.pos + 1

let rec same_from src i s k =
  k >= String.length s || (src.[i + k] = s.[k] && same_from src i s (k + 1))

(* Whether [s] occurs in the source at [i]; compared in place. *)
let occurs_at st i s = i + String.length s <= st.len && same_from st.src i s 0

let looking_at st s = occurs_at st st.pos s

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

(* Move to just past the next [stop] (whose first character is [c]), or
   fail with [msg] at end of input. *)
let skip_past st c stop msg =
  let rec go i =
    match String.index_from_opt st.src i c with
    | Some j when occurs_at st j stop -> j
    | Some j -> go (j + 1)
    | None -> st.pos <- st.len; fail st msg
  in
  let j = go st.pos in
  st.pos <- j + String.length stop;
  j

let is_space = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_space st =
  while (not (eof st)) && is_space (peek st) do
    advance st
  done

let is_name_start = function
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | c -> Char.code c >= 0x80

let is_name_char c =
  is_name_start c || (match c with '0' .. '9' | '-' | '.' -> true | _ -> false)

(* Move past a name and return where it started. *)
let scan_name st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let start = st.pos in
  while (not (eof st)) && is_name_char (peek st) do
    advance st
  done;
  start

let parse_name st =
  let start = scan_name st in
  String.sub st.src start (st.pos - start)

(* Decode one entity or character reference into [st.buf]; [st.pos] is at
   ['&']. *)
let parse_reference st =
  let b = st.buf in
  advance st;
  if peek st = '#' then begin
    advance st;
    let hex = peek st = 'x' || peek st = 'X' in
    if hex then advance st;
    let start = st.pos in
    let ok c =
      match c with
      | '0' .. '9' -> true
      | 'a' .. 'f' | 'A' .. 'F' -> hex
      | _ -> false
    in
    while (not (eof st)) && ok (peek st) do
      advance st
    done;
    if st.pos = start then fail st "empty character reference";
    let digits = String.sub st.src start (st.pos - start) in
    expect st ";";
    let code =
      try int_of_string ((if hex then "0x" else "") ^ digits)
      with _ -> fail st "bad character reference"
    in
    if code < 0 || code > 0x10FFFF then fail st "character reference out of range";
    (* UTF-8 encode. *)
    if code < 0x80 then Buffer.add_char b (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
    end
  end
  else begin
    let start = scan_name st in
    let stop = st.pos in
    expect st ";";
    let is s = stop - start = String.length s && occurs_at st start s in
    if is "lt" then Buffer.add_char b '<'
    else if is "gt" then Buffer.add_char b '>'
    else if is "amp" then Buffer.add_char b '&'
    else if is "apos" then Buffer.add_char b '\''
    else if is "quot" then Buffer.add_char b '"'
    else
      fail st
        (Printf.sprintf "unknown entity &%s;" (String.sub st.src start (stop - start)))
  end

(* Move past a run of characters none of which is [a], [b] or [c]. *)
let scan_run st a b c =
  let src = st.src and len = st.len in
  let i = ref st.pos in
  while
    !i < len
    &&
    let ch = String.unsafe_get src !i in
    ch <> a && ch <> b && ch <> c
  do
    incr i
  done;
  st.pos <- !i

(* The rest of an attribute value opened by [quote]; [st.buf] holds what is
   decoded so far. *)
let rec attr_value_rest st quote =
  let start = st.pos in
  scan_run st quote '&' '<';
  if eof st then fail st "unterminated attribute value";
  let c = peek st in
  let b = st.buf in
  if c = quote && Buffer.length b = 0 then begin
    (* No reference in the value: one copy straight from the source. *)
    advance st;
    String.sub st.src start (st.pos - 1 - start)
  end
  else begin
    Buffer.add_substring b st.src start (st.pos - start);
    if c = quote then begin
      advance st;
      let v = Buffer.contents b in
      Buffer.clear b;
      v
    end
    else if c = '&' then (parse_reference st; attr_value_rest st quote)
    else fail st "'<' in attribute value"
  end

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted attribute value";
  advance st;
  attr_value_rest st quote

let skip_comment st =
  st.pos <- st.pos + 4;
  ignore (skip_past st '-' "-->" "unterminated comment")

let skip_pi st =
  st.pos <- st.pos + 2;
  ignore (skip_past st '?' "?>" "unterminated processing instruction")

let skip_doctype st =
  expect st "<!DOCTYPE";
  (* Skip to the matching '>' allowing one level of '[' ... ']' internal subset. *)
  let depth = ref 0 in
  let rec go () =
    if eof st then fail st "unterminated DOCTYPE"
    else begin
      let c = peek st in
      advance st;
      match c with
      | '[' -> incr depth; go ()
      | ']' -> decr depth; go ()
      | '>' when !depth = 0 -> ()
      | _ -> go ()
    end
  in
  go ()

let parse_cdata st =
  st.pos <- st.pos + 9;
  let start = st.pos in
  let stop = skip_past st ']' "]]>" "unterminated CDATA section" in
  Buffer.add_substring st.buf st.src start (stop - start)

let rec blank_from b i =
  i >= Buffer.length b || (is_space (Buffer.nth b i) && blank_from b (i + 1))

(* The character data read since the last child or close tag, as a text
   item unless it is whitespace only. *)
let flush_text st items =
  if Buffer.length st.buf = 0 then items
  else begin
    let items =
      if blank_from st.buf 0 then items
      else Tree.Text (Buffer.contents st.buf) :: items
    in
    Buffer.clear st.buf;
    items
  end

(* Top-level recursion with explicit accumulators, so that no closure is
   allocated per element. *)
let rec parse_element st =
  expect st "<";
  let name = parse_name st in
  parse_attrs st name []

and parse_attrs st name acc =
  skip_space st;
  if looking_at st "/>" then begin
    st.pos <- st.pos + 2;
    Tree.Element { name; attrs = List.rev acc; children = [] }
  end
  else if peek st = '>' then begin
    advance st;
    let children = parse_content st name [] in
    Tree.Element { name; attrs = List.rev acc; children }
  end
  else begin
    let aname = parse_name st in
    skip_space st;
    expect st "=";
    skip_space st;
    let v = parse_attr_value st in
    if List.mem_assoc aname acc then fail st (Printf.sprintf "duplicate attribute %s" aname);
    parse_attrs st name ((aname, v) :: acc)
  end

(* The close tag's name is matched against [parent_name] in place; only a
   mismatch copies it out, for the message. *)
and parse_close st parent_name =
  st.pos <- st.pos + 2;
  let n = String.length parent_name in
  if occurs_at st st.pos parent_name
     && not (st.pos + n < st.len && is_name_char st.src.[st.pos + n])
  then st.pos <- st.pos + n
  else begin
    let cname = parse_name st in
    fail st (Printf.sprintf "mismatched close tag </%s> for <%s>" cname parent_name)
  end;
  skip_space st;
  expect st ">"

(* [items]: the children read so far, last first. *)
and parse_content st parent_name items =
  if eof st then fail st (Printf.sprintf "unterminated element <%s>" parent_name);
  match st.src.[st.pos] with
  | '<' -> (
      match peek2 st with
      | '/' ->
          let items = flush_text st items in
          parse_close st parent_name;
          List.rev items
      | '!' when looking_at st "<!--" ->
          skip_comment st;
          parse_content st parent_name items
      | '!' when looking_at st "<![CDATA[" ->
          parse_cdata st;
          parse_content st parent_name items
      | '?' ->
          skip_pi st;
          parse_content st parent_name items
      | c when is_name_start c ->
          let items = flush_text st items in
          let child = parse_element st in
          parse_content st parent_name (child :: items)
      | _ -> fail st "malformed markup")
  | '&' ->
      parse_reference st;
      parse_content st parent_name items
  | _ ->
      let start = st.pos in
      scan_run st '<' '&' '&';
      Buffer.add_substring st.buf st.src start (st.pos - start);
      parse_content st parent_name items

let parse_prolog st =
  skip_space st;
  if looking_at st "<?xml" then skip_pi st;
  let rec go () =
    skip_space st;
    if looking_at st "<!--" then (skip_comment st; go ())
    else if looking_at st "<!DOCTYPE" then (skip_doctype st; go ())
    else if looking_at st "<?" then (skip_pi st; go ())
  in
  go ()

let parse_document src =
  let st = { src; len = String.length src; pos = 0; buf = Buffer.create 256 } in
  parse_prolog st;
  if not (peek st = '<' && is_name_start (peek2 st)) then fail st "expected root element";
  let root = parse_element st in
  (* Trailing misc. *)
  let rec trail () =
    skip_space st;
    if looking_at st "<!--" then (skip_comment st; trail ())
    else if looking_at st "<?" then (skip_pi st; trail ())
    else if not (eof st) then fail st "content after root element"
  in
  trail ();
  root

let parse src =
  Xmobs.Obs.phase "xml.parse"
    ~attrs:[ ("bytes", Xmobs.Trace.Int (String.length src)) ]
    (fun () -> parse_document src)

let parse_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse s

let error_message = function
  | Error { line; col; msg } ->
      Some (Printf.sprintf "XML parse error at line %d, column %d: %s" line col msg)
  | _ -> None
