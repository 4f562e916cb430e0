let tree = Alcotest.testable (fun fmt t -> Xml.Printer.pp fmt t) Xml.Tree.equal

let parse = Xml.Parser.parse

let test_minimal () =
  Alcotest.check tree "self-closing" (Xml.Tree.element "a" []) (parse "<a/>");
  Alcotest.check tree "open-close" (Xml.Tree.element "a" []) (parse "<a></a>");
  Alcotest.check tree "text child"
    (Xml.Tree.element "a" [ Xml.Tree.text "hi" ])
    (parse "<a>hi</a>")

let test_attributes () =
  Alcotest.check tree "attrs"
    (Xml.Tree.element ~attrs:[ ("x", "1"); ("y", "two") ] "a" [])
    (parse {|<a x="1" y='two'/>|});
  Alcotest.check tree "attr entity"
    (Xml.Tree.element ~attrs:[ ("x", "a<b&c") ] "a" [])
    (parse {|<a x="a&lt;b&amp;c"/>|})

let test_nesting () =
  Alcotest.check tree "nested"
    (Xml.Tree.element "a"
       [ Xml.Tree.element "b" [ Xml.Tree.text "t" ]; Xml.Tree.element "c" [] ])
    (parse "<a><b>t</b><c/></a>")

let test_entities () =
  Alcotest.check tree "predefined"
    (Xml.Tree.element "a" [ Xml.Tree.text "<&>'\"" ])
    (parse "<a>&lt;&amp;&gt;&apos;&quot;</a>");
  Alcotest.check tree "decimal charref"
    (Xml.Tree.element "a" [ Xml.Tree.text "A" ])
    (parse "<a>&#65;</a>");
  Alcotest.check tree "hex charref"
    (Xml.Tree.element "a" [ Xml.Tree.text "A" ])
    (parse "<a>&#x41;</a>");
  (* U+00E9 as UTF-8. *)
  Alcotest.check tree "utf8 charref"
    (Xml.Tree.element "a" [ Xml.Tree.text "\xc3\xa9" ])
    (parse "<a>&#xE9;</a>")

let test_cdata () =
  Alcotest.check tree "cdata"
    (Xml.Tree.element "a" [ Xml.Tree.text "<raw>&stuff;" ])
    (parse "<a><![CDATA[<raw>&stuff;]]></a>")

let test_comments_pis () =
  Alcotest.check tree "comment skipped"
    (Xml.Tree.element "a" [ Xml.Tree.element "b" [] ])
    (parse "<a><!-- no --><b/><!-- way --></a>");
  Alcotest.check tree "pi skipped"
    (Xml.Tree.element "a" [])
    (parse "<?xml version=\"1.0\"?><?style here?><a/>")

let test_doctype () =
  Alcotest.check tree "doctype skipped"
    (Xml.Tree.element "a" [])
    (parse "<!DOCTYPE a SYSTEM \"a.dtd\"><a/>");
  Alcotest.check tree "internal subset"
    (Xml.Tree.element "a" [])
    (parse "<!DOCTYPE a [ <!ELEMENT a EMPTY> ]><a/>")

let test_whitespace () =
  (* Inter-element whitespace dropped, meaningful text kept. *)
  Alcotest.check tree "pretty input"
    (Xml.Tree.element "a" [ Xml.Tree.element "b" [ Xml.Tree.text "x" ] ])
    (parse "<a>\n  <b>x</b>\n</a>");
  match parse "<a>  x  </a>" with
  | Xml.Tree.Element { children = [ Xml.Tree.Text t ]; _ } ->
      Alcotest.(check string) "kept with padding" "  x  " t
  | _ -> Alcotest.fail "expected one text child"

let check_error src =
  match parse src with
  | exception Xml.Parser.Error _ -> ()
  | _ -> Alcotest.failf "expected a parse error for %S" src

let test_errors () =
  List.iter check_error
    [
      "";
      "<a>";
      "<a></b>";
      "<a><b></a></b>";
      "<a x=1/>";
      "<a x=\"1\" x=\"2\"/>";
      "<a>&unknown;</a>";
      "<a>&#xZZ;</a>";
      "<a/><b/>";
      "junk<a/>";
      "<a><![CDATA[open</a>";
      "<a attr=\"unterminated/>";
    ]

let test_error_position () =
  match parse "<a>\n<b></c>\n</a>" with
  | exception Xml.Parser.Error { line; col = _; msg = _ } ->
      Alcotest.(check int) "line 2" 2 line
  | _ -> Alcotest.fail "expected error"

let check_error_at src (line, col, msg) =
  match parse src with
  | exception Xml.Parser.Error { line = l; col = c; msg = m } ->
      Alcotest.(check (triple int int string)) (Printf.sprintf "%S" src)
        (line, col, msg) (l, c, m)
  | _ -> Alcotest.failf "expected a parse error for %S" src

let test_error_position_at_eof () =
  (* At end of input the position is just past the last character. *)
  check_error_at "<a>" (1, 4, "unterminated element <a>");
  check_error_at "<a>\n" (2, 1, "unterminated element <a>");
  check_error_at "<a>\n<b>\n" (3, 1, "unterminated element <b>");
  check_error_at {|<a x="1|} (1, 8, "unterminated attribute value");
  check_error_at "<a><!-- x</a>" (1, 14, "unterminated comment");
  check_error_at "<a><? x</a>" (1, 12, "unterminated processing instruction");
  check_error_at "<a><![CDATA[x</a>" (1, 18, "unterminated CDATA section");
  check_error_at "<!DOCTYPE a [" (1, 14, "unterminated DOCTYPE");
  Alcotest.(check (option string)) "rendered"
    (Some "XML parse error at line 1, column 4: unterminated element <a>")
    (match parse "<a>" with
     | exception e -> Xml.Parser.error_message e
     | _ -> None)

(* One case per error family raised before the end of input: message,
   line and column.  The families that only end of input raises are in
   [test_error_position_at_eof]. *)
let test_error_messages () =
  List.iter
    (fun (src, expected) -> check_error_at src expected)
    [
      ("", (1, 1, "expected root element"));
      ("junk<a/>", (1, 1, "expected root element"));
      ("<a></ >", (1, 6, "expected a name"));
      ("<a x/>", (1, 5, {|expected "="|}));
      ("<a x=1/>", (1, 6, "expected quoted attribute value"));
      ({|<a x="<"/>|}, (1, 7, "'<' in attribute value"));
      ("<a>\n  <b x='1' x='2'/>\n</a>", (2, 17, "duplicate attribute x"));
      ("<a>&foo;</a>", (1, 9, "unknown entity &foo;"));
      ("<a>&#;</a>", (1, 6, "empty character reference"));
      ("<a>&#xZZ;</a>", (1, 7, "empty character reference"));
      ("<a>&#99999999999999999999;</a>", (1, 27, "bad character reference"));
      ("<a>&#x110000;</a>", (1, 14, "character reference out of range"));
      ("<a>&amp </a>", (1, 8, {|expected ";"|}));
      ("<a>\n<b></c>\n</a>", (2, 7, "mismatched close tag </c> for <b>"));
      ("<a></ab>", (1, 8, "mismatched close tag </ab> for <a>"));
      ("<ab></a>", (1, 8, "mismatched close tag </a> for <ab>"));
      ("<a>< b</a>", (1, 4, "malformed markup"));
      ("<a><!DOCTYPE a></a>", (1, 4, "malformed markup"));
      ("<a/>\nx", (2, 1, "content after root element"));
      ("<a></a x>", (1, 8, {|expected ">"|}));
    ]

(* The parser's exact output, compared with structural [=]: [Tree.equal]
   merges adjacent text and ignores attribute order, so it would not see a
   text run split in two or a value leaking into a neighbour. *)
let test_exact_output () =
  let el = Xml.Tree.element and text = Xml.Tree.text in
  let check name expected src =
    let got = parse src in
    if got <> expected then
      Alcotest.failf "%s: %S parsed to %s" name src (Xml.Printer.to_string got)
  in
  check "text split by references, CDATA, comments and PIs"
    (el "a" [ text "x & y<z>wvu" ])
    "<a>x &amp; y<![CDATA[<z>]]>w<!-- c -->v<?p q?>u</a>";
  check "text around children"
    (el "a" [ text "pre"; el "b" []; text " mid "; el "c" []; text "post" ])
    "<a>pre<b/> mid <c></c>post</a>";
  check "whitespace-only runs dropped"
    (el "a" [ el "b" [ text " x " ] ])
    "<a>\n <!-- c --> \n<b> x </b>\t\n</a>";
  check "self-closing attributes do not leak into the following text"
    (el "r" [ el ~attrs:[ ("k", "a&b"); ("j", "w") ] "e" []; text "tail" ])
    {|<r><e k="a&amp;b" j='w'/>tail</r>|};
  check "text before an attributed element stays its own"
    (el "r" [ text "pre"; el ~attrs:[ ("k", "<v>") ] "e" []; text "post" ])
    {|<r>pre<e k="&lt;v&gt;"/>post</r>|};
  check "attribute values do not leak into the element's text"
    (el "r" [ el ~attrs:[ ("k", "&") ] "e" [ text "body" ] ])
    {|<r><e k="&amp;">body</e></r>|};
  check "references in both quote styles"
    (el
       ~attrs:[ ("x", {|"1"|}); ("y", "'2'"); ("z", "'"); ("w", {|"&A|}) ]
       "a" [])
    {|<a x="&quot;1&quot;" y='&apos;2&apos;' z="'" w='"&amp;&#65;'/>|}

let test_escape () =
  Alcotest.(check string) "text" "a&amp;b&lt;c&gt;d" (Xml.Printer.escape_text "a&b<c>d");
  Alcotest.(check string) "attr" "a&quot;b&amp;" (Xml.Printer.escape_attr "a\"b&")

let test_serialized_size () =
  let t = parse {|<a x="1"><b>hi &amp; low</b><c/></a>|} in
  Alcotest.(check int) "size matches"
    (String.length (Xml.Printer.to_string t))
    (Xml.Printer.serialized_size t)

let test_tree_helpers () =
  let t = parse "<a>one<b>two</b>three</a>" in
  Alcotest.(check string) "text_content" "onethree" (Xml.Tree.text_content t);
  Alcotest.(check string) "deep_text" "onetwothree" (Xml.Tree.deep_text t);
  Alcotest.(check int) "count_elements" 2 (Xml.Tree.count_elements t);
  let ta = parse {|<a x="1" y="2"><b/></a>|} in
  Alcotest.(check int) "count_nodes includes attrs" 4 (Xml.Tree.count_nodes ta)

let prop_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:300 Gen.gen_tree
    (fun t -> Xml.Tree.equal t (parse (Xml.Printer.to_string t)))

let prop_roundtrip_indented =
  QCheck2.Test.make ~name:"indented print/parse roundtrip (element content)"
    ~count:300
    (* Indented output only re-parses to an equal tree when no mixed
       content; restrict to trees whose text is only in leaves. *)
    (QCheck2.Gen.map
       (fun t ->
         let rec strip (t : Xml.Tree.t) : Xml.Tree.t =
           match t with
           | Xml.Tree.Text _ -> t
           | Xml.Tree.Element e ->
               let elems =
                 List.filter
                   (function Xml.Tree.Element _ -> true | _ -> false)
                   e.children
               in
               if elems = [] then t
               else Xml.Tree.Element { e with children = List.map strip elems }
         in
         strip t)
       Gen.gen_tree)
    (fun t -> Xml.Tree.equal t (parse (Xml.Printer.to_string_indented t)))

let prop_size =
  QCheck2.Test.make ~name:"serialized_size = length of to_string" ~count:300
    Gen.gen_tree (fun t ->
      Xml.Printer.serialized_size t = String.length (Xml.Printer.to_string t))

let suite =
  [
    Alcotest.test_case "minimal documents" `Quick test_minimal;
    Alcotest.test_case "attributes" `Quick test_attributes;
    Alcotest.test_case "nesting" `Quick test_nesting;
    Alcotest.test_case "entities" `Quick test_entities;
    Alcotest.test_case "CDATA" `Quick test_cdata;
    Alcotest.test_case "comments and PIs" `Quick test_comments_pis;
    Alcotest.test_case "DOCTYPE" `Quick test_doctype;
    Alcotest.test_case "whitespace policy" `Quick test_whitespace;
    Alcotest.test_case "malformed inputs rejected" `Quick test_errors;
    Alcotest.test_case "error position" `Quick test_error_position;
    Alcotest.test_case "error position at end of input" `Quick
      test_error_position_at_eof;
    Alcotest.test_case "error messages and positions" `Quick test_error_messages;
    Alcotest.test_case "exact parser output" `Quick test_exact_output;
    Alcotest.test_case "escaping" `Quick test_escape;
    Alcotest.test_case "serialized_size" `Quick test_serialized_size;
    Alcotest.test_case "tree helpers" `Quick test_tree_helpers;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_roundtrip_indented;
    QCheck_alcotest.to_alcotest prop_size;
  ]

(* Robustness fuzzing: mutated documents never crash the parser with
   anything but Parser.Error. *)
let prop_parser_total_on_mutations =
  QCheck2.Test.make ~name:"parser total on mutated input" ~count:500
    QCheck2.Gen.(triple Gen.gen_tree (int_range 0 200) (int_range 0 255))
    (fun (t, pos, byte) ->
      let s = Xml.Printer.to_string t in
      let s =
        if String.length s = 0 then s
        else begin
          let b = Bytes.of_string s in
          Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
          Bytes.to_string b
        end
      in
      match Xml.Parser.parse s with
      | _ -> true
      | exception Xml.Parser.Error _ -> true
      | exception _ -> false)

let prop_parser_total_on_garbage =
  QCheck2.Test.make ~name:"parser total on garbage" ~count:500
    QCheck2.Gen.(string_size (int_range 0 64))
    (fun s ->
      match Xml.Parser.parse s with
      | _ -> true
      | exception Xml.Parser.Error _ -> true
      | exception _ -> false)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_parser_total_on_mutations;
      QCheck_alcotest.to_alcotest prop_parser_total_on_garbage;
    ]
