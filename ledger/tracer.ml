(* The traced run: one client replays a workload's operation sequence
   in-process, recording a span around each call into a library's public
   entry points.  Spans are kept in memory and written out at the end; a
   layer's self time is its spans' duration minus the part their child
   spans cover.  The same replay with recording off gives the tracing
   overhead. *)

let now = Unix.gettimeofday

type span = {
  name : string;
  op : int;  (** operation index the span belongs to *)
  parent : int;  (** index of the enclosing span, -1 for an operation *)
  t0 : float;
  mutable t1 : float;
}

let recording = ref false
let spans : span Xmutil.Vec.t = Xmutil.Vec.create ()
let stack = ref []
let current_op = ref 0

let span name f =
  if not !recording then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { name; op = !current_op; parent; t0 = now (); t1 = 0. } in
    let id = Xmutil.Vec.push spans s in
    stack := id :: !stack;
    let finish () =
      s.t1 <- now ();
      stack := List.tl !stack
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Self time per span name, summed over spans whose operation is at or
   past [from_op]. *)
let self_times ~from_op =
  let all = Xmutil.Vec.to_array spans in
  let child = Array.make (Array.length all) 0. in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0))
    all;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      if s.op >= from_op then
        Hashtbl.replace tbl s.name
          (s.t1 -. s.t0 -. child.(i)
          +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    all;
  tbl

(* Chrome trace_event JSON, the format [xmorph --trace] writes. *)
let write_spans path =
  let ev (s : span) =
    Xmutil.Json.Obj
      [ ("name", Xmutil.Json.String s.name);
        ("ph", Xmutil.Json.String "X");
        ("ts", Xmutil.Json.Float (s.t0 *. 1e6));
        ("dur", Xmutil.Json.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", Xmutil.Json.Int 1);
        ("tid", Xmutil.Json.Int 1);
        ( "args",
          Xmutil.Json.Obj
            [ ("op", Xmutil.Json.Int s.op); ("parent", Xmutil.Json.Int s.parent) ]
        ) ]
  in
  Gen.write_file path
    (Xmutil.Json.to_string ~pretty:false
       (Xmutil.Json.Obj
          [ ( "traceEvents",
              Xmutil.Json.List (List.map ev (Xmutil.Vec.to_list spans)) ) ]))

(* Counts recorded at the same boundaries as the spans. *)
type counts = {
  mutable out_nodes : int;
  mutable blocks : int;
  mutable printed : int;
}

let zero_counts () = { out_nodes = 0; blocks = 0; printed = 0 }

(* [Xmorph.Interp.compile], split at its public calls. *)
let compile ~enforce guide source =
  let ast, algebra =
    span "core.parse" (fun () ->
        let ast = Xmorph.Parse.guard source in
        (ast, Xmorph.Algebra.of_ast ast))
  in
  let sem = span "core.infer" (fun () -> Xmorph.Semantics.eval guide algebra) in
  let loss =
    span "core.loss" (fun () ->
        if enforce then
          Xmorph.Loss.check ~cast:(Xmorph.Algebra.cast_mode algebra) guide
            sem.Xmorph.Semantics.shape
        else
          Xmorph.Loss.analyze ~warnings:sem.Xmorph.Semantics.warnings guide
            sem.Xmorph.Semantics.shape)
  in
  {
    Xmorph.Interp.source;
    ast;
    algebra;
    shape = sem.Xmorph.Semantics.shape;
    labels = sem.Xmorph.Semantics.labels;
    loss =
      {
        loss with
        Xmorph.Report.warnings =
          sem.Xmorph.Semantics.warnings @ loss.Xmorph.Report.warnings;
      };
  }

(* Render, optional query and serialization: the body [Exec.execute]
   returns for a compiled guard. *)
let render_body counts store compiled query =
  let tree =
    span "core.render" (fun () ->
        Xmorph.Render.to_tree store compiled.Xmorph.Interp.shape)
  in
  counts.out_nodes <- counts.out_nodes + Xml.Tree.count_nodes tree;
  let body =
    match query with
    | None ->
        span "xml.print" (fun () -> Xml.Printer.to_string_indented tree)
    | Some q ->
        let trees =
          span "xquery.eval" (fun () ->
              Xquery.Value.to_trees (Xquery.Eval.run tree q))
        in
        span "xml.print" (fun () ->
            let b = Buffer.create 256 in
            List.iter
              (fun t ->
                Buffer.add_string b (Xml.Printer.to_string t);
                Buffer.add_char b '\n')
              trees;
            Buffer.contents b)
  in
  counts.printed <- counts.printed + String.length body;
  body

let blocks store =
  Store.Io_stats.blocks_total
    (Store.Io_stats.snapshot (Store.Shredded.stats store))

(* One [xmorph run]/[xmorph query] job: everything but process start,
   the file read and stdout. *)
let oneshot_job counts ~dir (r : Catalog.read) =
  let text = Gen.read_file (Gen.doc_path dir r.Catalog.doc) in
  let tree = span "xml.parse" (fun () -> Xml.Parser.parse text) in
  let doc = span "xml.doc" (fun () -> Xml.Doc.of_tree tree) in
  let store = span "store.shred" (fun () -> Store.Shredded.shred doc) in
  let b0 = blocks store in
  let compiled = compile ~enforce:true (Store.Shredded.guide store) r.Catalog.guard in
  let body = render_body counts store compiled r.Catalog.query in
  counts.blocks <- counts.blocks + (blocks store - b0);
  body

(* One served operation, following [Exec.execute]'s cache discipline:
   result tier, then plan tier, then compile and render; both tiers are
   bypassed while the warehouse records. *)
let served_op counts ~use_cache (cells : Store.Shredded.t array) op =
  match op with
  | Catalog.Write { doc; node; value } ->
      cells.(doc) <-
        span "store.update" (fun () ->
            Store.Shredded.update_value cells.(doc) node value);
      None
  | Catalog.Read r ->
      let store = cells.(r.Catalog.doc) in
      let guard_hash = Xmobs.Qlog.hash_text r.Catalog.guard in
      let query_hash =
        match r.Catalog.query with
        | None -> ""
        | Some q -> Xmobs.Qlog.hash_text q
      in
      let generation = Store.Shredded.generation store in
      let guide_uid = Xml.Dataguide.uid (Store.Shredded.guide store) in
      let compiled () =
        match
          if use_cache then
            span "cache.lookup" (fun () ->
                Xmcache.find_plan ~guide_uid ~guard_hash ~enforce:true)
          else None
        with
        | Some c -> c
        | None ->
            let c =
              compile ~enforce:true (Store.Shredded.guide store) r.Catalog.guard
            in
            if use_cache then
              span "cache.lookup" (fun () ->
                  Xmcache.add_plan ~guide_uid ~guard_hash ~enforce:true c);
            c
      in
      let hit =
        if use_cache then
          span "cache.lookup" (fun () ->
              Xmcache.find_result ~generation ~guard_hash ~query_hash
                ~compact:false ~enforce:true)
        else None
      in
      let body =
        match hit with
        | Some entry ->
            (* A hit still rebuilds the outcome's plan from the plan tier. *)
            ignore (compiled ());
            entry.Xmcache.body
        | None ->
            let b0 = blocks store in
            let compiled = compiled () in
            let body = render_body counts store compiled r.Catalog.query in
            counts.blocks <- counts.blocks + (blocks store - b0);
            if use_cache then
              span "cache.lookup" (fun () ->
                  Xmcache.add_result ~generation ~guard_hash ~query_hash
                    ~compact:false ~enforce:true
                    {
                      Xmcache.body;
                      is_query = r.Catalog.query <> None;
                      classification =
                        Some
                          (Xmorph.Report.classification_to_string
                             compiled.Xmorph.Interp.loss
                               .Xmorph.Report.classification);
                      out_nodes = 0;
                    });
            body
      in
      Some (r, body)
