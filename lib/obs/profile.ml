(* Per-operator query profiler — EXPLAIN ANALYZE for the operator tree.

   A frame aggregates every evaluation of one operator at one position in
   the tree: call count, cumulative and self wall time, input/output node
   counts, closest-pair count, and the block-I/O delta observed while the
   operator (and its subtree) ran.  Frames merge by name under their
   parent, so an XQuery subexpression evaluated 10,000 times inside a
   FLWOR loop shows up once with calls=10000 — the usual EXPLAIN ANALYZE
   presentation.

   Frames live in a session: one frame tree, its open-activation stack,
   and the bytes it has charged to the store.  A session is installed
   either for one thread ([with_session]: one execution's frames, as the
   warehouse and slow-query capture record them) or process-wide
   ([enable]: the operator's --profile, where every thread records into
   the same tree).  A thread's own session shadows the process-wide one.
   Concurrent executions under their own sessions therefore never see
   each other's frames, and each needs no lock.

   Block I/O is attributed by snapshot/delta over the session's own byte
   counters ([charge_read]/[charge_write], fed by [Store.Io_stats]):
   [enter] and [exit] read the session's cumulative blocks and charge the
   difference to the frame.  Blocks are pages of the session's own I/O,
   so an execution's counts do not depend on what ran before or beside
   it.

   The probe gate is one [Atomic.get] of the live-session count:
   instrumented hot paths guard on [profiling ()] and use the
   allocation-free [enter]/[exit] pair, so with no session live the path
   is one load and a branch, with no allocation.  Cold call sites can use
   the closure-based [op]. *)

type frame = {
  name : string;
  mutable calls : int;
  mutable total_us : float; (* cumulative: includes time in children *)
  mutable child_us : float; (* time attributed to child frames *)
  mutable in_count : int;
  mutable out_count : int;
  mutable pairs : int; (* closest pairs / join attachments *)
  mutable blocks_read : int; (* block-I/O delta over the frame's subtree *)
  mutable blocks_written : int;
  mutable children : frame list; (* newest first; reversed on export *)
}

type session = {
  mutable tops : frame list; (* root frames, newest first *)
  mutable stack : token list; (* open activations, innermost first *)
  mutable bytes_read : int; (* this session's own I/O *)
  mutable bytes_written : int;
}

and token = { fr : frame; owner : session; t0 : float; r0 : int; w0 : int }

let session () = { tops = []; stack = []; bytes_read = 0; bytes_written = 0 }

(* "No session": its stack is always empty, so the [add_*] probes fall
   through on it without a separate check. *)
let none = session ()

(* Live sessions: thread-installed ones plus the process-wide one.  The
   gate every probe checks first. *)
let live = Atomic.make 0

(* Thread-installed sessions by thread id, innermost first.  Replaced
   wholesale on install/uninstall (once per execution), so a probe reads
   it with one load and no lock. *)
let slots : (int * session) list Atomic.t = Atomic.make []

(* The process-wide session, [none] unless enabled. *)
let global = Atomic.make none

(* The last process-wide session, retained after [disable] so a run can
   be exported post mortem. *)
let retained = ref none

let rec find_slot tid = function
  | [] -> none
  | (k, s) :: rest -> if k = tid then s else find_slot tid rest

(* The calling thread's session, else the process-wide one, else [none].
   Only called once the gate has seen a live session. *)
let current () =
  let s = find_slot (Thread.id (Thread.self ())) (Atomic.get slots) in
  if s != none then s else Atomic.get global

let profiling () = Atomic.get live > 0 && current () != none

let rec update f =
  let old = Atomic.get slots in
  if not (Atomic.compare_and_set slots old (f old)) then update f

let with_session s f =
  let tid = Thread.id (Thread.self ()) in
  update (fun l -> (tid, s) :: l);
  Atomic.incr live;
  Fun.protect f ~finally:(fun () ->
      Atomic.decr live;
      update (fun l ->
          let rec drop = function
            | [] -> []
            | (_, s') :: rest when s' == s -> rest
            | x :: rest -> x :: drop rest
          in
          drop l))

let enable () =
  let s = session () in
  retained := s;
  if Atomic.exchange global s == none then Atomic.incr live

let disable () = if Atomic.exchange global none != none then Atomic.decr live

(* Discard collected frames without changing the enabled flag. *)
let reset () =
  let s = !retained in
  if s != none then begin
    s.tops <- [];
    s.stack <- [];
    s.bytes_read <- 0;
    s.bytes_written <- 0
  end

let blocks_of = Ctx.blocks_of

let charge_read bytes =
  if Atomic.get live > 0 then begin
    let s = current () in
    if s != none then s.bytes_read <- s.bytes_read + bytes
  end

let charge_write bytes =
  if Atomic.get live > 0 then begin
    let s = current () in
    if s != none then s.bytes_written <- s.bytes_written + bytes
  end

let fresh name =
  { name; calls = 0; total_us = 0.0; child_us = 0.0; in_count = 0;
    out_count = 0; pairs = 0; blocks_read = 0; blocks_written = 0;
    children = [] }

(* Returned by [enter] when no session records this thread, so [exit]
   can ignore the activation without a lookup. *)
let dummy = { fr = fresh ""; owner = none; t0 = 0.0; r0 = 0; w0 = 0 }

let enter name =
  if Atomic.get live = 0 then dummy
  else
    let st = current () in
    if st == none then dummy
    else begin
      let siblings =
        match st.stack with [] -> st.tops | t :: _ -> t.fr.children
      in
      let fr =
        match List.find_opt (fun f -> f.name = name) siblings with
        | Some f -> f
        | None ->
            let f = fresh name in
            (match st.stack with
            | [] -> st.tops <- f :: st.tops
            | t :: _ -> t.fr.children <- f :: t.fr.children);
            f
      in
      let tok =
        { fr; owner = st; t0 = Unix.gettimeofday ();
          r0 = blocks_of st.bytes_read; w0 = blocks_of st.bytes_written }
      in
      st.stack <- tok :: st.stack;
      tok
    end

let exit ?(in_count = 0) ?(out_count = 0) tok =
  if tok != dummy then begin
    let st = tok.owner in
    let elapsed = (Unix.gettimeofday () -. tok.t0) *. 1e6 in
    let fr = tok.fr in
    fr.calls <- fr.calls + 1;
    fr.total_us <- fr.total_us +. elapsed;
    fr.in_count <- fr.in_count + in_count;
    fr.out_count <- fr.out_count + out_count;
    fr.blocks_read <- fr.blocks_read + (blocks_of st.bytes_read - tok.r0);
    fr.blocks_written <-
      fr.blocks_written + (blocks_of st.bytes_written - tok.w0);
    (match st.stack with
    | t :: rest when t == tok -> st.stack <- rest
    | _ -> st.stack <- List.filter (fun t -> t != tok) st.stack);
    match st.stack with
    | parent :: _ -> parent.fr.child_us <- parent.fr.child_us +. elapsed
    | [] -> ()
  end

(* Attribute counts to the innermost open operator. *)
let add_in n =
  if Atomic.get live > 0 then
    match (current ()).stack with
    | t :: _ -> t.fr.in_count <- t.fr.in_count + n
    | [] -> ()

let add_out n =
  if Atomic.get live > 0 then
    match (current ()).stack with
    | t :: _ -> t.fr.out_count <- t.fr.out_count + n
    | [] -> ()

let add_pairs n =
  if Atomic.get live > 0 then
    match (current ()).stack with
    | t :: _ -> t.fr.pairs <- t.fr.pairs + n
    | [] -> ()

let op name f =
  if Atomic.get live = 0 then f ()
  else
    let tok = enter name in
    match f () with
    | v ->
        exit tok;
        v
    | exception e ->
        exit tok;
        raise e

(* ---------- reads ---------- *)

let self_us fr = Float.max 0.0 (fr.total_us -. fr.child_us)

let session_roots s = List.rev s.tops

let roots () = session_roots !retained

let ordered_children fr = List.rev fr.children

(* Walk a name path from the roots: [lookup ["compile"; "morph"]]. *)
let lookup path =
  let rec go frames = function
    | [] -> None
    | [ name ] -> List.find_opt (fun f -> f.name = name) frames
    | name :: rest -> (
        match List.find_opt (fun f -> f.name = name) frames with
        | Some f -> go (ordered_children f) rest
        | None -> None)
  in
  go (roots ()) path

(* ---------- export ---------- *)

(* Algebra.pp-style indented operator tree, one annotated line per node. *)
let to_text () =
  let b = Buffer.create 1024 in
  let rec go indent fr =
    Buffer.add_string b
      (Printf.sprintf "%s%-*s calls=%d time=%.3fms self=%.3fms in=%d out=%d%s blocks=%dr+%dw\n"
         indent
         (max 1 (32 - String.length indent))
         fr.name fr.calls (fr.total_us /. 1e3) (self_us fr /. 1e3)
         fr.in_count fr.out_count
         (if fr.pairs > 0 then Printf.sprintf " pairs=%d" fr.pairs else "")
         fr.blocks_read fr.blocks_written);
    List.iter (go (indent ^ "  ")) (ordered_children fr)
  in
  List.iter (go "") (roots ());
  Buffer.contents b

let rec frame_json fr =
  Xmutil.Json.Obj
    ([ ("name", Xmutil.Json.String fr.name);
       ("calls", Xmutil.Json.Int fr.calls);
       ("total_us", Xmutil.Json.Float fr.total_us);
       ("self_us", Xmutil.Json.Float (self_us fr));
       ("in", Xmutil.Json.Int fr.in_count);
       ("out", Xmutil.Json.Int fr.out_count);
       ("pairs", Xmutil.Json.Int fr.pairs);
       ("blocks_read", Xmutil.Json.Int fr.blocks_read);
       ("blocks_written", Xmutil.Json.Int fr.blocks_written) ]
    @
    match fr.children with
    | [] -> []
    | cs -> [ ("children", Xmutil.Json.List (List.rev_map frame_json cs)) ])

let session_json s =
  Xmutil.Json.Obj
    [ ("profile", Xmutil.Json.List (List.map frame_json (session_roots s))) ]

let to_json () = session_json !retained
