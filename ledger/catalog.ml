(* The ledger's workload catalog.  Every document, guard and operation a
   workload runs is a pure function of the seed, so the closed-loop client,
   the in-process traced replay and the output check all see the same
   sequence without shipping it between processes. *)

type dataset = {
  name : string;  (** file stem: [NAME.xml] and the daemon's [NAME.store] *)
  shapes : Workloads.Shapes.dataset;  (** its Fig. 15 guard family *)
  root : string;  (** root label, for the identity [MUTATE] *)
  query_guard : string;
  query : string;
  tail_root : string;  (** tail guards are [MORPH tail_root [ subset ]] *)
  tail_children : string array;
  update_label : string;  (** updated nodes: [update_label] elements ... *)
  update_parent : string;  (** ... whose parent is an [update_parent] *)
}

let datasets =
  [| {
       name = "xmark";
       shapes = Workloads.Shapes.Xmark_data;
       root = "site";
       query_guard = "MORPH person [ person.name city ]";
       query =
         "for $p in //person where $p/city return <r>{$p/name/text()} \
          {$p/city/text()}</r>";
       tail_root = "person";
       tail_children =
         [| "person.name"; "emailaddress"; "street"; "city"; "country";
            "zipcode"; "age"; "gender"; "business"; "education" |];
       update_label = "city";
       update_parent = "address";
     };
     {
       name = "dblp";
       shapes = Workloads.Shapes.Dblp_data;
       root = "dblp";
       query_guard = "MORPH author [ title year ]";
       query =
         "for $a in //author where $a/year > 2000 return <a>{$a/text()} \
          {$a/title/text()}</a>";
       tail_root = "article";
       tail_children =
         [| "article.author"; "title"; "journal"; "volume"; "year"; "pages";
            "url"; "ee"; "@mdate"; "@key" |];
       update_label = "title";
       update_parent = "article";
     };
     {
       name = "nasa";
       shapes = Workloads.Shapes.Nasa_data;
       root = "datasets";
       query_guard = "MORPH dataset [ title keyword ]";
       query =
         "for $d in //dataset where $d/keyword return <d>{$d/title/text()}</d>";
       tail_root = "dataset";
       tail_children =
         [| "title"; "altname"; "identifier"; "@subject"; "keyword";
            "lastname"; "volume"; "units"; "para"; "abstract" |];
       update_label = "title";
       update_parent = "dataset";
     } |]

let store_name i = datasets.(i).name ^ ".store"

(* Sizes are fixed; only content varies with the seed, so a seed changes
   what is rendered but not how much (a few hundred KB per document). *)
let generate i ~seed =
  let seed = (seed * 1009) + i in
  match datasets.(i).shapes with
  | Workloads.Shapes.Xmark_data -> Workloads.Xmark.generate ~seed ~factor:0.01 ()
  | Workloads.Shapes.Dblp_data -> Workloads.Dblp.generate ~seed ~entries:1000 ()
  | Workloads.Shapes.Nasa_data -> Workloads.Nasa.generate ~seed ~datasets:100 ()

type read = { doc : int; guard : string; query : string option }

type op =
  | Read of read
  | Write of { doc : int; node : int; value : string }

let read_key r =
  Printf.sprintf "%d\t%s\t%s" r.doc r.guard (Option.value ~default:"" r.query)

let shape i kind = Workloads.Shapes.guard datasets.(i).shapes kind
let identity i = { doc = i; guard = "MUTATE " ^ datasets.(i).root; query = None }

(* Fig. 15's deep-large guard.  On DBLP it widens (an article has several
   authors), so it runs under the cast that admits that, as Fig. 15 ran it
   regardless of classification. *)
let deep_large i =
  let g = shape i Workloads.Shapes.Deep_large in
  if datasets.(i).shapes = Workloads.Shapes.Dblp_data then "CAST-WIDENING " ^ g
  else g

let guarded_query i =
  { doc = i; guard = datasets.(i).query_guard; query = Some datasets.(i).query }

(* oneshot: {xmark, dblp, nasa} x {identity, Fig. 15 deep, Fig. 15 bushy,
   guarded query}.  Job 0 is XMark's identity MUTATE. *)
let oneshot_jobs =
  Array.concat
    (List.init (Array.length datasets) (fun i ->
         [| identity i;
            { doc = i; guard = deep_large i; query = None };
            { doc = i; guard = shape i Workloads.Shapes.Bushy_large; query = None };
            guarded_query i |]))

(* A round of the job order: every job once, and XMark's identity MUTATE,
   the slowest job by far, once more.  The p95 lies among that job's
   latencies: at one entry in thirteen it sat in their lower third, held up
   by a handful of samples, and jumped from run to run; at two in thirteen
   it sits near their middle.  Thirteen entries also keep the count odd,
   so the median falls inside a job's latencies, not in a gap between
   two. *)
let oneshot_round = Array.append (Array.init (Array.length oneshot_jobs) Fun.id) [| 0 |]

(* Job order: shuffled rounds, so every run sees the same mix whatever its
   length. *)
let oneshot_order ~seed ~rounds =
  let rng = Xmutil.Prng.create seed in
  Array.concat
    (List.init rounds (fun _ ->
         let a = Array.copy oneshot_round in
         Xmutil.Prng.shuffle rng a;
         a))

(* serve-hot's guards in Zipf rank order (weight 1/rank).  The ranking is
   fixed rather than seeded: the guards' bodies differ in size, and a seeded
   ranking would move the medians with the seed, not with the program. *)
let hot =
  [| { doc = 0; guard = shape 0 Workloads.Shapes.Bushy_small; query = None };
     { doc = 1; guard = shape 1 Workloads.Shapes.Bushy_small; query = None };
     { doc = 2; guard = shape 2 Workloads.Shapes.Bushy_small; query = None };
     guarded_query 0;
     { doc = 0; guard = shape 0 Workloads.Shapes.Deep_small; query = None };
     { doc = 1; guard = shape 1 Workloads.Shapes.Deep_small; query = None };
     { doc = 2; guard = shape 2 Workloads.Shapes.Deep_small; query = None };
     { doc = 2; guard = shape 2 Workloads.Shapes.Bushy_large; query = None } |]

let hot_weights = List.init (Array.length hot) (fun r -> (840 / (r + 1), r))

(* One stream per operation index: op [i] does not depend on how many ops
   ran before it, so striping ops over clients keeps each op's content. *)
let rng_for ~seed i = Xmutil.Prng.create ((seed * 1_000_003) + i)

let tail_guard rng =
  let d = Xmutil.Prng.int rng (Array.length datasets) in
  let ds = datasets.(d) in
  let kids = Array.copy ds.tail_children in
  Xmutil.Prng.shuffle rng kids;
  let k = Xmutil.Prng.int_in rng 2 5 in
  {
    doc = d;
    guard =
      Printf.sprintf "MORPH %s [ %s ]" ds.tail_root
        (String.concat " " (Array.to_list (Array.sub kids 0 k)));
    query = None;
  }

(* serve-churn: 10% writes on text the hot guards render, 45% hot reads,
   1% identity MUTATE over XMark (the largest body), 44% a long tail of
   seeded guard texts, most of which the run sees once.  MUTATE stays near
   1%: its renders are the slowest reads by far, and at a share near 5%
   the p95 would sit on the edge of that mode and jump with every run. *)
let churn_op ~seed ~pools ~client ~clients i =
  let rng = rng_for ~seed i in
  let u = Xmutil.Prng.int rng 100 in
  if u < 10 then begin
    let doc = Xmutil.Prng.int rng (Array.length datasets) in
    (* Each client writes only its own nodes, so the state after a run is
       fixed by which writes each client completed, not by their
       interleaving. *)
    let pool = pools.(doc) in
    let mine = (Array.length pool - client + clients - 1) / clients in
    let node = pool.(client + (clients * Xmutil.Prng.int rng mine)) in
    Write { doc; node; value = Printf.sprintf "v%d" i }
  end
  else if u < 55 then Read hot.(Xmutil.Prng.pick_weighted rng hot_weights)
  else if u < 56 then Read (identity 0)
  else Read (tail_guard rng)

let hot_op ~seed i =
  Read hot.(Xmutil.Prng.pick_weighted (rng_for ~seed i) hot_weights)

(* What a quiescent check of serve-churn reads: the hot guards, the
   identity MUTATE and the first tail guards of the seed's stream. *)
let churn_checks ~seed =
  Array.append hot
    (Array.append [| identity 0 |]
       (Array.init 8 (fun i -> tail_guard (rng_for ~seed (-1 - i)))))

(* The nodes a workload may update: [update_label] elements under an
   [update_parent] (text the hot guards render), 64 per document. *)
let update_pool doc i ~seed =
  let ds = datasets.(i) in
  let n = Xml.Doc.node_count doc in
  let ids = ref [] in
  for id = n - 1 downto 0 do
    let nd = Xml.Doc.node doc id in
    if nd.Xml.Doc.kind = Xml.Doc.Element
       && String.equal nd.Xml.Doc.name ds.update_label
       && nd.Xml.Doc.parent >= 0
       && String.equal (Xml.Doc.node doc nd.Xml.Doc.parent).Xml.Doc.name
            ds.update_parent
    then ids := id :: !ids
  done;
  let a = Array.of_list !ids in
  Xmutil.Prng.shuffle (Xmutil.Prng.create (seed + i)) a;
  Array.sub a 0 (min 64 (Array.length a))
