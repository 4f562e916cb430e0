type t = int array

let root = [| 1 |]

let child d i =
  let n = Array.length d in
  let r = Array.make (n + 1) 0 in
  Array.blit d 0 r 0 n;
  r.(n) <- i;
  r

let level = Array.length

let compare (a : int array) (b : int array) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i >= la && i >= lb then 0
    else if i >= la then -1
    else if i >= lb then 1
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = compare a b = 0

let common_prefix_len (a : int array) (b : int array) =
  let n = min (Array.length a) (Array.length b) in
  let rec go i = if i < n && a.(i) = b.(i) then go (i + 1) else i in
  go 0

let is_prefix p d =
  Array.length p <= Array.length d && common_prefix_len p d = Array.length p

let prefix d l =
  if l < 1 || l > Array.length d then invalid_arg "Dewey.prefix";
  Array.sub d 0 l

let distance a b =
  let cp = common_prefix_len a b in
  Array.length a + Array.length b - (2 * cp)

let to_string d =
  String.concat "." (Array.to_list (Array.map string_of_int d))

let of_string s =
  if s = "" then invalid_arg "Dewey.of_string";
  let parts = String.split_on_char '.' s in
  let ints =
    List.map
      (fun p ->
        match int_of_string_opt p with
        | Some i when i >= 1 -> i
        | _ -> invalid_arg "Dewey.of_string")
      parts
  in
  Array.of_list ints

let pp fmt d = Format.pp_print_string fmt (to_string d)
