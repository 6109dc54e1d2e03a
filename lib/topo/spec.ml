type node = {
  name : string;
  supercharged : bool;
}

type link = {
  ends : int * int;
  cost : int;
  srlg : int option;
}

type extern_peer = {
  at : int;
  asn : int;
  pref : int;
}

type t = {
  nodes : node array;
  links : link array;
  externs : extern_peer array;
}

let n_routers t = Array.length t.nodes
let n_externs t = Array.length t.externs

let make ~nodes ~links ~externs =
  let n = Array.length nodes in
  if n = 0 then invalid_arg "Topo.Spec.make: no routers";
  if n > 254 then invalid_arg "Topo.Spec.make: more than 254 routers";
  if Array.length externs > 254 then invalid_arg "Topo.Spec.make: more than 254 externs";
  let seen = Hashtbl.create 16 in
  Array.iteri
    (fun i { ends = a, b; cost; srlg = _ } ->
      if a < 0 || a >= n || b < 0 || b >= n then
        invalid_arg (Fmt.str "Topo.Spec.make: link %d endpoint out of range" i);
      if a = b then invalid_arg (Fmt.str "Topo.Spec.make: link %d is a self-link" i);
      if cost <= 0 then
        invalid_arg (Fmt.str "Topo.Spec.make: link %d has non-positive cost" i);
      let key = (min a b, max a b) in
      if Hashtbl.mem seen key then
        invalid_arg (Fmt.str "Topo.Spec.make: duplicate link %d-%d" (fst key) (snd key));
      Hashtbl.replace seen key i)
    links;
  Array.iteri
    (fun k { at; asn; pref } ->
      if at < 0 || at >= n then
        invalid_arg (Fmt.str "Topo.Spec.make: extern %d at unknown router" k);
      if asn < 0 || asn > 65535 then
        invalid_arg (Fmt.str "Topo.Spec.make: extern %d ASN out of range" k);
      if pref < 0 then invalid_arg (Fmt.str "Topo.Spec.make: extern %d negative pref" k))
    externs;
  { nodes; links; externs }

let router_ip i = Net.Ipv4.of_octets 10 0 0 (i + 1)
let extern_ip k = Net.Ipv4.of_octets 172 16 (k + 1) 1

let extern_of_ip t ip =
  let a, b, c, d = Net.Ipv4.to_octets ip in
  if a = 172 && b = 16 && d = 1 && c >= 1 && c <= n_externs t then Some (c - 1)
  else None

let supercharged t i = t.nodes.(i).supercharged

let supercharged_indices t =
  Array.to_list t.nodes
  |> List.mapi (fun i node -> (i, node))
  |> List.filter_map (fun (i, node) -> if node.supercharged then Some i else None)

let with_supercharged t indices =
  let nodes =
    Array.mapi
      (fun i node -> { node with supercharged = List.exists (Int.equal i) indices })
      t.nodes
  in
  { t with nodes }

let link_between t a b =
  let found = ref None in
  Array.iteri
    (fun i { ends = x, y; _ } ->
      if (x = a && y = b) || (x = b && y = a) then
        if Option.is_none !found then found := Some i)
    t.links;
  !found

let srlg_members t tag =
  Array.to_list t.links
  |> List.mapi (fun i l -> (i, l))
  |> List.filter_map (fun (i, l) ->
         match l.srlg with
         | Some g when g = tag -> Some i
         | Some _ | None -> None)

let ring ~routers ~externs ?(supercharged = []) () =
  if routers < 6 then invalid_arg "Topo.Spec.ring: need >= 6 routers";
  let nodes =
    Array.init routers (fun i ->
        { name = Fmt.str "r%d" i; supercharged = List.exists (Int.equal i) supercharged })
  in
  let ring_links =
    List.init routers (fun i ->
        let next = (i + 1) mod routers in
        (* The two ring links adjacent to router 0 enter the same site
           through one conduit: srlg 0 is the correlated-failure pair. *)
        let srlg = if i = 0 || next = 0 then Some 0 else None in
        { ends = (i, next); cost = 10; srlg })
  in
  let chord_links =
    List.init (routers / 2) (fun i ->
        let far = i + (routers / 2) in
        if far = (i + 1) mod routers then None
        else Some { ends = (i, far); cost = 25; srlg = Some 1 })
    |> List.filter_map Fun.id
  in
  let links = Array.of_list (ring_links @ chord_links) in
  let externs =
    Array.of_list
      (List.mapi (fun k (at, pref) -> { at; asn = 64600 + k; pref }) externs)
  in
  make ~nodes ~links ~externs

let pp ppf t =
  Fmt.pf ppf "@[<v>%d routers (%d supercharged), %d links, %d externs@]"
    (n_routers t)
    (List.length (supercharged_indices t))
    (Array.length t.links) (n_externs t)
