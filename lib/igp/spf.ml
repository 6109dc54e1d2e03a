module Ip_table = Hashtbl.Make (struct
  type t = Net.Ipv4.t

  let equal = Net.Ipv4.equal
  let hash = Net.Ipv4.hash
end)

type entry = {
  dist : int;
  first_hop : Net.Ipv4.t option;  (* None only for the source itself *)
}

type table = {
  source : Net.Ipv4.t;
  entries : entry Ip_table.t;
  serial : int;  (* ordinal of the run that produced this table, from 1 *)
}

(* Process-wide count of Dijkstra runs. The regression tests use it to
   pin down the "one SPF per database change" contract: querying a
   node's distances must not re-run the algorithm. Atomic so per-router
   SPF recomputation can move onto separate domains (the multicore
   runway) without the counter racing; everything else SPF produces lives in
   the per-run [table]. *)
let computed = Atomic.make 0
let computations () = Atomic.get computed

let compute ~source ~lsas =
  let serial = 1 + Atomic.fetch_and_add computed 1 in
  (* Index the freshest LSA per origin. *)
  let db = Ip_table.create 16 in
  List.iter
    (fun (lsa : Lsa.t) ->
      match Ip_table.find_opt db lsa.origin with
      | Some existing when not (Lsa.newer lsa ~than:existing) -> ()
      | _ -> Ip_table.replace db lsa.origin lsa)
    lsas;
  let advertises a b =
    match Ip_table.find_opt db a with
    | Some (lsa : Lsa.t) -> List.exists (fun (n, _) -> Net.Ipv4.equal n b) lsa.links
    | None -> false
  in
  let edges_from a =
    match Ip_table.find_opt db a with
    | Some (lsa : Lsa.t) ->
      (* Two-way connectivity check: use the link only if the neighbor
         advertises it back. *)
      List.filter (fun (n, _) -> advertises n a) lsa.links
    | None -> []
  in
  let entries = Ip_table.create 16 in
  let heap =
    Sim.Heap.create ~cmp:(fun (da, _, _) (db, _, _) -> Int.compare da db) ()
  in
  Sim.Heap.push heap (0, source, None);
  let rec loop () =
    match Sim.Heap.pop heap with
    | None -> ()
    | Some (d, node, first_hop) ->
      if not (Ip_table.mem entries node) then begin
        Ip_table.replace entries node { dist = d; first_hop };
        List.iter
          (fun (neighbor, cost) ->
            if not (Ip_table.mem entries neighbor) then
              (* The first hop of a path through [node] is [node] itself
                 when we are expanding the source, else it is inherited. *)
              let hop =
                match first_hop with
                | None -> Some neighbor
                | Some _ -> first_hop
              in
              Sim.Heap.push heap (d + cost, neighbor, hop))
          (edges_from node)
      end;
      loop ()
  in
  loop ();
  { source; entries; serial }

let source t = t.source
let serial t = t.serial
let distance t target = Option.map (fun e -> e.dist) (Ip_table.find_opt t.entries target)

let first_hop t target =
  match Ip_table.find_opt t.entries target with
  | Some e -> e.first_hop
  | None -> None

let reachable t target = Ip_table.mem t.entries target

let to_alist t =
  List.sort
    (fun (a, _) (b, _) -> Net.Ipv4.compare a b)
    (Ip_table.fold (fun node e acc -> (node, e.dist) :: acc) t.entries [])

let distances ~source ~lsas = to_alist (compute ~source ~lsas)
let distance_to ~source ~lsas target = distance (compute ~source ~lsas) target
