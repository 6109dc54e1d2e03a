type 'a node = {
  mutable value : 'a option;
  mutable zero : 'a node option; (* next bit = 0 *)
  mutable one : 'a node option;  (* next bit = 1 *)
}

type 'a t = {
  mutable root : 'a node;
  mutable cardinal : int;
}

let new_node () = { value = None; zero = None; one = None }

let create () = { root = new_node (); cardinal = 0 }

let child node bit = if bit then node.one else node.zero

let set_child node bit c =
  if bit then node.one <- c else node.zero <- c

let insert t prefix v =
  let addr = Prefix.network prefix in
  let len = Prefix.length prefix in
  let rec walk node depth =
    if depth = len then begin
      if Option.is_none node.value then t.cardinal <- t.cardinal + 1;
      node.value <- Some v
    end
    else begin
      let bit = Ipv4.bit addr depth in
      let next =
        match child node bit with
        | Some c -> c
        | None ->
          let c = new_node () in
          set_child node bit (Some c);
          c
      in
      walk next (depth + 1)
    end
  in
  walk t.root 0

(* Removal prunes now-empty branches on the way back up so long runs of
   insert/remove (BGP churn) do not leak nodes. *)
let remove t prefix =
  let addr = Prefix.network prefix in
  let len = Prefix.length prefix in
  let rec walk node depth =
    (* Returns [true] when [node] became empty and can be detached. *)
    if depth = len then begin
      if Option.is_some node.value then begin
        t.cardinal <- t.cardinal - 1;
        node.value <- None
      end;
      Option.is_none node.value && Option.is_none node.zero
      && Option.is_none node.one
    end
    else begin
      let bit = Ipv4.bit addr depth in
      match child node bit with
      | None -> false
      | Some c ->
        let prune = walk c (depth + 1) in
        if prune then set_child node bit None;
        Option.is_none node.value && Option.is_none node.zero
        && Option.is_none node.one
    end
  in
  ignore (walk t.root 0)

let find_exact t prefix =
  let addr = Prefix.network prefix in
  let len = Prefix.length prefix in
  let rec walk node depth =
    if depth = len then node.value
    else
      match child node (Ipv4.bit addr depth) with
      | None -> None
      | Some c -> walk c (depth + 1)
  in
  walk t.root 0

let lookup t addr =
  let rec walk node depth best =
    let best =
      match node.value with
      | Some v -> Some (Prefix.make addr depth, v)
      | None -> best
    in
    if depth = 32 then best
    else
      match child node (Ipv4.bit addr depth) with
      | None -> best
      | Some c -> walk c (depth + 1) best
  in
  walk t.root 0 None

(* Constrained longest-match: the replacement query the flat FIB needs
   when a removal vacates expanded slots. Only prefixes whose length
   falls in [lo, hi] are candidates, and the winner's length comes back
   alongside the value so the caller can re-stamp the slot. *)
let best_in_range t addr ~lo ~hi =
  let rec walk node depth best =
    let best =
      if depth >= lo then
        match node.value with Some v -> Some (depth, v) | None -> best
      else best
    in
    if depth = hi then best
    else
      match child node (Ipv4.bit addr depth) with
      | None -> best
      | Some c -> walk c (depth + 1) best
  in
  walk t.root 0 None

let iter t f =
  (* Reconstructs each prefix from the path; [bits] accumulates the path
     as an address value built most-significant-bit first. *)
  let rec walk node depth bits =
    (match node.value with
    | Some v -> f (Prefix.make (Ipv4.of_int bits) depth) v
    | None -> ());
    (match node.zero with
    | Some c -> walk c (depth + 1) bits
    | None -> ());
    match node.one with
    | Some c -> walk c (depth + 1) (bits lor (1 lsl (31 - depth)))
    | None -> ()
  in
  walk t.root 0 0

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun p v -> acc := f !acc p v);
  !acc

let to_list t =
  List.rev (fold t ~init:[] ~f:(fun acc p v -> (p, v) :: acc))

let cardinal t = t.cardinal
let is_empty t = t.cardinal = 0

let clear t =
  t.root <- new_node ();
  t.cardinal <- 0
