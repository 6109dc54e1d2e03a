type counter = { mutable n : int }
type gauge = { mutable v : float }

type t = {
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
}

let create () =
  { counters = Hashtbl.create 16; gauges = Hashtbl.create 16; histograms = Hashtbl.create 16 }

let get_or_create table name make =
  match Hashtbl.find_opt table name with
  | Some x -> x
  | None ->
    let x = make () in
    Hashtbl.add table name x;
    x

let counter t name = get_or_create t.counters name (fun () -> { n = 0 })
let incr ?(by = 1) c = c.n <- c.n + by
let counter_value c = c.n

let gauge t name = get_or_create t.gauges name (fun () -> { v = 0.0 })
let set g v = g.v <- v
let add g v = g.v <- g.v +. v

let histogram t name = get_or_create t.histograms name (fun () -> Histogram.create ())

let find_counter t name =
  Option.map (fun c -> c.n) (Hashtbl.find_opt t.counters name)

let find_gauge t name = Option.map (fun g -> g.v) (Hashtbl.find_opt t.gauges name)
let find_histogram t name = Hashtbl.find_opt t.histograms name

module Scope = struct
  type registry = t
  type nonrec t = { registry : registry; prefix : string }

  let v registry prefix = { registry; prefix }
  let full t name = t.prefix ^ "." ^ name
  let counter t name = counter t.registry (full t name)
  let gauge t name = gauge t.registry (full t name)

  let histogram t name = histogram t.registry (full t name)
end

let sorted_keys table =
  List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) table [])

let to_json t =
  let members table value =
    List.map (fun k -> (k, value (Hashtbl.find table k))) (sorted_keys table)
  in
  Json.Obj
    [
      ("counters", Json.Obj (members t.counters (fun c -> Json.Int c.n)));
      ("gauges", Json.Obj (members t.gauges (fun g -> Json.Float g.v)));
      ("histograms", Json.Obj (members t.histograms Histogram.to_json));
    ]

let pp ppf t =
  List.iter
    (fun k -> Fmt.pf ppf "%s: %d@." k (Hashtbl.find t.counters k).n)
    (sorted_keys t.counters);
  List.iter
    (fun k -> Fmt.pf ppf "%s: %g@." k (Hashtbl.find t.gauges k).v)
    (sorted_keys t.gauges);
  List.iter
    (fun k -> Fmt.pf ppf "%s: %a@." k Histogram.pp (Hashtbl.find t.histograms k))
    (sorted_keys t.histograms)
