(* One immediate int: the network address above six bits of mask
   length. [Int.compare] on the packed value is therefore the order by
   (unsigned network, length). *)
type t = int

let length_bits = 6
let length_mask = (1 lsl length_bits) - 1

let mask_of_length len =
  if len = 0 then 0 else (0xFFFF_FFFF lsl (32 - len)) land 0xFFFF_FFFF

let net t = t lsr length_bits

let make addr len =
  if len < 0 || len > 32 then invalid_arg "Prefix.make: length out of range";
  ((Ipv4.to_int addr land mask_of_length len) lsl length_bits) lor len

let of_string s =
  let fail () = Error (Printf.sprintf "invalid prefix %S" s) in
  match String.index_opt s '/' with
  | None -> fail ()
  | Some i ->
    let addr_part = String.sub s 0 i in
    let len_part = String.sub s (i + 1) (String.length s - i - 1) in
    (match Ipv4.of_string addr_part, int_of_string_opt len_part with
    | Ok addr, Some len when len >= 0 && len <= 32 -> Ok (make addr len)
    | _ -> fail ())

let v s =
  match of_string s with Ok t -> t | Error msg -> invalid_arg msg

let network t = Ipv4.of_int (net t)
let length t = t land length_mask

let to_string t = Printf.sprintf "%s/%d" (Ipv4.to_string (network t)) (length t)

let mem addr t = Ipv4.to_int addr land mask_of_length (length t) = net t

let subset inner outer =
  length inner >= length outer && mem (network inner) outer

let first = network

let last t = Ipv4.of_int (net t lor (lnot (mask_of_length (length t)) land 0xFFFF_FFFF))

let size t =
  let len = length t in
  if len = 0 then max_int else 1 lsl (32 - len)

let nth t i =
  if i < 0 || (length t > 0 && i >= size t) then invalid_arg "Prefix.nth";
  Ipv4.add (network t) i

let default_route = make Ipv4.any 0

let compare = Int.compare
let equal = Int.equal

(* Mix the address bits down into the low bits: Hashtbl masks the hash
   with (bucket count - 1), and real routing tables are /24-heavy, so a
   plain [addr * 33 + len] leaves the masked bits nearly constant and
   degenerates the table into a handful of very long chains. *)
let hash t =
  let h = (Ipv4.hash (network t) * 0x9E3779B1) lxor (length t * 0x85EBCA6B) in
  (h lxor (h lsr 16)) land max_int

let pp ppf t = Format.pp_print_string ppf (to_string t)
