type t = int

let mask32 = 0xFFFF_FFFF

let of_int x = x land mask32
let to_int x = x

let of_int32 x = Int32.to_int x land mask32

let to_int32 x = Int32.of_int x

let of_octets a b c d =
  if a < 0 || a > 255 || b < 0 || b > 255 || c < 0 || c > 255 || d < 0 || d > 255
  then invalid_arg "Ipv4.of_octets";
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let to_octets t = ((t lsr 24) land 0xFF, (t lsr 16) land 0xFF, (t lsr 8) land 0xFF, t land 0xFF)

let of_string s =
  let fail () = Error (Printf.sprintf "invalid IPv4 address %S" s) in
  match String.split_on_char '.' s with
  | [a; b; c; d] ->
    let parse_octet o =
      (* Reject empty, signs, and leading-zero ambiguity beyond "0". *)
      if String.length o = 0 || String.length o > 3 then None
      else if String.length o > 1 && o.[0] = '0' then None
      else
        match int_of_string_opt o with
        | Some v when v >= 0 && v <= 255 -> Some v
        | Some _ | None -> None
    in
    (match parse_octet a, parse_octet b, parse_octet c, parse_octet d with
    | Some a, Some b, Some c, Some d -> Ok (of_octets a b c d)
    | _ -> fail ())
  | _ -> fail ()

let of_string_exn s =
  match of_string s with Ok t -> t | Error msg -> invalid_arg msg

let to_string t =
  let a, b, c, d = to_octets t in
  Printf.sprintf "%d.%d.%d.%d" a b c d

let any = 0
let broadcast = mask32

let succ t = (t + 1) land mask32
let add t n = (t + n) land mask32

let diff a b = (a - b) land mask32

let compare = Int.compare
let equal = Int.equal

(* The hash of the address's int32 form: sign-extend bit 31, then clear
   the sign bit. It fixes the bucket layout, and so the iteration order,
   of every [Hashtbl.Make] table keyed on addresses (DESIGN §18). *)
let hash t = ((t lxor 0x8000_0000) - 0x8000_0000) land max_int

let bit t i =
  if i < 0 || i > 31 then invalid_arg "Ipv4.bit";
  (t lsr (31 - i)) land 1 = 1

let pp ppf t = Format.pp_print_string ppf (to_string t)
