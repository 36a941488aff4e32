exception Corrupt of string

let u8 b v = Buffer.add_uint8 b (v land 0xFF)
let u16 b v = Buffer.add_uint16_le b (v land 0xFFFF)
let u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let u64 b v = Buffer.add_int64_le b (Int64.of_int v)

let str16 b s =
  if String.length s > 0xFFFF then invalid_arg "Binio.str16: too long";
  u16 b (String.length s);
  Buffer.add_string b s

type cursor = { buf : bytes; mutable pos : int }

let cursor buf = { buf; pos = 0 }
let pos c = c.pos

let need c n = if c.pos + n > Bytes.length c.buf then raise (Corrupt "truncated")

let read_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.buf c.pos in
  c.pos <- c.pos + 1;
  v

let read_u16 c =
  need c 2;
  let v = Bytes.get_uint16_le c.buf c.pos in
  c.pos <- c.pos + 2;
  v

let read_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.pos) land 0xFFFFFFFF in
  c.pos <- c.pos + 4;
  v

let read_u64 c =
  need c 8;
  let v = Int64.to_int (Bytes.get_int64_le c.buf c.pos) in
  c.pos <- c.pos + 8;
  v

let read_str16 c =
  let n = read_u16 c in
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let read_f64 c =
  need c 8;
  let v = Int64.float_of_bits (Bytes.get_int64_le c.buf c.pos) in
  c.pos <- c.pos + 8;
  v

let remaining c = Bytes.length c.buf - c.pos
