val entry_bytes : string -> int -> int option
val read_payload : string -> int -> bytes * int
val assembly_buffer : string -> int -> Buffer.t
