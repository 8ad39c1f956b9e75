(** RFC 4180 CSV cells, shared by every CSV export. *)

(** A field quoted only when it contains a comma, quote or line break, with
    inner quotes doubled — plain numbers pass through unchanged, so
    well-formed existing exports keep their exact bytes. *)
let field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s
  then begin
    let buf = Buffer.create (String.length s + 8) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\""
        else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

(** One CSV line (no trailing newline) from already-stringified cells. *)
let row cells = String.concat "," (List.map field cells)
