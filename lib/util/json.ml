(* Minimal JSON, stdlib only: the wire format of the optimisation service
   and the writer behind `lint --json`, postmortem bundles and
   perfbench's results.

   Integers and floats are kept apart ([Int] never silently becomes
   [Float]) so protocol fields like latencies stay exact; [to_float]
   accepts either.  The printer emits valid JSON (floats always carry a
   '.' or exponent) and the parser accepts exactly RFC 8259 minus the
   corner we never produce: numbers outside native int/float range. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------ print ------------------------------ *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to_string f =
  match Float.classify_float f with
  | FP_nan | FP_infinite ->
      (* nan/inf are not JSON; emit null rather than an unparsable token *)
      "null"
  | _ ->
      let s = Printf.sprintf "%.12g" f in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
      else s ^ ".0"

let rec write ~indent ~level buf j =
  let pad n = Buffer.add_string buf (String.make (n * indent) ' ') in
  let newline () = if indent > 0 then Buffer.add_char buf '\n' in
  let comma_sep write_item items =
    newline ();
    List.iteri
      (fun i x ->
        if i > 0 then begin
          Buffer.add_char buf ',';
          newline ()
        end;
        pad (level + 1);
        write_item x)
      items;
    newline ();
    pad level
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_to_string f)
  | String s -> escape_to buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      comma_sep (write ~indent ~level:(level + 1) buf) items;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
      Buffer.add_char buf '{';
      comma_sep
        (fun (k, v) ->
          escape_to buf k;
          Buffer.add_string buf (if indent > 0 then ": " else ":");
          write ~indent ~level:(level + 1) buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string ?(pretty = false) j =
  let buf = Buffer.create 256 in
  write ~indent:(if pretty then 2 else 0) ~level:0 buf j;
  Buffer.contents buf

let pp ppf j = Format.pp_print_string ppf (to_string ~pretty:true j)

(* ------------------------------ parse ------------------------------ *)

exception Parse_error of int * string

let parse_fail pos fmt =
  Format.kasprintf (fun m -> raise (Parse_error (pos, m))) fmt

let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> parse_fail !pos "expected %C, got %C" c c'
    | None -> parse_fail !pos "expected %C, got end of input" c
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else parse_fail !pos "invalid literal"
  in
  let utf8_of_code buf code =
    (* encode a BMP code point; surrogate pairs are combined by the caller *)
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let hex4 () =
    if !pos + 4 > n then parse_fail !pos "truncated \\u escape";
    let v =
      try int_of_string ("0x" ^ String.sub s !pos 4)
      with _ -> parse_fail !pos "invalid \\u escape"
    in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> parse_fail !pos "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> parse_fail !pos "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'n' -> Buffer.add_char buf '\n'
              | 't' -> Buffer.add_char buf '\t'
              | 'r' -> Buffer.add_char buf '\r'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'u' ->
                  let hi = hex4 () in
                  if hi >= 0xD800 && hi <= 0xDBFF then begin
                    (* surrogate pair *)
                    if
                      !pos + 2 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                    then begin
                      pos := !pos + 2;
                      let lo = hex4 () in
                      if lo < 0xDC00 || lo > 0xDFFF then
                        parse_fail !pos "invalid low surrogate";
                      utf8_of_code buf
                        (0x10000
                        + ((hi - 0xD800) lsl 10)
                        + (lo - 0xDC00))
                    end
                    else parse_fail !pos "lone high surrogate"
                  end
                  else utf8_of_code buf hi
              | c -> parse_fail (!pos - 1) "invalid escape \\%c" c);
              loop ())
      | Some c when Char.code c < 0x20 ->
          parse_fail !pos "raw control character in string"
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      let rec go () =
        match peek () with
        | Some '0' .. '9' ->
            advance ();
            go ()
        | _ -> ()
      in
      go ();
      if !pos = d0 then parse_fail !pos "expected digit"
    in
    let int_start = !pos in
    digits ();
    (* RFC 8259: no leading zeros — "0" is fine, "01" is not *)
    if s.[int_start] = '0' && !pos > int_start + 1 then
      parse_fail int_start "leading zero in number";
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> parse_fail start "bad float %S" text
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          (* integer literal beyond native range: keep the value as float *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> parse_fail start "bad number %S" text)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_fail !pos "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> parse_fail !pos "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                items (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> parse_fail !pos "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> parse_fail !pos "unexpected character %C" c
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then parse_fail !pos "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, m) ->
      Error (Printf.sprintf "json: at offset %d: %s" p m)

(* ---------------------------- accessors ---------------------------- *)

let member name = function Obj kvs -> List.assoc_opt name kvs | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let to_list = function List l -> Some l | _ -> None

let mem_int name j = Option.bind (member name j) to_int

let mem_str name j = Option.bind (member name j) to_str

let mem_bool name j = Option.bind (member name j) to_bool
