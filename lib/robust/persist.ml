type error = { path : string; op : string; err : Unix.error }

exception Error of error
exception Parse_error of string

let error_message e =
  Printf.sprintf "%s: %s: %s" e.path e.op (Unix.error_message e.err)

let () =
  Printexc.register_printer (function
    | Error e -> Some (error_message e)
    | Parse_error m -> Some m
    | _ -> None)

module Fault = struct
  type op = Write | Fsync | Rename | Fsync_dir
  type kind = Enospc | Eio | Short_write

  let hook : (op -> kind option) ref = ref (fun _ -> None)
end

let fail_with kind =
  let err = if kind = Fault.Eio then Unix.EIO else Unix.ENOSPC in
  raise (Unix.Unix_error (err, "", ""))

let inject op = Option.iter fail_with (!Fault.hook op)

let rec single_write fd s off len =
  match !Fault.hook Fault.Write with
  | Some Fault.Short_write -> Unix.single_write_substring fd s off (len / 2)
  | Some kind -> fail_with kind
  | None -> (
      try Unix.single_write_substring fd s off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> single_write fd s off len)

let rec write_all fd s off =
  if off < String.length s then
    match single_write fd s off (String.length s - off) with
    (* a regular file accepts no bytes only when it cannot grow *)
    | 0 -> fail_with Fault.Enospc
    | n -> write_all fd s (off + n)

let write ~path contents =
  let tmp = path ^ ".tmp" in
  let op = ref "open" and fd = ref None in
  try
    let d =
      Unix.openfile tmp
        [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ]
        0o644
    in
    fd := Some d;
    op := "write";
    write_all d contents 0;
    op := "fsync";
    inject Fault.Fsync;
    Unix.fsync d;
    op := "close";
    fd := None;
    Unix.close d;
    op := "rename";
    inject Fault.Rename;
    Unix.rename tmp path;
    op := "fsync-dir";
    let dir = Unix.openfile (Filename.dirname path) [ O_RDONLY; O_CLOEXEC ] 0 in
    fd := Some dir;
    inject Fault.Fsync_dir;
    (* EINVAL: a filesystem without directory fsync *)
    (try Unix.fsync dir with Unix.Unix_error (Unix.EINVAL, _, _) -> ());
    fd := None;
    Unix.close dir
  with Unix.Unix_error (err, _, _) ->
    Option.iter (fun d -> try Unix.close d with Unix.Unix_error _ -> ()) !fd;
    (* a failed open created nothing; after the rename [tmp] is gone *)
    if !op <> "open" && !op <> "fsync-dir" then (
      try Unix.unlink tmp with Unix.Unix_error _ -> ());
    raise (Error { path; op = !op; err })

let read ~path =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0
    with Unix.Unix_error (err, _, _) -> raise (Error { path; op = "open"; err })
  in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:close @@ fun () ->
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents buf
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (err, _, _) ->
        raise (Error { path; op = "read"; err })
  in
  go ()

let load ~path decode =
  let text = read ~path in
  try decode text
  with Parse_error m -> raise (Parse_error (path ^ ": parse: " ^ m))

(* ---- frames ---- *)

let parse_error fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let rtrim s =
  let rec keep n =
    if n > 0 && String.contains " \t\r" s.[n - 1] then keep (n - 1) else n
  in
  String.sub s 0 (keep (String.length s))

let trailer lines =
  let body = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  Printf.sprintf "end %d %s" (String.length body)
    (Digest.to_hex (Digest.string body))

let frame ~magic lines =
  if List.exists (fun l -> String.contains l '\n') lines then
    invalid_arg "Persist.frame: a line contains a newline";
  let lines = List.map rtrim lines in
  String.concat "\n" ((magic :: lines) @ [ trailer lines; "" ])

let unframe ~magic text =
  let lines = Array.of_list (List.map rtrim (String.split_on_char '\n' text)) in
  let last = Array.length lines - 1 in
  let t = ref last in
  while !t >= 0 && lines.(!t) = "" do
    decr t
  done;
  if !t < 0 then parse_error "empty file (expected %S)" magic;
  if lines.(0) <> magic then
    parse_error "expected header %S, got %S" magic lines.(0);
  if !t = 0 then parse_error "missing end trailer (truncated file?)";
  if !t = last then parse_error "last line cut short (truncated file?)";
  let body = Array.to_list (Array.sub lines 1 (!t - 1)) in
  if lines.(!t) <> trailer body then
    parse_error "trailer %S does not match the body (truncated or damaged?)"
      lines.(!t);
  body
