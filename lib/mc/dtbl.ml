(* Two-tier transposition table for the sharded frontier (DESIGN.md §4j):
   a bounded in-memory hot cache over an append-only on-disk log of
   canonical-key records.

   The key ([Skey]) is the engine- and intern-table-independent
   serialization of a configuration — per-process fingerprints (sorted
   under symmetric dedup) plus decoded object values — so records written
   by one domain, or one run, mean the same thing to every other.  The
   value is the same packed meta word the in-memory [Ptbl] stores:
   [((remaining_depth + 1) lsl 1) lor complete].  Metas only ever grow
   under [merge_meta], and a smaller-than-known meta is merely
   conservative for the search (less pruning, never a wrong verdict), so
   losing a record can cost time but not soundness; this module
   nevertheless promises not to lose any — [find] is exactly the
   max-merge of every [set] — because the property tests pin it.

   On-disk v1 format, written with [Robust.Persist.write] (durable
   tmp+rename) at creation and compaction and plain appends in between:

     randsync-dtbl v1
     e <hash> <nfps> <fp> ... <nobjs> <value> ... <meta> ;

   One record per line, single-space separated, terminated by a literal
   [;] token.  The sentinel makes every strict byte prefix of a record
   unparseable, and the stored hash is recomputed from the decoded key
   and compared, so interior bitrot is also loud — the same
   "prefix parses only if it decodes to the original" rule the schedule
   and checkpoint codecs obey, swept by [test_codec_torture].

   Crash recovery: appends are sequential, so a torn write is always a
   suffix of the file.  On open, every newline-terminated line must parse
   (a complete line that does not is real corruption and raises
   [Trace_io.Parse_error]); a non-empty final fragment without its
   newline is the kill -9 signature — it is dropped, the file is
   atomically rewritten to the valid prefix, and the loss is reported on
   stderr and in [stats].

   Instances are not thread-safe: the sharded searcher guards each
   shard's table with that shard's lock. *)

open Sim

let header = "randsync-dtbl v1"

module Skey = struct
  type t = { hash : int; fps : int array; objs : Value.t array }

  (* same mixing chain as [Explore.key_of_config], so the closure and
     flat engines derive identical hashes for identical states *)
  let hash_of ~fps ~objs =
    let h = ref (Array.length fps) in
    Array.iter (fun fp -> h := Fingerprint.mix !h fp) fps;
    Array.iter (fun v -> h := Fingerprint.mix !h (Fingerprint.value_hash v)) objs;
    !h

  let make ~fps ~objs = { hash = hash_of ~fps ~objs; fps; objs }

  let equal a b =
    a.hash = b.hash
    && Array.length a.fps = Array.length b.fps
    && Array.length a.objs = Array.length b.objs
    &&
    let ok = ref true in
    Array.iteri (fun i fp -> if fp <> b.fps.(i) then ok := false) a.fps;
    Array.iteri (fun i v -> if not (Value.equal v b.objs.(i)) then ok := false) a.objs;
    !ok
end

module H = Hashtbl.Make (struct
  type t = Skey.t

  let equal = Skey.equal
  let hash (k : Skey.t) = k.Skey.hash land max_int
end)

let merge_meta a b = (max (a lsr 1) (b lsr 1) lsl 1) lor ((a lor b) land 1)

let parse_error fmt = Printf.ksprintf (fun s -> raise (Trace_io.Parse_error s)) fmt

let record_to_line (k : Skey.t) meta =
  let buf = Buffer.create 64 in
  Buffer.add_string buf "e ";
  Buffer.add_string buf (string_of_int k.Skey.hash);
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (Array.length k.Skey.fps));
  Array.iter
    (fun fp ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int fp))
    k.Skey.fps;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int (Array.length k.Skey.objs));
  Array.iter
    (fun v ->
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Trace_io.encode_value v))
    k.Skey.objs;
  Buffer.add_char buf ' ';
  Buffer.add_string buf (string_of_int meta);
  Buffer.add_string buf " ;";
  Buffer.contents buf

let int_of_token tok =
  match int_of_string_opt tok with
  | Some n -> n
  | None -> parse_error "dtbl: bad integer %S" tok

let record_of_line line =
  match String.split_on_char ' ' line with
  | "e" :: hash :: nfps :: rest -> (
      let hash = int_of_token hash in
      let nfps = int_of_token nfps in
      if nfps < 0 || nfps > List.length rest then
        parse_error "dtbl: bad fingerprint count %d" nfps;
      let fps = Array.make nfps 0 in
      let rest = ref rest in
      for i = 0 to nfps - 1 do
        match !rest with
        | tok :: tl ->
            fps.(i) <- int_of_token tok;
            rest := tl
        | [] -> assert false
      done;
      match !rest with
      | nobjs :: rest -> (
          let nobjs = int_of_token nobjs in
          if nobjs < 0 || nobjs > List.length rest then
            parse_error "dtbl: bad object count %d" nobjs;
          let objs = Array.make nobjs Value.Unit in
          let rest = ref rest in
          for i = 0 to nobjs - 1 do
            match !rest with
            | tok :: tl ->
                objs.(i) <- Trace_io.decode_value tok;
                rest := tl
            | [] -> assert false
          done;
          match !rest with
          | [ meta; ";" ] ->
              let meta = int_of_token meta in
              if meta < 0 then parse_error "dtbl: negative meta %d" meta;
              let k = Skey.make ~fps ~objs in
              if k.Skey.hash <> hash then
                parse_error "dtbl: key hash mismatch (stored %d, computed %d)"
                  hash k.Skey.hash;
              (k, meta)
          | _ -> parse_error "dtbl: missing record sentinel")
      | [] -> parse_error "dtbl: truncated record")
  | _ -> parse_error "dtbl: malformed record %S" line

type stats = {
  hits : int;
  misses : int;
  spills : int;
  compactions : int;
  disk_records : int;
  mem_entries : int;
  recovered : int;
  lost_tail : bool;
}

type disk = {
  path : string;
  mutable oc : out_channel;
  mutable ic : in_channel;
  (* skey hash -> (offset, length) of every record with that hash, newest
     first; multiple live records per key are merged at lookup and folded
     into one at compaction *)
  index : (int, (int * int) list) Hashtbl.t;
  mutable tail : int;  (* byte offset of the next append *)
  mutable records : int;
  mutable compact_at : int;
}

type t = {
  mem_limit : int;
  hot : int H.t;
  disk : disk option;
  mutable hits : int;
  mutable misses : int;
  mutable spills : int;
  mutable compactions : int;
  mutable recovered : int;
  mutable lost_tail : bool;
  mutable closed : bool;
}

let compact_base mem_limit = 8 * max 256 (min mem_limit 65536)

let reopen_channels d =
  d.oc <- open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 d.path;
  d.ic <- open_in_bin d.path

(* Scan the whole file, returning the parsed records with their byte
   extents and the length of the valid newline-terminated prefix; a
   non-empty unterminated tail is the crash signature and is reported to
   the caller rather than raised. *)
let scan_log content =
  let len = String.length content in
  let records = ref [] in
  let pos = ref 0 in
  let saw_header = ref false in
  let valid = ref 0 in
  (try
     while !pos < len do
       match String.index_from_opt content !pos '\n' with
       | None -> raise Exit (* unterminated tail *)
       | Some nl ->
           let line = String.sub content !pos (nl - !pos) in
           if not !saw_header then
             if line = header then saw_header := true
             else parse_error "dtbl: bad header %S (want %S)" line header
           else begin
             let k, meta = record_of_line line in
             records := (k, meta, !pos, nl - !pos) :: !records
           end;
           pos := nl + 1;
           valid := !pos
     done
   with Exit -> ());
  (!saw_header, List.rev !records, !valid, len - !valid)

let open_disk t path =
  let content = if Sys.file_exists path then Robust.Persist.read ~path else "" in
  let fresh () = Robust.Persist.write ~path (header ^ "\n") in
  let saw_header, records, valid, torn =
    if content = "" then (false, [], 0, 0) else scan_log content
  in
  if not saw_header then begin
    (* empty, brand new, or a header torn mid-write: nothing recoverable *)
    if torn > 0 then begin
      Printf.eprintf
        "randsync: dtbl %s: torn header (%d bytes), starting empty\n%!" path
        torn;
      t.lost_tail <- true
    end;
    fresh ()
  end
  else if torn > 0 then begin
    Printf.eprintf
      "randsync: dtbl %s: dropping %d-byte torn tail, keeping %d records\n%!"
      path (String.length content - valid) (List.length records);
    t.lost_tail <- true;
    Robust.Persist.write ~path (String.sub content 0 valid)
  end;
  let index = Hashtbl.create 1024 in
  List.iter
    (fun ((k : Skey.t), _meta, off, len) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt index k.Skey.hash) in
      Hashtbl.replace index k.Skey.hash ((off, len) :: prev))
    records;
  t.recovered <- List.length records;
  let d =
    {
      path;
      oc = stdout (* replaced below *);
      ic = stdin;
      index;
      tail = (if saw_header then valid else String.length header + 1);
      records = List.length records;
      compact_at = compact_base t.mem_limit + (2 * List.length records);
    }
  in
  reopen_channels d;
  d

let create ?path ?mem_entries () =
  let mem_limit =
    match (path, mem_entries) with
    (* without a log to spill to, a cap would silently drop entries;
       unbounded is the only lossless choice *)
    | None, _ | _, None -> max_int
    | Some _, Some n -> max 1 n
  in
  let t =
    {
      mem_limit;
      hot = H.create 1024;
      disk = None;
      hits = 0;
      misses = 0;
      spills = 0;
      compactions = 0;
      recovered = 0;
      lost_tail = false;
      closed = false;
    }
  in
  match path with
  | None -> t
  | Some path ->
      (* bind before the copy: [open_disk] mutates [t.recovered] and
         [t.lost_tail], and the field reads of [{t with ...}] are not
         ordered relative to the [disk] expression *)
      let d = open_disk t path in
      { t with disk = Some d }

let read_record d ~off ~len =
  seek_in d.ic off;
  let line = really_input_string d.ic len in
  record_of_line line

let disk_find t k =
  match t.disk with
  | None -> None
  | Some d -> (
      match Hashtbl.find_opt d.index k.Skey.hash with
      | None -> None
      | Some extents ->
          List.fold_left
            (fun acc (off, len) ->
              let k', meta = read_record d ~off ~len in
              if Skey.equal k k' then
                Some (match acc with None -> meta | Some m -> merge_meta m meta)
              else acc)
            None extents)

let append_record d k meta =
  let line = record_to_line k meta in
  output_string d.oc line;
  output_char d.oc '\n';
  let off = d.tail and len = String.length line in
  d.tail <- d.tail + len + 1;
  let prev = Option.value ~default:[] (Hashtbl.find_opt d.index k.Skey.hash) in
  Hashtbl.replace d.index k.Skey.hash ((off, len) :: prev);
  d.records <- d.records + 1

let compact t =
  match t.disk with
  | None -> ()
  | Some d ->
      flush d.oc;
      let content = Robust.Persist.read ~path:d.path in
      let _, records, _, torn = scan_log content in
      if torn > 0 then
        (* appends happen through [d.oc] only, always whole records *)
        parse_error "dtbl: %s grew a torn tail while open" d.path;
      let merged = H.create (List.length records) in
      List.iter
        (fun (k, meta, _, _) ->
          let meta =
            match H.find_opt merged k with
            | None -> meta
            | Some m -> merge_meta m meta
          in
          H.replace merged k meta)
        records;
      let buf = Buffer.create (String.length content) in
      Buffer.add_string buf header;
      Buffer.add_char buf '\n';
      Hashtbl.reset d.index;
      d.records <- 0;
      H.iter
        (fun k meta ->
          let line = record_to_line k meta in
          let off = Buffer.length buf and len = String.length line in
          Buffer.add_string buf line;
          Buffer.add_char buf '\n';
          let prev =
            Option.value ~default:[] (Hashtbl.find_opt d.index k.Skey.hash)
          in
          Hashtbl.replace d.index k.Skey.hash ((off, len) :: prev);
          d.records <- d.records + 1)
        merged;
      close_out d.oc;
      close_in d.ic;
      Robust.Persist.write ~path:d.path (Buffer.contents buf);
      d.tail <- Buffer.length buf;
      reopen_channels d;
      d.compact_at <- compact_base t.mem_limit + (2 * d.records);
      t.compactions <- t.compactions + 1

let spill t =
  match t.disk with
  | None -> ()
  | Some d ->
      H.iter (fun k meta -> append_record d k meta) t.hot;
      flush d.oc;
      H.reset t.hot;
      t.spills <- t.spills + 1;
      if d.records > d.compact_at then compact t

let put_hot t k meta =
  H.replace t.hot k meta;
  if H.length t.hot > t.mem_limit then spill t

let find t k =
  match H.find_opt t.hot k with
  | Some m ->
      t.hits <- t.hits + 1;
      Some m
  | None -> (
      match disk_find t k with
      | Some m ->
          t.hits <- t.hits + 1;
          (* promote: repeated probes of a spilled hot key must not pay
             the log walk every time *)
          put_hot t k m;
          Some m
      | None ->
          t.misses <- t.misses + 1;
          None)

let set t k meta =
  let meta =
    match H.find_opt t.hot k with
    | Some m -> merge_meta m meta
    | None -> (
        (* merge any spilled record so [find] stays the max-merge of
           every [set] even across evictions *)
        match disk_find t k with None -> meta | Some m -> merge_meta m meta)
  in
  put_hot t k meta

let flush t = match t.disk with None -> () | Some d -> flush d.oc

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.disk with
    | None -> ()
    | Some d ->
        (* persist the hot tier so a reopened table still answers
           everything this one knew *)
        H.iter (fun k meta -> append_record d k meta) t.hot;
        H.reset t.hot;
        Stdlib.flush d.oc;
        close_out d.oc;
        close_in d.ic
  end

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    spills = t.spills;
    compactions = t.compactions;
    disk_records = (match t.disk with None -> 0 | Some d -> d.records);
    mem_entries = H.length t.hot;
    recovered = t.recovered;
    lost_tail = t.lost_tail;
  }
