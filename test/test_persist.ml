(* The persistence layer.  Fault injection: for every write, fsync,
   rename and directory fsync of a save, and each of ENOSPC, EIO and (for
   writes) a short write, the save fails with a [Persist.Error] naming
   the path and the operation, the previous file is byte-identical, no
   temp file is left and no descriptor leaks.  Frames: every byte prefix
   and every single-byte change of a framed artifact is a loud parse
   error, while CRLF and trailing blanks are not damage. *)

module P = Robust.Persist
module F = Robust.Persist.Fault

let fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let arm = Test_util.arm_fault
let disarm = Test_util.disarm_fault

let with_dir f =
  let dir = Filename.temp_dir "randsync-persist" "" in
  Fun.protect
    ~finally:(fun () ->
      disarm ();
      rm_rf dir)
    (fun () -> f dir)

(* large enough that the write loop needs several write(2) calls *)
let previous = String.make 150_000 'p'
let next = String.init 150_000 (fun i -> Char.chr (97 + (i mod 26)))

let errno = function F.Enospc | F.Short_write -> Unix.ENOSPC | F.Eio -> Unix.EIO

let fault_name = function
  | F.Enospc -> "ENOSPC"
  | F.Eio -> "EIO"
  | F.Short_write -> "short write"

let test_fault_sweep () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "artifact" in
  List.iter
    (fun (op, op_name, kinds) ->
      List.iter
        (fun kind ->
          let rec sweep k =
            P.write ~path previous;
            let fds = fd_count () in
            let fired = arm op ~nth:k kind in
            let case = Printf.sprintf "%s #%d %s" op_name k (fault_name kind) in
            match P.write ~path next with
            | () ->
                disarm ();
                Alcotest.(check bool) (case ^ ": no fault left unfired") false
                  !fired;
                (* every occurrence was exercised, and at least one was *)
                if k = 1 then Alcotest.failf "%s: save never reached it" case;
                if op = F.Write && k < 3 then
                  Alcotest.failf "%s: the write loop ran only %d times" case
                    (k - 1)
            | exception P.Error e ->
                disarm ();
                Alcotest.(check bool) (case ^ ": the fault fired") true !fired;
                Alcotest.(check string) (case ^ ": names the path") path
                  e.path;
                Alcotest.(check string) (case ^ ": names the operation")
                  op_name e.op;
                Alcotest.(check bool) (case ^ ": carries the errno") true
                  (e.err = errno kind);
                (* the directory fsync comes after the rename has landed:
                   the new file is in place, only its durability is in
                   doubt *)
                let expected = if op = F.Fsync_dir then next else previous in
                Alcotest.(check bool) (case ^ ": file intact") true
                  (P.read ~path = expected);
                Alcotest.(check bool) (case ^ ": no temp file") false
                  (Sys.file_exists (path ^ ".tmp"));
                Alcotest.(check int) (case ^ ": no descriptor leaked") fds
                  (fd_count ());
                sweep (k + 1)
          in
          sweep 1)
        kinds)
    [
      (F.Write, "write", [ F.Enospc; F.Eio; F.Short_write ]);
      (F.Fsync, "fsync", [ F.Enospc; F.Eio ]);
      (F.Rename, "rename", [ F.Enospc; F.Eio ]);
      (F.Fsync_dir, "fsync-dir", [ F.Enospc; F.Eio ]);
    ]

(* real failures, no injection: a missing directory and a directory
   where a file should be *)
let test_real_failures () =
  with_dir @@ fun dir ->
  let fds = fd_count () in
  let missing = Filename.concat dir "no/such/file" in
  (match P.write ~path:missing "x" with
  | exception P.Error { path; op = "open"; err = Unix.ENOENT } ->
      Alcotest.(check string) "write names the path" missing path
  | exception P.Error { op; _ } -> Alcotest.failf "write failed at %s" op
  | () -> Alcotest.fail "write into a missing directory succeeded");
  (match P.read ~path:missing with
  | exception P.Error { op = "open"; err = Unix.ENOENT; _ } -> ()
  | exception P.Error { op; _ } -> Alcotest.failf "read failed at %s" op
  | _ -> Alcotest.fail "read of a missing file succeeded");
  (match P.read ~path:dir with
  | exception P.Error { op = "read"; err = Unix.EISDIR; _ } -> ()
  | exception P.Error { op; _ } -> Alcotest.failf "read failed at %s" op
  | _ -> Alcotest.fail "read of a directory succeeded");
  Alcotest.(check int) "no descriptor leaked" fds (fd_count ());
  Alcotest.(check string) "message" "f: rename: Input/output error"
    (P.error_message { path = "f"; op = "rename"; err = Unix.EIO })

let test_load_names_the_path () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "art" in
  P.write ~path "not a frame\n";
  match P.load ~path (P.unframe ~magic:"m v1") with
  | exception P.Parse_error msg ->
      Alcotest.(check bool) "message leads with the path" true
        (String.starts_with ~prefix:(path ^ ": parse: ") msg)
  | _ -> Alcotest.fail "damaged file loaded"

(* ---- frames ---- *)

let magic = "randsync-test v1"
let body = [ "alpha 1"; "beta 22 x"; ""; "gamma" ]

let refused what text =
  match P.unframe ~magic text with
  | exception P.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: silently unframed" what

let test_frame_round_trip () =
  let text = P.frame ~magic body in
  Alcotest.(check (list string)) "round-trips" body (P.unframe ~magic text);
  Alcotest.(check (list string)) "empty body" []
    (P.unframe ~magic (P.frame ~magic []));
  Alcotest.(check (list string)) "lines are right-trimmed" [ "a"; "b" ]
    (P.unframe ~magic (P.frame ~magic [ "a \t"; "b\r" ]));
  let crlf = String.concat "\r\n" (String.split_on_char '\n' text) in
  Alcotest.(check (list string)) "CRLF tolerated" body
    (P.unframe ~magic crlf);
  let padded =
    String.concat "\n"
      (List.map (fun l -> l ^ "  \t") (String.split_on_char '\n' text))
  in
  Alcotest.(check (list string)) "trailing whitespace tolerated" body
    (P.unframe ~magic padded);
  Alcotest.(check (list string)) "blank lines after the trailer" body
    (P.unframe ~magic (text ^ "\n\r\n"));
  refused "another magic" (P.frame ~magic:"randsync-test v2" body);
  refused "two frames" (text ^ text);
  refused "blank line inserted"
    (Test_util.replace_first ~sub:"alpha 1\n" ~by:"alpha 1\n\n" text);
  refused "empty" "";
  match P.frame ~magic [ "two\nlines" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a line with a newline accepted"

let test_frame_damage_sweep () =
  let text = P.frame ~magic body in
  let len = String.length text in
  for n = 0 to len - 1 do
    refused (Printf.sprintf "prefix %d/%d" n len) (String.sub text 0 n)
  done;
  for i = 0 to len - 1 do
    for v = 0 to 255 do
      if Char.chr v <> text.[i] then begin
        let b = Bytes.of_string text in
        Bytes.set b i (Char.chr v);
        refused (Printf.sprintf "byte %d/%d := %#x" i len v) (Bytes.to_string b)
      end
    done
  done

let suite =
  [
    Alcotest.test_case "fault sweep: every write, fsync, rename" `Quick
      test_fault_sweep;
    Alcotest.test_case "real failures name path and operation" `Quick
      test_real_failures;
    Alcotest.test_case "load names the path" `Quick test_load_names_the_path;
    Alcotest.test_case "frame round-trip and tolerance" `Quick
      test_frame_round_trip;
    Alcotest.test_case "frame prefixes and byte changes refused" `Quick
      test_frame_damage_sweep;
  ]
