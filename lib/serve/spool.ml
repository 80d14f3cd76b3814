type t = { dir : string }

let fail path op err = raise (Robust.Persist.Error { path; op; err })

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    | Unix.Unix_error (err, _, _) -> fail dir "mkdir" err
  end

let create ~dir =
  mkdir_p dir;
  if not (Sys.is_directory dir) then fail dir "mkdir" Unix.ENOTDIR;
  { dir }

(* Sys.readdir's Sys_error carries no errno; Unix's carries one *)
let readdir dir =
  match Unix.opendir dir with
  | exception Unix.Unix_error (err, _, _) -> fail dir "readdir" err
  | d ->
      let rec go acc =
        match Unix.readdir d with
        | name -> go (name :: acc)
        | exception End_of_file -> acc
        | exception Unix.Unix_error (err, _, _) -> fail dir "readdir" err
      in
      Fun.protect ~finally:(fun () -> Unix.closedir d) (fun () -> go [])

let dir t = t.dir

let job_path t id = Filename.concat t.dir (Printf.sprintf "job-%d.json" id)

let verdict_path t id =
  Filename.concat t.dir (Printf.sprintf "job-%d.verdict" id)

let cancelled_path t id =
  Filename.concat t.dir (Printf.sprintf "job-%d.cancelled" id)

let checkpoint_path t ~id =
  Filename.concat t.dir (Printf.sprintf "job-%d.ckpt" id)

(* plain JSON (perfbench and users read it), written durably: readers
   and a post-crash recover see the old bytes or the new, never a
   prefix *)
let add t ~id job =
  Robust.Persist.write ~path:(job_path t id)
    (Json.to_string (Job.to_json job) ^ "\n")

let record_verdict t ~id outcome =
  Robust.Persist.write ~path:(verdict_path t id)
    (Json.to_string (Job.outcome_to_json ~id outcome) ^ "\n")

let mark_cancelled t ~id =
  Robust.Persist.write ~path:(cancelled_path t id) "cancelled\n"

type entry = {
  id : int;
  job : Job.t;
  fate : [ `Pending | `Finished of Job.outcome | `Cancelled ];
}

type recovered = { entries : entry list; next_id : int }

let skip id path msg =
  Printf.eprintf "spool: skipping job %d (%s): %s\n%!" id path msg

let load_json path decode =
  match Json.parse (String.trim (Robust.Persist.read ~path)) with
  | Ok j -> decode j
  | Error e -> Error e
  | exception Robust.Persist.Error e -> Error (Robust.Persist.error_message e)

let recover t =
  let ids =
    List.filter_map
      (fun name -> Scanf.sscanf_opt name "job-%d.json%!" (fun id -> id))
      (readdir t.dir)
    |> List.sort compare
  in
  let entries = ref [] in
  let next_id = ref 1 in
  List.iter
    (fun id ->
      if id >= !next_id then next_id := id + 1;
      match load_json (job_path t id) Job.of_json with
      | Error e -> skip id (job_path t id) e
      | Ok job ->
          if Sys.file_exists (cancelled_path t id) then
            entries := { id; job; fate = `Cancelled } :: !entries
          else if Sys.file_exists (verdict_path t id) then begin
            match
              load_json (verdict_path t id) (fun j ->
                  Result.map snd (Job.outcome_of_json j))
            with
            | Ok outcome ->
                entries := { id; job; fate = `Finished outcome } :: !entries
            | Error e ->
                (* a torn verdict cannot happen (atomic rename), but a
                   corrupt one degrades to re-running the job *)
                skip id (verdict_path t id) e;
                entries := { id; job; fate = `Pending } :: !entries
          end
          else entries := { id; job; fate = `Pending } :: !entries)
    ids;
  { entries = List.rev !entries; next_id = !next_id }
