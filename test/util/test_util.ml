(* Shared helpers for the test suites: string search/replace (no
   external string library) and the persistence fault seam. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else go (i + 1)
  in
  nn = 0 || go 0

(* A path relative to the running test executable's directory
   (_build/default/test/), so a suite passes from any working directory,
   not only from dune's. *)
let beside_test path = Filename.concat (Filename.dirname Sys.executable_name) path

let cli_binary = beside_test "../bin/randsync_cli.exe"

(* replace the first occurrence of [sub] with [by]; the haystack unchanged
   when [sub] does not occur *)
let replace_first ~sub ~by s =
  let ns = String.length s and nn = String.length sub in
  let rec go i =
    if nn = 0 || i + nn > ns then s
    else if String.sub s i nn = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + nn) (ns - i - nn)
    else go (i + 1)
  in
  go 0

module Fault = Robust.Persist.Fault

let disarm_fault () = Fault.hook := fun _ -> None

(* fail the [nth] [op] of [Persist.write] from now with [kind]; a short
   write fills the disk, so the write that continues it hits ENOSPC.
   Returns whether the fault fired. *)
let arm_fault op ~nth kind =
  let seen = ref 0 and fired = ref false and full = ref false in
  (Fault.hook :=
     fun o ->
       if o = Fault.Write && !full then Some Fault.Enospc
       else if o <> op then None
       else begin
         incr seen;
         if !seen <> nth then None
         else begin
           fired := true;
           full := kind = Fault.Short_write;
           Some kind
         end
       end);
  fired
