(* Trees as path-sorted [(path, content)] lists, on disk and in memory. *)

let equal a b =
  List.equal
    (fun (p1, c1) (p2, c2) -> String.equal p1 p2 && String.equal c1 c2)
    a b

let bytes files = List.fold_left (fun acc (_, c) -> acc + String.length c) 0 files

let sorted files = List.sort (fun (a, _) (b, _) -> String.compare a b) files

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p dir = Fsync_store.Io.mkdir_p Fsync_store.Io.real dir

let write_tree root tree =
  List.iter
    (fun (path, content) ->
      let dest = Filename.concat root path in
      mkdir_p (Filename.dirname dest);
      Out_channel.with_open_bin dest (fun oc -> output_string oc content))
    tree

(* Every regular file under [root], read straight from disk, except the
   swarm's own [.fsync-swarm] state directory. *)
let read_tree root =
  let rec walk rel acc =
    let dir = if String.equal rel "" then root else Filename.concat root rel in
    Array.fold_left
      (fun acc name ->
        let r = if String.equal rel "" then name else Filename.concat rel name in
        let full = Filename.concat root r in
        if Sys.is_directory full then
          if String.equal r ".fsync-swarm" then acc else walk r acc
        else (r, In_channel.with_open_bin full In_channel.input_all) :: acc)
      acc (Sys.readdir dir)
  in
  sorted (walk "" [])

(* [--corrupt-replica]: damage the first replica that gets checked, so
   a run can show that the output check catches it. *)
let corrupt = ref false

let take_corruption () =
  let c = !corrupt in
  corrupt := false;
  c

let damage files =
  if not (take_corruption ()) then files
  else
    match files with
    | (p, c) :: rest -> (p, c ^ "\000") :: rest
    | [] -> [ ("corrupt", "") ]
