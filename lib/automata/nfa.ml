type t = {
  labels : Charclass.t array;
  succs : int array array;
  preds : int array array;
  initial : bool array;
  finals : bool array;
  accepts_empty : bool;
}

let num_states t = Array.length t.labels

let make ~labels ~edges ~initial ~finals ~accepts_empty =
  let n = Array.length labels in
  let check q = if q < 0 || q >= n then invalid_arg "Nfa.make: state out of range" in
  List.iter
    (fun (p, q) ->
      check p;
      check q)
    edges;
  List.iter check initial;
  List.iter check finals;
  let succ_lists = Array.make n [] and pred_lists = Array.make n [] in
  List.iter
    (fun (p, q) ->
      succ_lists.(p) <- q :: succ_lists.(p);
      pred_lists.(q) <- p :: pred_lists.(q))
    edges;
  let finish l = Array.of_list (List.sort_uniq Int.compare l) in
  let initial_arr = Array.make n false and final_arr = Array.make n false in
  List.iter (fun q -> initial_arr.(q) <- true) initial;
  List.iter (fun q -> final_arr.(q) <- true) finals;
  {
    labels;
    succs = Array.map finish succ_lists;
    preds = Array.map finish pred_lists;
    initial = initial_arr;
    finals = final_arr;
    accepts_empty;
  }

type run = { match_ends : int list; active_per_step : int array }

(* Active/next state sets are packed bit vectors; [st_count] is the
   number of active states after the last symbol. *)
type stepper = {
  st_active : Bitvec.t;
  st_next : Bitvec.t;
  st_anchored : bool;
  mutable st_pos : int;
  mutable st_count : int;
}

let stepper ?(anchored_start = false) t =
  let n = num_states t in
  {
    st_active = Bitvec.create n;
    st_next = Bitvec.create n;
    st_anchored = anchored_start;
    st_pos = 0;
    st_count = 0;
  }

let stepper_step t s c =
  let n = num_states t in
  Bitvec.clear s.st_next;
  let count = ref 0 and hit = ref false in
  for q = 0 to n - 1 do
    if Charclass.mem t.labels.(q) c then begin
      let avail =
        (t.initial.(q) && ((not s.st_anchored) || s.st_pos = 0))
        || Array.exists (fun j -> Bitvec.get s.st_active j) t.preds.(q)
      in
      if avail then begin
        Bitvec.set s.st_next q;
        incr count;
        if t.finals.(q) then hit := true
      end
    end
  done;
  Bitvec.blit ~src:s.st_next ~dst:s.st_active;
  s.st_pos <- s.st_pos + 1;
  s.st_count <- !count;
  !hit

let run ?anchored_start t input =
  let s = stepper ?anchored_start t in
  let len = String.length input in
  let activity = Array.make len 0 in
  let matches = ref [] in
  for p = 0 to len - 1 do
    if stepper_step t s input.[p] then matches := p :: !matches;
    activity.(p) <- s.st_count
  done;
  { match_ends = List.rev !matches; active_per_step = activity }

let match_ends ?anchored_start t input = (run ?anchored_start t input).match_ends

let is_linear t =
  let n = num_states t in
  let initials = ref [] in
  for q = 0 to n - 1 do
    if t.initial.(q) then initials := q :: !initials
  done;
  match !initials with
  | [ q0 ] when Array.length t.preds.(q0) = 0 ->
      (* walk the unique successor chain, requiring in/out degree <= 1 *)
      let order = Array.make n (-1) in
      let visited = Array.make n false in
      let rec walk q i =
        order.(i) <- q;
        visited.(q) <- true;
        match t.succs.(q) with
        | [||] -> Some (i + 1)
        | [| q' |] ->
            if visited.(q') || Array.length t.preds.(q') <> 1 then None else walk q' (i + 1)
        | _ -> None
      in
      (match walk q0 0 with
      | Some len when len = n -> Some order
      | Some _ | None -> None)
  | _ -> None
