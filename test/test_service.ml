(* The always-on match service: wire protocol totality and round-trips,
   admission control under overload, deadline enforcement, quarantine,
   crash-recovery spooling, and the latency histogram.  The load-bearing
   property rides PR 5's contract one layer up: whatever the service
   sheds, expires, or replays around them, accepted requests' reports
   are bit-identical to solo [Runner.run] of the same input. *)

open Alcotest

let params = Program.default_params
let rap = Arch.rap ~bv_depth:params.Program.bv_depth
let rules = [ "ab{3,10}c"; "evil.{0,8}sig"; "x[yz]{3,9}w" ]

let placement () =
  let parsed = List.map (fun src -> (src, Parser.parse_exn src)) rules in
  let units, errs = Runner.compile_for rap ~params parsed in
  check int "rules compile" 0 (List.length errs);
  Runner.place rap ~params units

let solo p input = Runner.run ~jobs:1 rap ~params p ~input

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rap-service-test-%d-%d" (Unix.getpid ()) !counter)

let config ?(capacity = 4) ?(quarantine_after = 2) ?state_dir () =
  {
    Admission.default_config with
    Admission.capacity;
    quarantine_after;
    state_dir;
    retries = 0;
    backoff_s = 0.;
  }

let inputs_alphabet = "abcevilsigxyzw "

(* ------------------------------------------------------------------ *)
(* Wire codec *)

let test_wire_request_roundtrip () =
  List.iter
    (fun r ->
      match Wire.decode_request (Wire.encode_request r) with
      | Ok r' -> check bool "request round-trips" true (r = r')
      | Error e -> fail ("request failed to decode: " ^ e))
    [
      Wire.Open { name = "s1"; class_ = Wire.Interactive; deadline_s = Some 0.25 };
      Wire.Open { name = ""; class_ = Wire.Bulk; deadline_s = None };
      Wire.Chunk "payload \x00\xff bytes";
      Wire.Chunk "";
      Wire.Finish;
      Wire.Stats;
      Wire.Ping;
      Wire.Shutdown;
    ]

(* A deadline the scheduler cannot honour is undecodable: NaN compares
   false both ways and infinity never passes, so neither would expire,
   and zero or less would expire the request before it runs. *)
let test_wire_rejects_bad_deadlines () =
  List.iter
    (fun d ->
      match
        Wire.decode_request
          (Wire.encode_request (Wire.Open { name = "s"; class_ = Wire.Bulk; deadline_s = Some d }))
      with
      | Ok _ -> failf "an Open with deadline %h decoded" d
      | Error _ -> ())
    [ Float.nan; Float.infinity; Float.neg_infinity; 0.; -0.; -1. ]

let test_wire_reply_roundtrip () =
  List.iter
    (fun r ->
      match Wire.decode_reply (Wire.encode_reply r) with
      | Ok r' -> check bool "reply round-trips" true (r = r')
      | Error e -> fail ("reply failed to decode: " ^ e))
    [
      Wire.Accepted { id = 42 };
      Wire.Overloaded { depth = 64; capacity = 64; retry_after_s = 0.125 };
      Wire.Quarantined { name = "bad"; faults = 3 };
      Wire.Rejected { reason = "too large" };
      Wire.Report { id = 7; degraded = 2; recovered = false; text = "report\ntext\n" };
      Wire.Report { id = 8; degraded = 0; recovered = true; text = "healed\n" };
      Wire.Failed
        { id = 9; error = Sim_error.Array_timeout { array_id = 1; attempts = 3; deadline_s = 0.1 } };
      Wire.Stats_ok { json = "{}" };
      Wire.Pong;
      Wire.Shutting_down;
    ]

(* The bytes themselves are pinned, not just the round trips: one value
   of every request, reply and error constructor and one spool entry,
   against hex recorded before the three codecs were merged into
   [Codec].  A failure here means deployed clients, daemons or spool
   directories would misread each other. *)
let hex s =
  String.concat ""
    (List.map (Printf.sprintf "%02x") (List.of_seq (Seq.map Char.code (String.to_seq s))))

let pinned_requests =
  [
    ( Wire.Open { name = "req-1"; class_ = Wire.Bulk; deadline_s = Some 1.5 },
      "01050000007265712d310101000000000000f83f" );
    (Wire.Chunk "ab\x00\xff", "0204000000616200ff");
    (Wire.Finish, "03");
    (Wire.Stats, "04");
    (Wire.Ping, "05");
    (Wire.Shutdown, "06");
  ]

let pinned_errors =
  [
    ( Sim_error.Array_crashed { array_id = 3; attempts = 2; detail = "boom" },
      "00030000000200000004000000626f6f6d" );
    ( Sim_error.Array_timeout { array_id = 1; attempts = 4; deadline_s = 0.1 },
      "0101000000040000009a9999999999b93f" );
    ( Sim_error.Checkpoint_corrupt { path = "d/state.ckpt"; detail = "CRC mismatch" },
      "020c000000642f73746174652e636b70740c000000435243206d69736d61746368" );
    (Sim_error.Checkpoint_mismatch { detail = "array count" }, "030b000000617272617920636f756e74");
    (Sim_error.Stream_failed { detail = "eof" }, "0403000000656f66");
    ( Sim_error.Deadline_expired { waited_s = 2.5; deadline_s = -0. },
      "0500000000000004400000000000000080" );
    (Sim_error.Input_too_large { bytes = 0xFFFF_FFFF; limit = 1 lsl 30 }, "06ffffffff00000040");
    ( Sim_error.Integrity_violation { array_id = 2; region = "masks"; detail = "crc" },
      "0702000000050000006d61736b7303000000637263" );
  ]

let pinned_replies =
  [
    (Wire.Accepted { id = 42 }, "812a00000000000000");
    ( Wire.Overloaded { depth = 64; capacity = 64; retry_after_s = 0.125 },
      "824000000040000000000000000000c03f" );
    (Wire.Quarantined { name = "bad"; faults = 3 }, "830300000062616403000000");
    (Wire.Rejected { reason = "too large" }, "8409000000746f6f206c61726765");
    ( Wire.Report { id = 7; degraded = 2; recovered = true; text = "report\n" },
      "8507000000000000000200000001070000007265706f72740a" );
    ( Wire.Failed
        {
          id = 9;
          error = Sim_error.Array_timeout { array_id = 1; attempts = 3; deadline_s = 0.1 };
        },
      "860900000000000000110000000101000000030000009a9999999999b93f" );
    (Wire.Stats_ok { json = "{}" }, "87020000007b7d");
    (Wire.Pong, "88");
    (Wire.Shutting_down, "89");
  ]

let pinned_spool =
  ( {
      Checkpoint.Spool.sp_id = 17;
      sp_name = "s17";
      sp_class = "bulk";
      sp_deadline_s = Some 2.;
      sp_input = "abbbc";
    },
    "52415053504f4f4c014905630029000000000000001100000000000000030000007331370400000062756c6b"
    ^ "010000000000000040050000006162626263" )

let test_codec_bytes_pinned () =
  List.iteri
    (fun i (r, want) ->
      check string (Printf.sprintf "request %d" i) want (hex (Wire.encode_request r)))
    pinned_requests;
  List.iter
    (fun (e, want) -> check string (Sim_error.label e) want (hex (Sim_error.to_wire e)))
    pinned_errors;
  List.iteri
    (fun i (r, want) -> check string (Printf.sprintf "reply %d" i) want (hex (Wire.encode_reply r)))
    pinned_replies;
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let entry, want = pinned_spool in
      Checkpoint.Spool.save ~dir entry;
      let ic = open_in_bin (Checkpoint.Spool.path ~dir ~id:entry.Checkpoint.Spool.sp_id) in
      let bytes = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check string "spool entry file" want (hex bytes))

(* decoders must be total: random bytes never raise, and truncating a
   valid encoding never raises either *)
let prop_wire_decode_total =
  let open QCheck2 in
  Test.make ~count:500 ~name:"wire decoders are total on arbitrary bytes"
    Gen.(string_size ~gen:(Gen.map Char.chr (0 -- 255)) (0 -- 64))
    (fun bytes ->
      (match Wire.decode_request bytes with Ok _ | Error _ -> true)
      && (match Wire.decode_reply bytes with Ok _ | Error _ -> true))

let prop_wire_truncation_is_error =
  let open QCheck2 in
  Test.make ~count:100 ~name:"truncated frames decode to Error, never raise"
    Gen.(pair (0 -- 20) (0 -- 100))
    (fun (id, cut_pct) ->
      let full =
        Wire.encode_reply
          (Wire.Report { id; degraded = 1; recovered = false; text = "some report text" })
      in
      let cut = String.length full * cut_pct / 100 in
      let truncated = String.sub full 0 (min cut (String.length full - 1)) in
      match Wire.decode_reply truncated with Ok _ -> false | Error _ -> true)

(* incremental reader: frames fed a byte at a time come out whole *)
let test_reader_reassembles () =
  let payloads = [ "alpha"; ""; "beta gamma"; String.make 1000 'x' ] in
  let wire = Buffer.create 256 in
  List.iter
    (fun p ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 (Int32.of_int (String.length p));
      Buffer.add_bytes wire hdr;
      Buffer.add_string wire p)
    payloads;
  let r = Wire.create_reader () in
  let got = ref [] in
  String.iter
    (fun c ->
      Wire.reader_feed r (Bytes.make 1 c) 1;
      let rec drain () =
        match Wire.reader_next r with
        | Ok (Some p) ->
            got := p :: !got;
            drain ()
        | Ok None -> ()
        | Error e -> fail e
      in
      drain ())
    (Buffer.contents wire);
  check (list string) "all frames reassembled" payloads (List.rev !got)

let test_reader_oversize () =
  let r = Wire.create_reader ~max_frame:16 () in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 1000l;
  Wire.reader_feed r hdr 4;
  (match Wire.reader_next r with
  | Error _ -> ()
  | Ok _ -> fail "oversized declared length must be an error")

(* The client sends 64 KiB Chunk frames and the daemon reads 64 KiB at a
   time, so almost no feed ends on a frame boundary.  Streaming 4 MiB
   that way, the reader must hand back every payload in order and
   allocate little beyond the payloads themselves: its buffer stays near
   one frame instead of growing with everything the connection sent. *)
let test_reader_buffer_bounded () =
  let slice = 64 * 1024 and frames = 64 in
  let payloads =
    Array.init frames (fun i ->
        Wire.encode_request (Wire.Chunk (String.make slice (Char.chr (65 + (i mod 26))))))
  in
  let wire = Buffer.create (frames * (slice + 64)) in
  Array.iter
    (fun p ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 (Int32.of_int (String.length p));
      Buffer.add_bytes wire hdr;
      Buffer.add_string wire p)
    payloads;
  let wire = Buffer.to_bytes wire in
  let r = Wire.create_reader () in
  let scratch = Bytes.create slice in
  let got = Array.make frames "" and n_got = ref 0 and payload_bytes = ref 0 in
  let rec drain () =
    match Wire.reader_next r with
    | Ok (Some p) ->
        if !n_got < frames then got.(!n_got) <- p;
        incr n_got;
        payload_bytes := !payload_bytes + String.length p;
        drain ()
    | Ok None -> ()
    | Error e -> fail e
  in
  let before = Gc.allocated_bytes () in
  let off = ref 0 in
  while !off < Bytes.length wire do
    let n = min slice (Bytes.length wire - !off) in
    Bytes.blit wire !off scratch 0 n;
    Wire.reader_feed r scratch n;
    drain ();
    off := !off + n
  done;
  let extra = Gc.allocated_bytes () -. before -. float_of_int !payload_bytes in
  check int "every frame handed back" frames !n_got;
  check bool "payloads in order" true (Array.for_all2 String.equal payloads got);
  if extra >= 1048576. then
    failf "reader allocated %.0f bytes beyond the payloads over %d bytes streamed" extra
      (Bytes.length wire)

(* ------------------------------------------------------------------ *)
(* Sim_error wire round-trip *)

let gen_sim_error =
  let open QCheck2.Gen in
  let str = string_size ~gen:printable (0 -- 40) in
  let fin = map (fun f -> if Float.is_nan f then 1.5 else f) float in
  oneof
    [
      map3
        (fun array_id attempts detail -> Sim_error.Array_crashed { array_id; attempts; detail })
        (0 -- 1000) (0 -- 10) str;
      map3
        (fun array_id attempts deadline_s ->
          Sim_error.Array_timeout { array_id; attempts; deadline_s })
        (0 -- 1000) (0 -- 10) fin;
      map2 (fun path detail -> Sim_error.Checkpoint_corrupt { path; detail }) str str;
      map (fun detail -> Sim_error.Checkpoint_mismatch { detail }) str;
      map (fun detail -> Sim_error.Stream_failed { detail }) str;
      map2 (fun waited_s deadline_s -> Sim_error.Deadline_expired { waited_s; deadline_s }) fin fin;
      map2
        (fun bytes limit -> Sim_error.Input_too_large { bytes; limit })
        (0 -- 0xFFFF_FFFF) (0 -- 0xFFFF_FFFF);
      map3
        (fun array_id region detail -> Sim_error.Integrity_violation { array_id; region; detail })
        (0 -- 1000) str str;
    ]

let prop_sim_error_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"Sim_error.of_wire (to_wire e) = Ok e (exact floats)"
    gen_sim_error
    (fun e -> Sim_error.of_wire (Sim_error.to_wire e) = Ok e)

(* u32 fields refuse what does not fit instead of wrapping it. *)
let test_sim_error_u32_range () =
  List.iter
    (fun e ->
      match Sim_error.to_wire e with
      | exception Invalid_argument _ -> ()
      | _ -> failf "%s must be refused" (Sim_error.message e))
    [
      Sim_error.Input_too_large { bytes = 5_000_000_000; limit = 1 lsl 30 };
      Sim_error.Input_too_large { bytes = 1; limit = 1 lsl 32 };
      Sim_error.Array_crashed { array_id = -1; attempts = 1; detail = "" };
    ];
  let top = Sim_error.Input_too_large { bytes = 0xFFFF_FFFF; limit = 0 } in
  check bool "2^32 - 1 round-trips" true (Sim_error.of_wire (Sim_error.to_wire top) = Ok top)

let test_sim_error_wire_rejects_garbage () =
  (match Sim_error.of_wire "" with Error _ -> () | Ok _ -> fail "empty must not decode");
  (match Sim_error.of_wire "\xff garbage" with
  | Error _ -> ()
  | Ok _ -> fail "unknown tag must not decode");
  let valid = Sim_error.to_wire (Sim_error.Stream_failed { detail = "d" }) in
  (match Sim_error.of_wire (valid ^ "x") with
  | Error _ -> ()
  | Ok _ -> fail "trailing bytes must not decode")

(* ------------------------------------------------------------------ *)
(* Admission: overload sheds typed, accepted stays bit-identical *)

let test_admission_overflow_typed () =
  let p = placement () in
  let adm = Admission.create (config ~capacity:2 ()) rap ~params p in
  let submit i =
    Admission.submit adm ~name:(Printf.sprintf "s%d" i) ~class_:Wire.Bulk ~input:"abbbc"
  in
  (match submit 0 with Ok _ -> () | Error _ -> fail "first must be accepted");
  (match submit 1 with Ok _ -> () | Error _ -> fail "second must be accepted");
  (match submit 2 with
  | Error (Admission.Queue_full { depth; capacity; _ }) ->
      check int "reported depth" 2 depth;
      check int "reported capacity" 2 capacity
  | Ok _ -> fail "third must shed"
  | Error r -> fail ("wrong rejection: " ^ Admission.reject_message r));
  check int "shed counted" 1 (Admission.shed_count adm);
  (* capacity frees as the queue drains *)
  let outcomes = Admission.run_pending adm in
  check int "both accepted requests ran" 2 (List.length outcomes);
  (match submit 3 with Ok _ -> () | Error _ -> fail "drained queue admits again");
  ignore (Admission.run_pending adm)

(* QCheck: whatever mix of requests is shed at a full queue, the
   accepted ones' reports are structurally identical to solo runs, and
   their rendered text is the canonical rendering *)
let prop_shed_never_corrupts =
  let open QCheck2 in
  let gen_char = Gen.oneofl (List.init (String.length inputs_alphabet) (String.get inputs_alphabet)) in
  let gen_input = Gen.(string_size ~gen:gen_char (0 -- 120)) in
  let gen = Gen.(pair (list_size (1 -- 10) gen_input) (1 -- 3)) in
  Test.make ~count:20 ~name:"shed requests never corrupt in-flight reports" gen
    (fun (inputs, capacity) ->
      let p = placement () in
      let adm = Admission.create (config ~capacity ()) rap ~params p in
      let submitted =
        List.mapi
          (fun i input ->
            ( input,
              Admission.submit adm ~name:(Printf.sprintf "s%d" i) ~class_:Wire.Bulk ~input ))
          inputs
      in
      let accepted =
        List.filter_map
          (fun (input, r) -> match r with Ok id -> Some (id, input) | Error _ -> None)
          submitted
      in
      let shed = List.length submitted - List.length accepted in
      let outcomes = Admission.run_pending adm in
      shed = max 0 (List.length inputs - capacity)
      && List.length outcomes = List.length accepted
      && List.for_all
           (fun (o : Admission.outcome) ->
             let input = List.assoc o.Admission.o_id accepted in
             let r = solo p input in
             o.Admission.o_report = Some r
             && o.Admission.o_text = Runner.render_report r
             && o.Admission.o_error = None)
           outcomes)

(* A round runs its requests one at a time, oldest first, whatever their
   class: the outcomes come back in submission order, and since all
   three were enqueued at one instant, each one's queue wait covers the
   whole latency of the one before it. *)
let test_round_oldest_first_own_stamps () =
  let p = placement () in
  let adm = Admission.create (config ()) rap ~params p in
  let input =
    String.init 30_000 (fun i -> inputs_alphabet.[i * 7 mod String.length inputs_alphabet])
  in
  let enqueued_at = Unix.gettimeofday () in
  let ids =
    List.mapi
      (fun i (class_, deadline_s) ->
        match
          Admission.submit ?deadline_s ~enqueued_at adm ~name:(Printf.sprintf "r%d" i) ~class_
            ~input
        with
        | Ok id -> id
        | Error r -> fail (Admission.reject_message r))
      [ (Wire.Bulk, None); (Wire.Interactive, Some 600.); (Wire.Bulk, None) ]
  in
  let outcomes = Admission.run_pending adm in
  check (list int) "outcomes in submission order" ids
    (List.map (fun (o : Admission.outcome) -> o.Admission.o_id) outcomes);
  let rec each_waits_for_the_previous = function
    | (a : Admission.outcome) :: ((b : Admission.outcome) :: _ as rest) ->
        check bool
          (Printf.sprintf "#%d queued %.4fs >= #%d's latency %.4fs" b.Admission.o_id
             b.Admission.o_queued_s a.Admission.o_id a.Admission.o_latency_s)
          true
          (b.Admission.o_queued_s >= a.Admission.o_latency_s);
        each_waits_for_the_previous rest
    | _ -> ()
  in
  each_waits_for_the_previous outcomes

(* The daemon's execution round hands each outcome to its reply action
   as soon as the request is booked: when request k's reply is queued,
   the requests submitted after it are still counted as pending, so no
   reply waits for the rest of its round.  The round stops at [group]
   requests and the next one picks up the rest.  Counts only, no
   clock. *)
let test_round_replies_per_request () =
  let p = placement () in
  let adm = Admission.create (config ()) rap ~params p in
  let ids =
    List.init 3 (fun i ->
        match
          Admission.submit adm ~name:(Printf.sprintf "q%d" i) ~class_:Wire.Interactive
            ~input:"abbbc evilxsig xyzzzw"
        with
        | Ok id -> id
        | Error r -> fail (Admission.reject_message r))
  in
  let replies = ref [] in
  let reply (o : Admission.outcome) =
    check bool "request ran clean" true (o.Admission.o_error = None);
    replies := (o.Admission.o_id, Admission.pending adm) :: !replies
  in
  Daemon.run_round adm ~group:2 reply;
  let id k = List.nth ids k in
  check (list (pair int int)) "each reply queued while the later requests wait"
    [ (id 0, 2); (id 1, 1) ]
    (List.rev !replies);
  check int "the round stops at group" 1 (Admission.pending adm);
  replies := [];
  Daemon.run_round adm ~group:2 reply;
  check (list (pair int int)) "the next round replies to the rest" [ (id 2, 0) ] (List.rev !replies)

(* ------------------------------------------------------------------ *)
(* Deadlines *)

let test_deadline_expired_in_queue () =
  let p = placement () in
  let adm = Admission.create (config ()) rap ~params p in
  (* enqueued a minute ago with a 10ms deadline: wholly spent queued *)
  (match
     Admission.submit ~deadline_s:0.01
       ~enqueued_at:(Unix.gettimeofday () -. 60.)
       adm ~name:"late" ~class_:Wire.Interactive ~input:"abbbc"
   with
  | Ok _ -> ()
  | Error _ -> fail "expired-deadline request is still admitted");
  match Admission.run_pending adm with
  | [ o ] -> (
      match o.Admission.o_error with
      | Some (Sim_error.Deadline_expired { waited_s; deadline_s }) ->
          check bool "waited >= 60s" true (waited_s >= 60.);
          check (float 1e-9) "deadline echoed" 0.01 deadline_s;
          check bool "no report produced" true (o.Admission.o_report = None);
          (* queue expiry is the server's fault: no quarantine *)
          check (list (pair string int)) "not quarantined" [] (Admission.quarantined adm)
      | other ->
          fail
            (match other with
            | Some e -> "wrong error: " ^ Sim_error.message e
            | None -> "expired request must not execute"))
  | outcomes -> fail (Printf.sprintf "expected 1 outcome, got %d" (List.length outcomes))

let test_deadline_propagates_supervision () =
  let p = placement () in
  let adm = Admission.create (config ()) rap ~params p in
  (* a deadline far too small for this input: the supervised run must
     degrade (quarantined arrays) or time out — never hang, never crash *)
  let input = String.concat "" (List.init 4000 (fun _ -> "abbbc evilsig xyzzzw ")) in
  (match
     Admission.submit ~deadline_s:0.002 adm ~name:"tight" ~class_:Wire.Interactive ~input
   with
  | Ok _ -> ()
  | Error r -> fail (Admission.reject_message r));
  match Admission.run_pending adm with
  | [ o ] -> (
      match (o.Admission.o_error, o.Admission.o_report) with
      | Some (Sim_error.Deadline_expired _), _ ->
          fail "deadline was not spent in queue; it must reach execution"
      | Some _, _ -> ()
      | None, Some r ->
          check bool "timed-out run degrades" true (r.Runner.degraded <> [])
      | None, None -> fail "no error and no report")
  | outcomes -> fail (Printf.sprintf "expected 1 outcome, got %d" (List.length outcomes))

(* generous deadline: the supervised solo path must still be
   bit-identical to the unsupervised solo run *)
let test_deadline_clean_run_identical () =
  let p = placement () in
  let adm = Admission.create (config ()) rap ~params p in
  let input = "abbbc evilsig xyzzzw" in
  (match Admission.submit ~deadline_s:600. adm ~name:"ok" ~class_:Wire.Interactive ~input with
  | Ok _ -> ()
  | Error r -> fail (Admission.reject_message r));
  match Admission.run_pending adm with
  | [ o ] ->
      check bool "clean deadline run is bit-identical" true
        (o.Admission.o_report = Some (solo p input))
  | outcomes -> fail (Printf.sprintf "expected 1 outcome, got %d" (List.length outcomes))

(* ------------------------------------------------------------------ *)
(* Quarantine *)

let test_quarantine_after_repeated_faults () =
  let p = placement () in
  let adm = Admission.create (config ~quarantine_after:2 ()) rap ~params p in
  let input = String.concat "" (List.init 4000 (fun _ -> "abbbc evilsig xyzzzw ")) in
  let fault () =
    match Admission.submit ~deadline_s:0.002 adm ~name:"flaky" ~class_:Wire.Interactive ~input with
    | Ok _ -> ignore (Admission.run_pending adm)
    | Error r -> fail ("faulting request not admitted: " ^ Admission.reject_message r)
  in
  fault ();
  fault ();
  (match Admission.submit adm ~name:"flaky" ~class_:Wire.Bulk ~input:"abbbc" with
  | Error (Admission.Quarantined_name { name; faults }) ->
      check string "quarantined name" "flaky" name;
      check bool "fault count >= threshold" true (faults >= 2)
  | Ok _ -> fail "third request from a faulting stream must be refused"
  | Error r -> fail ("wrong rejection: " ^ Admission.reject_message r));
  (* other streams are unaffected *)
  (match Admission.submit adm ~name:"healthy" ~class_:Wire.Bulk ~input:"abbbc" with
  | Ok _ -> ()
  | Error _ -> fail "quarantine must be per stream name");
  let outcomes = Admission.run_pending adm in
  check int "healthy stream still served" 1 (List.length outcomes)

let test_too_large_rejected () =
  let p = placement () in
  let cfg = { (config ()) with Admission.max_input = 8 } in
  let adm = Admission.create cfg rap ~params p in
  match Admission.submit adm ~name:"big" ~class_:Wire.Bulk ~input:"123456789" with
  | Error (Admission.Too_large { bytes; limit }) ->
      check int "bytes" 9 bytes;
      check int "limit" 8 limit
  | Ok _ -> fail "over-limit input must be refused"
  | Error r -> fail ("wrong rejection: " ^ Admission.reject_message r)

(* ------------------------------------------------------------------ *)
(* Spool + crash recovery *)

(* Spooling a request writes its input straight to the file: saving an
   8 MiB entry allocates under 1 MiB beyond the input, where joining the
   fields and the input into one payload, then framing it, would copy
   the input four times. *)
let test_spool_save_streams_input () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let input = String.make (8 * 1024 * 1024) 'q' in
      let e =
        {
          Checkpoint.Spool.sp_id = 5;
          sp_name = "big";
          sp_class = "bulk";
          sp_deadline_s = Some 2.;
          sp_input = input;
        }
      in
      (* the least of three saves: what a save allocates is fixed, while
         counters merged from other domains can only add to a reading *)
      let spent =
        List.fold_left Float.min infinity
          (List.init 3 (fun _ ->
               let before = Gc.allocated_bytes () in
               Checkpoint.Spool.save ~dir e;
               Gc.allocated_bytes () -. before))
      in
      check bool
        (Printf.sprintf "%.0f bytes allocated to spool 8 MiB, under 1 MiB" spent)
        true
        (spent < 1024. *. 1024.);
      match Checkpoint.Spool.load ~dir ~id:5 with
      | Ok (Some got) -> check bool "the entry loads back" true (got = e)
      | Ok None -> fail "the spooled entry is missing"
      | Error err -> fail (Sim_error.message err))

(* Recovering a spooled request copies its input once: the file is read
   whole, its CRC checked and its fields decoded where they lie, and only
   the input is cut out of it.  Loading an 8 MiB entry allocates under
   two copies of the input plus 1 MiB, where cutting the payload out of
   the file and then the input out of the payload made three. *)
let test_spool_load_copies_input_once () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let input = String.make (8 * 1024 * 1024) 'q' in
      let e =
        {
          Checkpoint.Spool.sp_id = 6;
          sp_name = "big";
          sp_class = "bulk";
          sp_deadline_s = None;
          sp_input = input;
        }
      in
      Checkpoint.Spool.save ~dir e;
      (* the least of three loads, as for the save above *)
      let spent =
        List.fold_left Float.min infinity
          (List.init 3 (fun _ ->
               let before = Gc.allocated_bytes () in
               let got = Checkpoint.Spool.load ~dir ~id:6 in
               let spent = Gc.allocated_bytes () -. before in
               (match got with
               | Ok (Some got) -> check bool "the entry loads back" true (got = e)
               | Ok None -> fail "the spooled entry is missing"
               | Error err -> fail (Sim_error.message err));
               spent))
      in
      check bool
        (Printf.sprintf "%.0f bytes allocated to load 8 MiB, under 17 MiB" spent)
        true
        (spent < 17. *. 1024. *. 1024.))

let test_spool_roundtrip () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let e =
        {
          Checkpoint.Spool.sp_id = 3;
          sp_name = "stream/a";
          sp_class = "interactive";
          sp_deadline_s = Some 1.5;
          sp_input = "payload \x00 bytes";
        }
      in
      Checkpoint.Spool.save ~dir e;
      (match Checkpoint.Spool.load ~dir ~id:3 with
      | Ok (Some e') -> check bool "entry round-trips" true (e = e')
      | Ok None -> fail "saved entry must load"
      | Error err -> fail (Sim_error.message err));
      (match Checkpoint.Spool.load ~dir ~id:99 with
      | Ok None -> ()
      | _ -> fail "missing id must be Ok None");
      let e2 = { e with Checkpoint.Spool.sp_id = 1; sp_deadline_s = None } in
      Checkpoint.Spool.save ~dir e2;
      let entries, errors = Checkpoint.Spool.list ~dir in
      check int "no list errors" 0 (List.length errors);
      check (list int) "ascending ids"
        [ 1; 3 ]
        (List.map (fun (x : Checkpoint.Spool.entry) -> x.Checkpoint.Spool.sp_id) entries);
      Checkpoint.Spool.remove ~dir ~id:3;
      let entries, _ = Checkpoint.Spool.list ~dir in
      check (list int) "removed" [ 1 ]
        (List.map (fun (x : Checkpoint.Spool.entry) -> x.Checkpoint.Spool.sp_id) entries))

let test_spool_corrupt_rejected () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let e =
        {
          Checkpoint.Spool.sp_id = 1;
          sp_name = "s";
          sp_class = "bulk";
          sp_deadline_s = None;
          sp_input = String.make 100 'q';
        }
      in
      Checkpoint.Spool.save ~dir e;
      let path = Checkpoint.Spool.path ~dir ~id:1 in
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let flipped = Bytes.of_string bytes in
      Bytes.set flipped (Bytes.length flipped / 2)
        (Char.chr (Char.code (Bytes.get flipped (Bytes.length flipped / 2)) lxor 0x5a));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc flipped);
      (match Checkpoint.Spool.load ~dir ~id:1 with
      | Error (Sim_error.Checkpoint_corrupt _) -> ()
      | Error e -> fail ("wrong error: " ^ Sim_error.message e)
      | Ok _ -> fail "corrupt spool entry must be rejected");
      let entries, errors = Checkpoint.Spool.list ~dir in
      check int "corrupt entry skipped" 0 (List.length entries);
      check int "and reported" 1 (List.length errors))

(* crash recovery end to end, in-process: admit with a state dir, "crash"
   (drop the Admission.t without running), recover in a fresh instance,
   and require the replayed report file to be byte-identical to solo *)
let test_recover_replays_spool () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let p = placement () in
      let input = "abbbc evilsig xyzzzw abbbbc" in
      let adm1 = Admission.create (config ~state_dir:dir ()) rap ~params p in
      let id =
        match Admission.submit adm1 ~name:"crashme" ~class_:Wire.Bulk ~input with
        | Ok id -> id
        | Error r -> fail (Admission.reject_message r)
      in
      (* the daemon dies here: adm1 is dropped with the request spooled *)
      let adm2 = Admission.create (config ~state_dir:dir ()) rap ~params p in
      let outcomes = Admission.recover adm2 in
      check int "one request replayed" 1 (List.length outcomes);
      let o = List.hd outcomes in
      check bool "replayed as recovered" true o.Admission.o_recovered;
      check bool "replayed report is bit-identical" true
        (o.Admission.o_report = Some (solo p input));
      let report_file = Checkpoint.Spool.report_path ~dir ~id in
      check bool "report file written" true (Sys.file_exists report_file);
      let text = In_channel.with_open_bin report_file In_channel.input_all in
      check string "report file byte-identical to canonical rendering"
        (Runner.render_report (solo p input))
        text;
      let entries, _ = Checkpoint.Spool.list ~dir in
      check int "spool entry consumed" 0 (List.length entries);
      (* fresh ids continue past the recovered one *)
      match Admission.submit adm2 ~name:"next" ~class_:Wire.Bulk ~input:"abbbc" with
      | Ok id2 -> check bool "ids advance past recovered" true (id2 > id)
      | Error r -> fail (Admission.reject_message r))

(* regression: the spool covers a request until its result is durable —
   a live (non-recovered) outcome's report is persisted before its spool
   entry is removed, so a daemon killed between execution and the reply
   reaching the client cannot lose an accepted request's result *)
let test_spool_report_persisted_for_live_outcomes () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let p = placement () in
      let input = "abbbc evilsig xyzzzw" in
      let adm = Admission.create (config ~state_dir:dir ()) rap ~params p in
      let id =
        match Admission.submit adm ~name:"live" ~class_:Wire.Bulk ~input with
        | Ok id -> id
        | Error r -> fail (Admission.reject_message r)
      in
      (match Admission.run_pending adm with
      | [ o ] -> check bool "a live outcome, not a recovered one" false o.Admission.o_recovered
      | outcomes -> fail (Printf.sprintf "expected 1 outcome, got %d" (List.length outcomes)));
      let report_file = Checkpoint.Spool.report_path ~dir ~id in
      check bool "report persisted before spool removal" true (Sys.file_exists report_file);
      let text = In_channel.with_open_bin report_file In_channel.input_all in
      check string "persisted report is the canonical rendering"
        (Runner.render_report (solo p input))
        text;
      let entries, _ = Checkpoint.Spool.list ~dir in
      check int "spool entry consumed" 0 (List.length entries))

(* regression: a report that cannot be persisted keeps its request.  A
   directory on the report path makes the write fail; the outcome is
   still returned, but the spool entry stays, no temp file is left and
   the journal names the failure, so a later [recover] replays the
   request and writes the canonical report. *)
let test_spool_kept_when_report_write_fails () =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let p = placement () in
      let input = "abbbc evilsig xyzzzw" in
      let adm = Admission.create (config ~state_dir:dir ()) rap ~params p in
      let id =
        match Admission.submit adm ~name:"blocked" ~class_:Wire.Bulk ~input with
        | Ok id -> id
        | Error r -> fail (Admission.reject_message r)
      in
      let report_file = Checkpoint.Spool.report_path ~dir ~id in
      Sys.mkdir report_file 0o755;
      (match Admission.run_pending adm with
      | [ o ] ->
          check bool "the outcome is still returned" true
            (o.Admission.o_error = None && o.Admission.o_report = Some (solo p input))
      | outcomes -> fail (Printf.sprintf "expected 1 outcome, got %d" (List.length outcomes)));
      let entries, _ = Checkpoint.Spool.list ~dir in
      check int "spool entry kept" 1 (List.length entries);
      check bool "no temp file left" false
        (Array.exists (fun f -> Filename.check_suffix f ".tmp") (Sys.readdir dir));
      let journal = In_channel.with_open_bin (Checkpoint.journal_path ~dir) In_channel.input_all in
      check bool "journal names the failure" true
        (Astring_contains.contains journal (Printf.sprintf "report-write-failed id=%d " id));
      Sys.rmdir report_file;
      let fresh = Admission.create (config ~state_dir:dir ()) rap ~params p in
      check int "recover replays the request" 1 (List.length (Admission.recover fresh));
      check string "recovered report is the canonical rendering"
        (Runner.render_report (solo p input))
        (In_channel.with_open_bin report_file In_channel.input_all);
      let entries, _ = Checkpoint.Spool.list ~dir in
      check int "spool entry consumed" 0 (List.length entries))

(* ------------------------------------------------------------------ *)
(* Prepared placements: built and sealed once per service *)

(* QCheck: a service runs every request on clones of executors it built
   once, and [rap batch] every stream.  Whatever the rule set, the
   request mix (bulk, and interactive under a deadline), the jobs and
   whether integrity is armed, every reply and every batched stream is
   byte-identical to a solo run on a placement compiled afresh, which
   shares no table with the served one. *)
let prop_prepared_equals_fresh =
  let gen =
    QCheck2.Gen.(
      quad
        (list_size (1 -- 3) (Gen.gen_ast ~max_bound:5 ()))
        (list_size (1 -- 5) (pair bool Gen.gen_input))
        (oneofl [ 1; 4 ])
        bool)
  in
  QCheck2.Test.make ~count:40 ~name:"prepared runs equal solo runs on a fresh placement" gen
    (fun (asts, reqs, jobs, armed) ->
      let regexes = List.mapi (fun i a -> (Printf.sprintf "r%d %s" i (Ast.to_string a), a)) asts in
      let place () =
        let units, _ = Runner.compile_for rap ~params regexes in
        Runner.place rap ~params units
      in
      let served = place () in
      let integrity = if armed then Some (Integrity.continuous_config ()) else None in
      let adm =
        Admission.create { (config ~capacity:8 ()) with Admission.jobs; integrity } rap ~params served
      in
      List.iteri
        (fun i (interactive, input) ->
          match
            Admission.submit
              ?deadline_s:(if interactive then Some 60. else None)
              adm ~name:(Printf.sprintf "q%d" i)
              ~class_:(if interactive then Wire.Interactive else Wire.Bulk)
              ~input
          with
          | Ok _ -> ()
          | Error r -> fail (Admission.reject_message r))
        reqs;
      let outcomes = Admission.run_pending adm in
      let batch =
        Batch.run ~jobs rap ~params served
          ~sources:
            (Array.of_list
               (List.mapi (fun i (_, s) -> Batch.of_string ~name:(Printf.sprintf "b%d" i) s) reqs))
      in
      let fresh = place () in
      let solo_of (_, input) = Runner.run ~jobs:1 rap ~params fresh ~input in
      List.length outcomes = List.length reqs
      && List.for_all2
           (fun req (o : Admission.outcome) ->
             let r = solo_of req in
             o.Admission.o_error = None
             && o.Admission.o_report = Some r
             && o.Admission.o_text = Runner.render_report r)
           reqs outcomes
      && List.for_all2
           (fun req (b : Batch.stream_report) ->
             Runner.render_report b.Batch.bs_report = Runner.render_report (solo_of req))
           reqs (Array.to_list batch.Batch.streams))

(* Each request starts from fresh run state: one that ends inside a
   match, engines still live, leaves nothing behind for the next, whose
   reply is its solo run's (carried over, "abbb" then "bbc" would
   report a match).  And an armed run refuses an unsealed placement. *)
let test_prepared_request_after_live_engines () =
  let p = placement () in
  let requests = [ "abbb"; "bbc xyzz"; "zw evil"; "sig" ] in
  let ex = Exec.build p p.Mapper.arrays.(0) in
  String.iteri (fun sym c -> ignore (Exec.step rap ex ~sym c)) (List.hd requests);
  check bool "the first request leaves engines live" true (Exec.awake_count ex > 0);
  List.iter
    (fun integrity ->
      let adm = Admission.create { (config ()) with Admission.integrity } rap ~params p in
      List.iteri
        (fun i input ->
          match
            Admission.submit adm ~name:(Printf.sprintf "live%d" i) ~class_:Wire.Bulk ~input
          with
          | Ok _ -> ()
          | Error r -> fail (Admission.reject_message r))
        requests;
      List.iter2
        (fun input (o : Admission.outcome) ->
          check string
            (Printf.sprintf "%S served as its solo run" input)
            (Runner.render_report (solo p input))
            o.Admission.o_text)
        requests (Admission.run_pending adm))
    [ None; Some (Integrity.continuous_config ()) ];
  (* an armed run needs the seals taken when the placement was
     prepared; taking them now would accept whatever the tables hold *)
  match
    Runner.run_prepared ~integrity:(Integrity.default_config ()) rap (Runner.build p)
      ~stream:(Input_stream.of_string "abbbc")
  with
  | _ -> fail "an armed run on an unsealed placement must be refused"
  | exception Invalid_argument _ -> ()

(* A served request pays for its run state, not for its placement's
   set-up: at jobs 1, one 512-byte Snort request through the service
   allocates fewer minor words than one [Exec.build] of the placement's
   arrays.  The least of three readings of each. *)
let test_served_request_allocates_less_than_build () =
  let snort = Benchmarks.by_name "Snort" in
  let units, _ = Runner.compile_for rap ~params snort.Benchmarks.regexes in
  let p = Runner.place rap ~params units in
  let input = snort.Benchmarks.make_input ~chars:512 in
  let least f =
    List.fold_left Float.min infinity
      (List.init 3 (fun _ ->
           let before = Gc.minor_words () in
           f ();
           Gc.minor_words () -. before))
  in
  let build = least (fun () -> ignore (Array.map (Exec.build p) p.Mapper.arrays)) in
  let adm = Admission.create (config ()) rap ~params p in
  let outcomes = ref [] in
  let served =
    least (fun () ->
        ignore (Admission.submit adm ~name:"snort" ~class_:Wire.Bulk ~input);
        outcomes := Admission.run_pending adm @ !outcomes)
  in
  check int "three requests served" 3 (List.length !outcomes);
  List.iter
    (fun (o : Admission.outcome) ->
      check string "served as its solo run" (Runner.render_report (solo p input)) o.Admission.o_text)
    !outcomes;
  check bool
    (Printf.sprintf "a 512 B request allocated %.0f minor words, one build %.0f" served build)
    true (served < build)

(* Tables corrupted between two armed requests are caught by the seals
   the service took when it prepared its placement, and healed.  A seal
   taken per request would take the corrupted table as pristine and
   serve a wrong report with no detection. *)
let test_armed_heals_corruption_between_requests () =
  let p = placement () in
  let cfg = Integrity.default_config () in
  let adm = Admission.create { (config ()) with Admission.integrity = Some cfg } rap ~params p in
  let serve input =
    (match Admission.submit adm ~name:"armed" ~class_:Wire.Bulk ~input with
    | Ok _ -> ()
    | Error r -> fail (Admission.reject_message r));
    match Admission.run_pending adm with
    | [ o ] -> o
    | l -> fail (Printf.sprintf "expected 1 outcome, got %d" (List.length l))
  in
  let first = "abbbc evilsig xyzzzw" in
  check string "request 1 served clean" (Runner.render_report (solo p first))
    (serve first).Admission.o_text;
  (* request 2's matches lie past its first sentinel window (symbols
     0-63), so the flip below is left to the sweep at its chunk end *)
  let second = String.make 100 'q' ^ "xyzzzw xzzzzzw" in
  let clean = Runner.render_report (solo p second) in
  (* the x[yz]{3,9}w engine (the one byte 'x' wakes): clear the bit of
     its masks row that byte 'x' labels, which starts every match *)
  let table name e =
    List.find_map
      (function Engine.R_words (n, a) when n = name -> Some a | _ -> None)
      (Engine.immutable_regions e)
    |> Option.get
  in
  let wakes_on_x e =
    List.exists
      (function
        | Engine.R_bytes ("wake", b) -> Bytes.get b (Char.code 'x') <> '\000' | _ -> false)
      (Engine.immutable_regions e)
  in
  let e =
    match
      List.find_opt wakes_on_x (Array.to_list (Exec.engines (Exec.build p p.Mapper.arrays.(0))))
    with
    | Some e -> e
    | None -> fail "no engine wakes on 'x'"
  in
  let masks = table "masks" e and at = (table "labels_row" e).(Char.code 'x') in
  let pristine = masks.(at) in
  check bool "byte 'x' labels some state" true (pristine <> 0);
  masks.(at) <- pristine land (pristine - 1);
  check bool "left unhealed, the flip changes request 2's report" false
    (String.equal clean (Runner.render_report (solo p second)));
  let o = serve second in
  check string "request 2 equals its clean solo run" clean o.Admission.o_text;
  check bool "request 2 marked recovered" true o.Admission.o_recovered;
  let st = cfg.Integrity.stats in
  check bool
    (Printf.sprintf "%d seal trip(s), at least 1" st.Integrity.crc_trips)
    true (st.Integrity.crc_trips >= 1);
  check int "no quarantine" 0 st.Integrity.quarantines;
  check int "the table is repaired" pristine masks.(at)

(* ------------------------------------------------------------------ *)
(* Latency histogram *)

let test_latency_quantiles () =
  let h = Sink.Latency.create () in
  check (float 0.) "empty quantile" 0. (Sink.Latency.quantile h 0.99);
  List.iter (fun v -> Sink.Latency.observe h v) [ 0.001; 0.002; 0.003; 0.004; 0.100 ];
  check int "count" 5 (Sink.Latency.count h);
  let p50 = Sink.Latency.quantile h 0.5 in
  let p95 = Sink.Latency.quantile h 0.95 in
  let p99 = Sink.Latency.quantile h 0.99 in
  (* geometric buckets (ratio 1.07): a quantile lands within one bucket
     of the true value, and the tail is clipped to the observed max *)
  check bool "p50 near median" true (p50 >= 0.002 && p50 <= 0.003 *. 1.07);
  check bool "quantiles monotone" true (p50 <= p95 && p95 <= p99);
  check bool "tail clipped to max" true (p99 <= Sink.Latency.max_s h +. 1e-12);
  check (float 1e-9) "max tracked" 0.1 (Sink.Latency.max_s h);
  check bool "mean sane" true (Float.abs (Sink.Latency.mean_s h -. 0.022) < 1e-6)

let test_latency_merge () =
  let a = Sink.Latency.create () in
  let b = Sink.Latency.create () in
  List.iter (fun v -> Sink.Latency.observe a v) [ 0.001; 0.002 ];
  List.iter (fun v -> Sink.Latency.observe b v) [ 0.050; 0.060 ];
  Sink.Latency.merge_into ~dst:a b;
  check int "merged count" 4 (Sink.Latency.count a);
  check (float 1e-9) "merged max" 0.06 (Sink.Latency.max_s a);
  check bool "merged p99 in the slow half" true (Sink.Latency.quantile a 0.99 >= 0.05)

let prop_latency_quantile_bounds =
  let open QCheck2 in
  Test.make ~count:100 ~name:"histogram quantiles bounded by observations"
    Gen.(list_size (1 -- 50) (map (fun f -> Float.abs f +. 1e-9) (float_bound_exclusive 10.)))
    (fun values ->
      let h = Sink.Latency.create () in
      List.iter (Sink.Latency.observe h) values;
      let vmax = List.fold_left Float.max 0. values in
      List.for_all
        (fun q ->
          let v = Sink.Latency.quantile h q in
          v >= 0. && v <= vmax +. 1e-12)
        [ 0.5; 0.95; 0.99; 1.0 ])

let suite =
  [
    test_case "wire: request round-trip" `Quick test_wire_request_roundtrip;
    test_case "wire: NaN, infinite and non-positive deadlines are undecodable" `Quick
      test_wire_rejects_bad_deadlines;
    test_case "codec: wire, error and spool bytes are pinned" `Quick test_codec_bytes_pinned;
    test_case "wire: reply round-trip" `Quick test_wire_reply_roundtrip;
    QCheck_alcotest.to_alcotest prop_wire_decode_total;
    QCheck_alcotest.to_alcotest prop_wire_truncation_is_error;
    test_case "wire: incremental reader reassembles" `Quick test_reader_reassembles;
    test_case "wire: oversized frame rejected" `Quick test_reader_oversize;
    test_case "wire: reader buffer stays near one frame" `Quick test_reader_buffer_bounded;
    QCheck_alcotest.to_alcotest prop_sim_error_roundtrip;
    test_case "sim_error: garbage rejected" `Quick test_sim_error_wire_rejects_garbage;
    test_case "sim_error: u32 fields refuse values past 32 bits" `Quick test_sim_error_u32_range;
    test_case "admission: overflow sheds typed" `Quick test_admission_overflow_typed;
    QCheck_alcotest.to_alcotest prop_shed_never_corrupts;
    test_case "a round runs oldest first, each request on its own stamps" `Quick
      test_round_oldest_first_own_stamps;
    test_case "daemon: each reply queued as its request is booked" `Quick
      test_round_replies_per_request;
    test_case "deadline: expired in queue" `Quick test_deadline_expired_in_queue;
    test_case "deadline: propagates into supervision" `Quick test_deadline_propagates_supervision;
    test_case "deadline: clean run bit-identical" `Quick test_deadline_clean_run_identical;
    test_case "quarantine: repeated faults refuse the name" `Quick
      test_quarantine_after_repeated_faults;
    test_case "admission: over-limit input refused" `Quick test_too_large_rejected;
    test_case "spool: round-trip and listing" `Quick test_spool_roundtrip;
    test_case "spool: an 8 MiB entry is written without copying its input" `Quick
      test_spool_save_streams_input;
    test_case "spool: an 8 MiB entry loads with one copy of its input" `Quick
      test_spool_load_copies_input_once;
    test_case "spool: corruption rejected" `Quick test_spool_corrupt_rejected;
    test_case "recovery: spool replays bit-identical" `Quick test_recover_replays_spool;
    test_case "spool: live outcome report persisted" `Quick
      test_spool_report_persisted_for_live_outcomes;
    QCheck_alcotest.to_alcotest prop_prepared_equals_fresh;
    test_case "prepared: a request after one that left engines live" `Quick
      test_prepared_request_after_live_engines;
    test_case "prepared: a 512 B request allocates less than one build" `Quick
      test_served_request_allocates_less_than_build;
    test_case "prepared: corruption between armed requests heals" `Quick
      test_armed_heals_corruption_between_requests;
    test_case "latency: quantiles" `Quick test_latency_quantiles;
    test_case "latency: merge" `Quick test_latency_merge;
    QCheck_alcotest.to_alcotest prop_latency_quantile_bounds;
    test_case "spool: a report that cannot be written keeps its request" `Quick
      test_spool_kept_when_report_write_fails;
  ]
