(** Coverage map and feedback listener tests, including the paper's core
    discrimination claim as a unit test: the path listener distinguishes
    executions that the edge listener cannot. *)

let check = Alcotest.check
let fail = Alcotest.fail

module Cm = Pathcov.Coverage_map

let test_bucketing () =
  let expect = [ (0, 0); (1, 1); (2, 2); (3, 4); (4, 8); (7, 8); (8, 16);
                 (15, 16); (16, 32); (31, 32); (32, 64); (127, 64); (128, 128);
                 (255, 128) ] in
  List.iter
    (fun (count, bucket) ->
      check Alcotest.int (Printf.sprintf "bucket of %d" count) bucket
        (Cm.bucket_of_count count))
    expect

let test_hit_and_clear () =
  let m = Cm.create ~size_log2:8 () in
  Cm.hit m 5;
  Cm.hit m 5;
  Cm.hit m 300 (* wraps to 300 land 255 = 44 *);
  check Alcotest.int "two set" 2 (Cm.count_set m);
  check (Alcotest.list Alcotest.int) "indices" [ 5; 44 ] (Cm.set_indices m);
  check (Alcotest.array Alcotest.int) "indices array" [| 5; 44 |]
    (Cm.sorted_indices m);
  check Alcotest.int "raw count" 2 (Cm.get m 5);
  Cm.clear m;
  check Alcotest.int "cleared" 0 (Cm.count_set m);
  check Alcotest.int "byte zeroed" 0 (Cm.get m 5)

let test_saturation () =
  let m = Cm.create ~size_log2:8 () in
  for _ = 1 to 1000 do
    Cm.hit m 3
  done;
  check Alcotest.int "saturates at 255" 255 (Cm.get m 3)

let test_classify () =
  let m = Cm.create ~size_log2:8 () in
  for _ = 1 to 5 do
    Cm.hit m 9
  done;
  Cm.classify m;
  check Alcotest.int "5 -> bucket 8" 8 (Cm.get m 9)

let test_novelty_transitions () =
  let virgin = Cm.create_virgin ~size_log2:8 () in
  let trace = Cm.create ~size_log2:8 () in
  Cm.hit trace 7;
  Cm.classify trace;
  check Alcotest.bool "first hit is new tuple" true
    (Cm.merge_into ~virgin trace = Cm.New_tuple);
  check Alcotest.bool "same trace no longer novel" true
    (Cm.merge_into ~virgin trace = Cm.Nothing);
  (* same tuple, higher bucket: New_bucket *)
  let trace2 = Cm.create ~size_log2:8 () in
  for _ = 1 to 4 do
    Cm.hit trace2 7
  done;
  Cm.classify trace2;
  check Alcotest.bool "bucket change" true
    (Cm.merge_into ~virgin trace2 = Cm.New_bucket);
  (* a different index: New_tuple again *)
  let trace3 = Cm.create ~size_log2:8 () in
  Cm.hit trace3 8;
  Cm.classify trace3;
  check Alcotest.bool "new index" true (Cm.merge_into ~virgin trace3 = Cm.New_tuple)

let test_copy_and_hash () =
  let m = Cm.create ~size_log2:8 () in
  Cm.hit m 1;
  Cm.hit m 200;
  let m2 = Cm.copy m in
  check Alcotest.int "hash equal" (Cm.hash m) (Cm.hash m2);
  Cm.hit m2 3;
  check Alcotest.bool "hash differs" true (Cm.hash m <> Cm.hash m2)

let prop_merge_idempotent =
  QCheck.Test.make ~count:200 ~name:"merging a trace twice yields Nothing"
    QCheck.(list_of_size Gen.(int_range 1 50) (int_bound 10_000))
    (fun idxs ->
      let virgin = Cm.create_virgin ~size_log2:12 () in
      let trace = Cm.create ~size_log2:12 () in
      List.iter (Cm.hit trace) idxs;
      Cm.classify trace;
      ignore (Cm.merge_into ~virgin trace);
      Cm.merge_into ~virgin trace = Cm.Nothing)

let prop_journal_matches_bytes =
  QCheck.Test.make ~count:200 ~name:"journal agrees with raw bytes"
    QCheck.(list_of_size Gen.(int_range 0 100) (int_bound 4095))
    (fun idxs ->
      let m = Cm.create ~size_log2:12 () in
      List.iter (Cm.hit m) idxs;
      let expected = List.sort_uniq compare idxs in
      Cm.set_indices m = expected
      && Array.to_list (Cm.sorted_indices m) = expected
      && Cm.count_set m = List.length expected)

(* [sorted_indices] is an LSD radix sort over 8-bit digits: sizes 2^4,
   2^8 (one pass), 2^9, 2^16 (two), 2^17, 2^24 (three), full and partial
   top digits. Against a reference sort, on random hit lists biased to
   index 0 and the last index; the call must leave the journal (and so
   [classify], [merge_into] and [clear]) exactly as an untouched twin
   map's. One rig per size, reused across cases — the scratch buffers
   persist as they do in a campaign. *)
let radix_sizes = [| 4; 8; 9; 16; 17; 24 |]

type rig = { trace : Cm.t; twin : Cm.t; v1 : Cm.t; v2 : Cm.t }

let rigs =
  Array.map
    (fun size_log2 ->
      lazy
        {
          trace = Cm.create ~size_log2 ();
          twin = Cm.create ~size_log2 ();
          v1 = Cm.create_virgin ~size_log2 ();
          v2 = Cm.create_virgin ~size_log2 ();
        })
    radix_sizes

let journal m =
  let l = ref [] in
  Cm.iteri_set (fun i c -> l := (i, c) :: !l) m;
  !l

(* Hit [idxs] (each [reps] times) in both maps, sort one, compare. *)
let radix_agrees (r : rig) idxs ~reps =
  List.iter
    (fun i ->
      for _ = 1 to reps do
        Cm.hit r.trace i;
        Cm.hit r.twin i
      done)
    idxs;
  let before = journal r.trace in
  let got = Cm.sorted_indices r.trace in
  let sorted = Array.to_list got = List.sort_uniq compare idxs in
  let journal_kept = journal r.trace = before in
  Cm.classify r.trace;
  Cm.classify r.twin;
  let classify_same = journal r.trace = journal r.twin in
  let merge_same =
    Cm.merge_into ~virgin:r.v1 r.trace = Cm.merge_into ~virgin:r.v2 r.twin
    && Cm.equal r.v1 r.v2
  in
  Cm.clear r.trace;
  Cm.clear r.twin;
  let cleared =
    Cm.count_set r.trace = 0
    && Cm.sorted_indices r.trace = [||]
    && List.for_all (fun i -> Cm.get r.trace i = 0) idxs
  in
  sorted && journal_kept && classify_same && merge_same && cleared

let prop_sorted_indices_radix =
  QCheck.Test.make ~count:300 ~name:"radix sorted_indices agrees with a reference sort"
    QCheck.(
      triple (int_bound (Array.length radix_sizes - 1)) (int_range 1 3)
        (list_of_size Gen.(int_range 0 600) (int_bound max_int)))
    (fun (si, reps, raws) ->
      let size = 1 lsl radix_sizes.(si) in
      let idx raw =
        match raw mod 8 with 0 -> 0 | 1 -> size - 1 | _ -> raw / 8 mod size
      in
      radix_agrees (Lazy.force rigs.(si)) (List.map idx raws) ~reps)

(* Empty maps at every size; full maps where they fit a test (up to 2^17
   — a full 2^24 map would need ~400 MB of index arrays), hit in a
   scrambled order. *)
let test_sorted_indices_edges () =
  Array.iteri
    (fun si size_log2 ->
      let r = Lazy.force rigs.(si) in
      check Alcotest.bool
        (Printf.sprintf "2^%d empty" size_log2)
        true (radix_agrees r [] ~reps:1);
      if size_log2 <= 17 then begin
        let size = 1 lsl size_log2 in
        let all = List.init size (fun k -> (k * 0x9E3779B1) land (size - 1)) in
        check Alcotest.bool
          (Printf.sprintf "2^%d full" size_log2)
          true (radix_agrees r all ~reps:1)
      end)
    radix_sizes

(* --- feedback listeners --- *)

let run_with_feedback fb prog input =
  let hooks =
    {
      Vm.Interp.no_hooks with
      h_call = fb.Pathcov.Feedback.on_call;
      h_block = fb.Pathcov.Feedback.on_block;
      h_edge = fb.Pathcov.Feedback.on_edge;
      h_ret = fb.Pathcov.Feedback.on_ret;
    }
  in
  fb.Pathcov.Feedback.reset ();
  Cm.clear fb.trace;
  ignore (Vm.Interp.run ~hooks prog ~input);
  Cm.classify fb.trace;
  List.map (fun i -> (i, Cm.get fb.trace i)) (Cm.set_indices fb.trace)

(* Two inputs that traverse the same edge set along different paths:
   in the two-diamond function, inputs 10 (T,F) and 03 (F,T) jointly cover
   all four arms; then 13 (T,T) adds no new edge but is a new path. *)
let two_diamond_src =
  "fn f(a, c) { var y = 0; if (a) { y = 1; } else { y = 2; } if (c) { y = y + \
   10; } else { y = y + 20; } return y; }\n\
   fn main() { return f(in(0) - 48, in(1) - 48); }"

let test_path_discriminates_edge_does_not () =
  let prog = Minic.Lower.compile two_diamond_src in
  let check_mode mode expect_novel =
    let fb = Pathcov.Feedback.make mode prog in
    let virgin = Cm.create_virgin () in
    let merge input =
      ignore (run_with_feedback fb prog input);
      Cm.merge_into ~virgin fb.trace
    in
    ignore (merge "10");
    ignore (merge "03");
    let n = merge "13" in
    check Alcotest.bool
      (Pathcov.Feedback.mode_name mode ^ " novelty for third input")
      expect_novel
      (n <> Cm.Nothing)
  in
  (* edge coverage: all edges already seen -> no novelty *)
  check_mode Pathcov.Feedback.Edge false;
  (* path coverage: the (T,T) combination is a brand-new acyclic path *)
  check_mode Pathcov.Feedback.Path true

let test_edge_feedback_orders () =
  (* edge coverage distinguishes A->B from B->A *)
  let src =
    "fn a() { return 1; } fn b() { return 2; } fn main() { if (in(0) == 104) { \
     a(); b(); } else { b(); a(); } return 0; }"
  in
  let prog = Minic.Lower.compile src in
  let fb = Pathcov.Feedback.make Pathcov.Feedback.Edge prog in
  let t1 = run_with_feedback fb prog "h" in
  let t2 = run_with_feedback fb prog "x" in
  check Alcotest.bool "different maps" true (t1 <> t2)

let test_block_coarser_than_edge () =
  let prog = Minic.Lower.compile two_diamond_src in
  let fb_block = Pathcov.Feedback.make Pathcov.Feedback.Block prog in
  let fb_path = Pathcov.Feedback.make Pathcov.Feedback.Path prog in
  let count fb input = List.length (run_with_feedback fb prog input) in
  (* block count is bounded by total blocks; path adds per-activation ids *)
  check Alcotest.bool "block <= path+blocks sanity" true
    (count fb_block "13" > 0 && count fb_path "13" > 0)

let test_ngram_and_pathafl_smoke () =
  let prog = Minic.Lower.compile two_diamond_src in
  List.iter
    (fun mode ->
      let fb = Pathcov.Feedback.make mode prog in
      let t = run_with_feedback fb prog "13" in
      check Alcotest.bool (Pathcov.Feedback.mode_name mode ^ " produces coverage")
        true (t <> []))
    [ Pathcov.Feedback.Ngram 2; Pathcov.Feedback.Ngram 4; Pathcov.Feedback.Pathafl ]

let test_path_feedback_survives_crash () =
  (* a crash unwinds mid-path; reset must clear leftover registers *)
  let src = "fn main() { var a = array(2); if (in(0) == 104) { a[9] = 1; } return 0; }" in
  let prog = Minic.Lower.compile src in
  let fb = Pathcov.Feedback.make Pathcov.Feedback.Path prog in
  ignore (run_with_feedback fb prog "h");
  (* crashing run *)
  let t = run_with_feedback fb prog "x" in
  check Alcotest.bool "clean run commits" true (t <> [])

(* What each mode records, pinned independently of the engines: the
   interpreters all read one probe description, so the differential
   suites cannot see a change to the description itself. Digest of the
   interp-engine trace (sorted index:count pairs per seed) per mode, and
   of the selective-tracing signal per seed, over cflow's and sqlite3's
   seeds. *)
let semantics_pins =
  [
    ( "cflow",
      [
        (Pathcov.Feedback.Block, "ea8f20d7b7283a0f4886d237077beff5");
        (Pathcov.Feedback.Edge, "b060b745292d4b91d671359265b7caee");
        (Pathcov.Feedback.Ngram 2, "74f2d79f65485345837630624d002d6f");
        (Pathcov.Feedback.Ngram 4, "a2402cd1fd6bbcdd620bbd3deb4d8b25");
        (Pathcov.Feedback.Path, "148fe1d290010adba77105b99fd659c5");
        (Pathcov.Feedback.Pathafl, "9d53a8e0a03cafe660f3178bb0a6ef5d");
      ],
      "cba7e068e0117931bf521db5ab7350d3" );
    ( "sqlite3",
      [
        (Pathcov.Feedback.Block, "a688148ba75e1b92bcf2fd4c756dffcc");
        (Pathcov.Feedback.Edge, "6c885ab7c1004561e136e6b623bd455c");
        (Pathcov.Feedback.Ngram 2, "22b08f1c42475a446c2673fd5cca1a5b");
        (Pathcov.Feedback.Ngram 4, "951edca5535ddfddf30b375459894983");
        (Pathcov.Feedback.Path, "f83cfa032e69075baa1c23e376ecfb3d");
        (Pathcov.Feedback.Pathafl, "e1b832f4ec132c6a10b4778781049e5e");
      ],
      "00be8d5656f8a30351fa7893a3b97371" );
  ]

let test_mode_semantics_pinned () =
  List.iter
    (fun (name, modes, signal_pin) ->
      let s = Subjects.Registry.find_exn name in
      let prog = Subjects.Subject.program s in
      let digest f =
        let b = Buffer.create 4096 in
        List.iter (fun input -> f b input) s.seeds;
        Digest.to_hex (Digest.string (Buffer.contents b))
      in
      List.iter
        (fun (mode, pin) ->
          let fb = Pathcov.Feedback.make mode prog in
          let hooks =
            {
              Vm.Interp.no_hooks with
              h_call = fb.on_call;
              h_block = fb.on_block;
              h_edge = fb.on_edge;
              h_ret = fb.on_ret;
            }
          in
          check Alcotest.string
            (Printf.sprintf "%s/%s trace digest" name
               (Pathcov.Feedback.mode_name mode))
            pin
            (digest (fun b input ->
                 fb.reset ();
                 Cm.clear fb.trace;
                 ignore (Vm.Interp.run ~hooks prog ~input);
                 Array.iter
                   (fun i -> Printf.bprintf b "%d:%d;" i (Cm.get fb.trace i))
                   (Cm.sorted_indices fb.trace);
                 Buffer.add_char b '|')))
        modes;
      let prepared = Vm.Interp.prepare prog in
      let cell = ref 0 in
      let ctx =
        Vm.Interp.create_ctx
          ~hooks:(Vm.Compile.signal_hooks prepared ~cell)
          prepared
      in
      check Alcotest.string (name ^ " signal digest") signal_pin
        (digest (fun b input ->
             cell := 0;
             ignore (Vm.Interp.run_ctx ctx ~input);
             Printf.bprintf b "%d;" !cell)))
    semantics_pins

(* [Ngram n] needs n >= 2; every engine refuses anything else at
   construction instead of failing (or silently running) later. *)
let test_ngram_validated () =
  let prog = Minic.Lower.compile two_diamond_src in
  let prepared = Vm.Interp.prepare prog in
  List.iter
    (fun n ->
      let mode = Pathcov.Feedback.Ngram n in
      let raises what f =
        match f () with
        | _ -> fail (Printf.sprintf "%s accepted ngram%d" what n)
        | exception Invalid_argument _ -> ()
      in
      raises "Feedback.make" (fun () -> ignore (Pathcov.Feedback.make mode prog));
      raises "Compile.compile" (fun () ->
          ignore (Vm.Compile.compile prepared (Vm.Compile.Sfull mode)));
      raises "Emit.instance" (fun () ->
          ignore (Vm.Emit.instance prepared (Vm.Compile.Sfull mode))))
    [ 0; 1 ]

let prop_feedback_deterministic =
  QCheck.Test.make ~count:60 ~name:"listeners are deterministic"
    (QCheck.pair Gen.arbitrary_ir Gen.arbitrary_input)
    (fun (prog, input) ->
      List.for_all
        (fun mode ->
          let fb = Pathcov.Feedback.make mode prog in
          let a = run_with_feedback fb prog input in
          let b = run_with_feedback fb prog input in
          a = b)
        [ Pathcov.Feedback.Edge; Pathcov.Feedback.Path; Pathcov.Feedback.Ngram 2 ])

let suite =
  [
    ( "coverage-map",
      [
        Alcotest.test_case "bucketing" `Quick test_bucketing;
        Alcotest.test_case "hit and clear" `Quick test_hit_and_clear;
        Alcotest.test_case "saturation" `Quick test_saturation;
        Alcotest.test_case "classify" `Quick test_classify;
        Alcotest.test_case "novelty transitions" `Quick test_novelty_transitions;
        Alcotest.test_case "copy and hash" `Quick test_copy_and_hash;
        Alcotest.test_case "sorted_indices empty and full maps" `Quick
          test_sorted_indices_edges;
      ] );
    ( "feedback",
      [
        Alcotest.test_case "path discriminates where edge cannot" `Quick
          test_path_discriminates_edge_does_not;
        Alcotest.test_case "edge feedback sees orders" `Quick test_edge_feedback_orders;
        Alcotest.test_case "block vs path sanity" `Quick test_block_coarser_than_edge;
        Alcotest.test_case "ngram and pathafl smoke" `Quick test_ngram_and_pathafl_smoke;
        Alcotest.test_case "path feedback survives crash" `Quick
          test_path_feedback_survives_crash;
        Alcotest.test_case "mode semantics pinned" `Quick
          test_mode_semantics_pinned;
        Alcotest.test_case "invalid ngram rejected by every engine" `Quick
          test_ngram_validated;
      ] );
    ( "coverage-properties",
      List.map QCheck_alcotest.to_alcotest
        [
          prop_merge_idempotent;
          prop_journal_matches_bytes;
          prop_feedback_deterministic;
          prop_sorted_indices_radix;
        ] );
  ]
