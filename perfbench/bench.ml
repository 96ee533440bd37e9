(* The campaign benchmark's in-process runner. It runs complete fuzzing
   campaigns through the library's public API only, and prints one JSON
   object per invocation. perfbench/run.py orchestrates the invocations
   (references, set-up repetitions, timed and traced runs) and turns
   their output into the benchmark's metrics; perfbench/README.md
   describes the workloads and every metric.

   Subcommands (all take --workload NAME --seed N [--tiny]):
     ref       print the reference fingerprint of every campaign (or of
               one --variant), one line each, computed on the interp
               engine
     run       set up (timed, --setup-reps times), then run campaign
               rounds for --seconds with no clock and no trace,
               checking every outcome
     trace     the traced run: set-up spans, alternating untraced and
               traced rounds, then a replay of the final queues through
               each layer's public functions
     warmload  time Vm.Emit.preload over an already filled --cache *)

open Fuzz
module Cmap = Pathcov.Coverage_map

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Workloads *)

type shape = Sequential | Sharded of int

(* Sharded campaigns run their shards on one domain. Shard.run's results
   do not depend on the worker count, and on a host of a few shared cores
   a second domain makes a run's wall a measure of the scheduler: each
   merge barrier waits for the slowest domain, and every minor collection
   stops both. *)
let shard_workers = 1

type workload = {
  name : string;
  fuzzer : Strategy.fuzzer;
  engine : Tracer.engine;
  selective : bool;
  subjects : string list;
  budget : int;  (** executions per campaign *)
  shape : shape;
}

(* Why each workload exists is recorded in BENCHMARK.json and README.md. *)
let workloads =
  [
    {
      name = "path-native";
      fuzzer = Strategy.path;
      engine = Tracer.Native;
      selective = false;
      subjects = [ "sqlite3"; "cflow"; "mujs" ];
      budget = 40_000;
      shape = Sequential;
    };
    {
      name = "pathafl-retain";
      fuzzer = Strategy.pathafl;
      engine = Tracer.Interp;
      selective = false;
      subjects = [ "sqlite3"; "cflow" ];
      budget = 10_000;
      shape = Sequential;
    };
    {
      name = "pcguard-shard-resume";
      fuzzer = Strategy.pcguard;
      engine = Tracer.Compiled;
      selective = true;
      subjects = [ "sqlite3" ];
      budget = 50_000;
      shape = Sharded 2;
    };
  ]

(* The self-check's budgets: large enough that a sharded campaign still
   crosses a checkpoint mark before its budget ends. *)
let tiny_budget (w : workload) = max 2_000 (w.budget / 20)

let mode_of (w : workload) : Pathcov.Feedback.mode =
  match w.fuzzer.spec with
  | Strategy.Plain m -> m
  | Strategy.Cull _ | Strategy.Opportunistic ->
      invalid_arg "perfbench: workloads use plain fuzzers only"

(* A run cycles through [variants] campaigns per subject, so one run
   averages over several trajectories. The workload seed reaches the
   library only as each campaign's RNG seed, derived from the campaign
   seed [cseed] of the variant and the subject's index. *)
let variants = 3
let variant_seed ~seed j = (seed * 16) + j
let campaign_seed ~cseed idx = (cseed * 1009) + idx + 1

let config (w : workload) ~budget ~cseed ~idx ~engine ~selective :
    Campaign.config =
  {
    Campaign.default_config with
    mode = mode_of w;
    budget;
    rng_seed = campaign_seed ~cseed idx;
    cmplog = w.fuzzer.cmplog;
    engine;
    selective;
  }

(* ------------------------------------------------------------------ *)
(* JSON output *)

let jstr = Obs.Snapshot.json_string

let jfloat v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let jobj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields) ^ "}"

let jlist items = "[" ^ String.concat ", " items ^ "]"

(* ------------------------------------------------------------------ *)
(* Set-up: make every subject ready to fuzz *)

type subj = {
  s : Subjects.Subject.t;
  idx : int;
  prog : Minic.Ir.program;
  plans : Pathcov.Ball_larus.program_plans;
  prepared : Vm.Interp.prepared;
}

type setup = {
  subjs : subj list;
  frontend_s : float;
  plan_s : float;
  prepare_s : float;
  emit_s : float;  (** cold Vm.Emit.preload (native workloads only) *)
  build_s : float;  (** closure-compiled artifacts (compiled workloads only) *)
  total_s : float;
  emit_problem : string option;
}

let campaign_specs (w : workload) =
  Vm.Compile.Sfull (mode_of w)
  :: (if w.selective then [ Vm.Compile.Ssignal ] else [])

let emit_entries (w : workload) specs subjs =
  List.concat_map
    (fun sj -> List.map (fun sp -> (sj.prepared, sp, w.fuzzer.cmplog)) specs)
    subjs

let preload entries : string option =
  let served = Vm.Emit.preload entries in
  if served = List.length entries then None
  else
    Some
      (Printf.sprintf "emit preload served %d of %d artifacts" served
         (List.length entries))

let timed f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

let build_compiled (w : workload) sj =
  ignore
    (Tracer.make ~plans:sj.plans ~shared:false ~engine:Tracer.Compiled
       ~selective:w.selective ~cmplog:w.fuzzer.cmplog ~mode:(mode_of w)
       sj.prepared)

(* Every subject through the frontend, Ball-Larus planning and VM
   preparation; returns the subjects and the seconds each step took. *)
let load_subjects (w : workload) : subj list * (float * float * float) =
  let fe = ref 0. and pl = ref 0. and pr = ref 0. in
  let add clock f =
    let x, dt = timed f in
    clock := !clock +. dt;
    x
  in
  let subjs =
    List.mapi
      (fun idx name ->
        let s = Subjects.Registry.find_exn name in
        let prog = add fe (fun () -> Subjects.Subject.compile_fresh s) in
        let plans = add pl (fun () -> Pathcov.Ball_larus.of_program prog) in
        (* the campaign's own [prepare_cached] lookup hits this entry *)
        let prepared = add pr (fun () -> Vm.Interp.prepare_cached prog) in
        { s; idx; prog; plans; prepared })
      w.subjects
  in
  (subjs, (!fe, !pl, !pr))

let do_setup (w : workload) : setup =
  let t_start = now () in
  let subjs, (frontend_s, plan_s, prepare_s) = load_subjects w in
  let emit_problem, emit_s =
    match w.engine with
    | Tracer.Native ->
        timed (fun () -> preload (emit_entries w (campaign_specs w) subjs))
    | Tracer.Interp | Tracer.Compiled | Tracer.Fused -> (None, 0.)
  in
  let (), build_s =
    match w.engine with
    | Tracer.Compiled -> timed (fun () -> List.iter (build_compiled w) subjs)
    | Tracer.Interp | Tracer.Native | Tracer.Fused -> ((), 0.)
  in
  {
    subjs;
    frontend_s;
    plan_s;
    prepare_s;
    emit_s;
    build_s;
    total_s = now () -. t_start;
    emit_problem;
  }

(* ------------------------------------------------------------------ *)
(* Outcome fingerprints *)

let digest_ints (a : int array) : string =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter
    (fun i ->
      Buffer.add_string b (string_of_int i);
      Buffer.add_char b ',')
    a;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Queue inputs in discovery order, a digest of the virgin map, the
   crash stack-hash set and the exec count. *)
let fingerprint (r : Campaign.result) ~(virgin : string) : string =
  let stacks =
    Hashtbl.fold (fun k _ acc -> k :: acc) r.triage.by_stack []
    |> List.sort compare |> Array.of_list
  in
  let queue =
    List.map (fun d -> string_of_int (String.length d) ^ ":" ^ d) (Campaign.queue_inputs r)
  in
  Printf.sprintf "q=%s/n=%d/v=%s/c=%s/u=%d/t=%d/x=%d"
    (Digest.to_hex (Digest.string (String.concat "" queue)))
    (Corpus.size r.corpus) virgin (digest_ints stacks) (Array.length stacks)
    r.triage.total_crashes r.execs

(* A sequential result does not carry its virgin map; its digest stands
   in from what the result does expose: the union of the queue's covered
   map indices and the virgin residual sampled at every snapshot row. *)
let seq_fingerprint (r : Campaign.result) : string =
  let residuals =
    Array.of_list
      (List.map (fun (row : Obs.Snapshot.row) -> row.virgin_residual) r.snapshots)
  in
  fingerprint r
    ~virgin:
      (digest_ints (Array.append (Corpus.covered_indices_arr r.corpus) residuals))

let shard_fingerprint (r : Shard.result) : string =
  fingerprint r.campaign
    ~virgin:
      (Printf.sprintf "%x.%x" (Cmap.bytes_hash r.virgin) (Cmap.bytes_hash r.crash_virgin))

(* ------------------------------------------------------------------ *)
(* References *)

type refs = (string * string * int * int, string) Hashtbl.t

let ref_line (w : workload) sj ~budget ~cseed fp =
  Printf.sprintf "%s %s %d %d %s" w.name sj.s.name budget cseed fp

let load_refs (path : string) : refs =
  let t = Hashtbl.create 16 in
  if path <> "" then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char ' ' (String.trim (input_line ic)) with
         | [ w; s; b; cseed; fp ] ->
             Hashtbl.replace t (w, s, int_of_string b, int_of_string cseed) fp
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  t

(* The reference never runs on the engine under test: the interp engine,
   and for a workload that already runs on interp, interp with selective
   tracing (whose trajectories are proven identical). A sharded
   reference runs on one shard: sharded trajectories depend only on
   (seed, sync interval). *)
let reference_fp (w : workload) ~budget ~cseed sj : string =
  let cfg =
    config w ~budget ~cseed ~idx:sj.idx ~engine:Tracer.Interp
      ~selective:(w.engine = Tracer.Interp)
  in
  match w.shape with
  | Sequential ->
      seq_fingerprint
        (Campaign.run ~plans:sj.plans ~config:cfg sj.prog ~seeds:sj.s.seeds)
  | Sharded _ ->
      shard_fingerprint
        (Shard.run ~plans:sj.plans ~workers:1
           { Shard.base = cfg; shards = 1; sync_interval = Shard.default_sync_interval }
           sj.prog ~seeds:sj.s.seeds)

(* ------------------------------------------------------------------ *)
(* Campaign legs *)

let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* One Campaign.run or Shard.run call. A sharded campaign is two legs:
   the straight run and the run resumed from its last checkpoint. *)
type leg = {
  wall : float;
  execs : int;  (** executions this call performed *)
  obs : Obs.Observer.t;
  base : Obs.Counters.t option;
      (** counters a resumed leg restored from its checkpoint *)
  corpus : Corpus.t option;
      (** final queue of a straight leg, kept only until the next round *)
  queue : int;  (** final queue size of a straight leg, 0 otherwise *)
  shard_items : (int * int) option;  (** straight sharded leg: dup_dropped, items *)
  read_s : float;  (** checkpoint read before a resumed leg *)
  minor_words : float;
  problems : string list;  (** why this leg failed; empty when it passed *)
}

let failed_leg reason =
  {
    wall = 0.;
    execs = 0;
    obs = Obs.Observer.create ();
    base = None;
    corpus = None;
    queue = 0;
    shard_items = None;
    read_s = 0.;
    minor_words = 0.;
    problems = [ reason ];
  }

let make_obs ~traced ~tracks =
  if traced then
    Obs.Observer.create ~clock:now ~trace:(Obs.Trace.create ~clock:now ~tracks ()) ()
  else Obs.Observer.create ()

(* Each call starts from a collected heap, as a campaign in a fresh
   process would, so one campaign's garbage neither slows the next nor
   grows the process's peak memory. *)
let call f =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  (r, t1 -. t0, Gc.minor_words () -. w0)

let check_fp ~(expect : string option) fp =
  match expect with
  | None -> [ "no reference fingerprint" ]
  | Some e when e = fp -> []
  | Some e -> [ Printf.sprintf "fingerprint %s differs from reference %s" fp e ]

let seq_legs ~traced ~cfg ~expect sj =
  let obs = make_obs ~traced ~tracks:1 in
  let r, wall, minor_words =
    call (fun () ->
        Campaign.run ~plans:sj.plans ~obs ~config:cfg sj.prog ~seeds:sj.s.seeds)
  in
  [
    {
      wall;
      execs = r.execs;
      obs;
      base = None;
      corpus = Some r.corpus;
      queue = Corpus.size r.corpus;
      shard_items = None;
      read_s = 0.;
      minor_words;
      problems = check_fp ~expect (seq_fingerprint r);
    };
  ]

let shard_legs (w : workload) ~traced ~(cfg : Campaign.config) ~shards ~expect
    ~work sj =
  let ck_path = Filename.concat work (sj.s.name ^ ".ckpt") in
  if Sys.file_exists ck_path then Sys.remove ck_path;
  let scfg =
    { Shard.base = cfg; shards; sync_interval = Shard.default_sync_interval }
  in
  let obs = make_obs ~traced ~tracks:(shards + 1) in
  let m = obs.metrics in
  let sink =
    {
      Checkpoint.every = max 1 (cfg.budget / 4);
      subject = sj.s.name;
      fuzzer = w.fuzzer.name;
      save =
        (fun ck ->
          let bytes, dt = timed (fun () -> Checkpoint.write_file ~path:ck_path ck) in
          Obs.Metrics.bump (Obs.Metrics.counter m "checkpoint.writes");
          Obs.Metrics.observe (Obs.Metrics.hist m "checkpoint.bytes") bytes;
          Obs.Metrics.add_wall (Obs.Metrics.wall m "checkpoint.write_s") dt);
    }
  in
  let r, wall, minor_words =
    call (fun () ->
        Shard.run ~plans:sj.plans ~obs ~workers:shard_workers ~checkpoint:sink scfg
          sj.prog ~seeds:sj.s.seeds)
  in
  let fp = shard_fingerprint r in
  let straight =
    {
      wall;
      execs = r.campaign.execs;
      obs;
      base = None;
      corpus = Some r.campaign.corpus;
      queue = Corpus.size r.campaign.corpus;
      shard_items = Some (r.dup_dropped, r.items);
      read_s = 0.;
      minor_words;
      problems = check_fp ~expect fp;
    }
  in
  let ck, read_s =
    timed (fun () ->
        if Sys.file_exists ck_path then Checkpoint.read_file ck_path
        else Error "no checkpoint was written")
  in
  let expected_id =
    {
      Checkpoint.subject = sj.s.name;
      fuzzer = w.fuzzer.name;
      mode = Pathcov.Feedback.mode_name cfg.mode;
      cmplog = cfg.cmplog;
      rng_seed = cfg.rng_seed;
      budget = cfg.budget;
      fuel = cfg.fuel;
      max_depth = cfg.max_depth;
      map_size_log2 = cfg.map_size_log2;
      max_queue = cfg.max_queue;
      sync_interval = scfg.sync_interval;
    }
  in
  let resumed =
    match Result.bind ck (fun ck ->
        Result.map (fun () -> ck) (Checkpoint.check_compat ~expected:expected_id ck))
    with
    | Error e -> { (failed_leg ("resume: " ^ e)) with read_s }
    | Ok ck ->
        let obs2 = make_obs ~traced ~tracks:(shards + 1) in
        let r2, wall2, minor_words2 =
          call (fun () ->
              Shard.run ~plans:sj.plans ~obs:obs2 ~workers:shard_workers ~resume:ck scfg
                sj.prog ~seeds:sj.s.seeds)
        in
        let fp2 = shard_fingerprint r2 in
        {
          wall = wall2;
          execs = r2.campaign.execs - ck.progress.execs;
          obs = obs2;
          base = Some ck.counters;
          corpus = None;
          queue = 0;
          shard_items = None;
          read_s;
          minor_words = minor_words2;
          problems =
            (if fp2 <> fp then [ "resumed leg differs from the straight leg" ]
             else [])
            @ check_fp ~expect fp2;
        }
  in
  [ straight; resumed ]

(* The native workload must neither compile nor fall back inside a timed
   campaign: the emitter's and the closure compiler's tallies, which the
   campaign harvests into its own metrics, must still read what set-up
   left. *)
let native_guard (w : workload) (st : setup) : Obs.Observer.t -> string list =
  match w.engine with
  | Tracer.Native ->
      let e0 = Vm.Emit.stats () in
      let _, compile_misses0 = Vm.Compile.cache_stats () in
      fun obs ->
        let g = Obs.Metrics.gauge_value obs.metrics in
        Option.to_list st.emit_problem
        @ (if g "emit.cache_misses" <> e0.cache_misses then
             [ "an emit compile leaked into the timed campaign" ]
           else [])
        @ (if g "emit.fallbacks" <> e0.fallbacks then
             [ "the native engine fell back" ]
           else [])
        @
        if g "engine.cache_misses" <> compile_misses0 then
          [ "a closure compile leaked into the timed campaign" ]
        else []
  | Tracer.Interp | Tracer.Compiled | Tracer.Fused -> fun _ -> []

let subject_legs (w : workload) ~traced ~budget ~cseed ~refs ~work ~guard sj =
  let cfg =
    config w ~budget ~cseed ~idx:sj.idx ~engine:w.engine ~selective:w.selective
  in
  let expect = Hashtbl.find_opt refs (w.name, sj.s.name, budget, cseed) in
  match
    match w.shape with
    | Sequential -> seq_legs ~traced ~cfg ~expect sj
    | Sharded shards -> shard_legs w ~traced ~cfg ~shards ~expect ~work sj
  with
  | legs -> List.map (fun l -> { l with problems = l.problems @ guard l.obs }) legs
  | exception e -> [ failed_leg ("exception: " ^ Printexc.to_string e) ]

(* One campaign per subject; returns every leg and, per campaign, its
   subject with its summed wall and executions. *)
let round (w : workload) ~traced ~budget ~cseed ~refs ~work ~guard (st : setup) =
  let per =
    List.map
      (fun sj ->
        let legs = subject_legs w ~traced ~budget ~cseed ~refs ~work ~guard sj in
        let wall = sumf (fun l -> l.wall) legs in
        let execs = sumi (fun l -> l.execs) legs in
        Printf.eprintf "campaign %s cseed=%d traced=%b wall=%.4f execs=%d\n%!" sj.s.name
          cseed traced wall execs;
        (legs, ((sj.s.name, cseed), wall, execs)))
      st.subjs
  in
  ( List.concat_map fst per,
    List.filter (fun (_, wall, _) -> wall > 0.) (List.map snd per) )

(* Legs outlive their round only for their figures: dropping the queue
   keeps earlier rounds from growing the process's memory. *)
let forget_queue (l : leg) = { l with corpus = None }

let median = Stats.median_float

(* Executions per second over one pass of every campaign: per campaign
   (subject and campaign seed), the median executions and the median wall
   of its repetitions, summed over campaigns. Summing over the campaign
   seeds weighs every trajectory of the run alike, so the figure depends
   little on which seeds the run's --seed picks; the medians keep it
   steady when the machine slows for a few seconds. *)
let median_rate samples =
  let keys = List.sort_uniq compare (List.map (fun (k, _, _) -> k) samples) in
  let execs, wall =
    List.fold_left
      (fun (e, w) k ->
        let mine = List.filter (fun (k', _, _) -> k' = k) samples in
        ( e +. median (List.map (fun (_, _, x) -> float_of_int x) mine),
          w +. median (List.map (fun (_, w, _) -> w) mine) ))
      (0., 0.) keys
  in
  if wall > 0. then execs /. wall else 0.

(* ------------------------------------------------------------------ *)
(* Machine record and summary fields *)

let peak_rss_kb () : int =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
      | _ -> scan ()
      | exception End_of_file -> 0
    in
    let v = scan () in
    close_in ic;
    v
  with Sys_error _ -> 0

let machine () =
  jobj
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", jstr Sys.ocaml_version);
      ( "ocamlfind_ocamlopt",
        string_of_bool
          (Sys.command "ocamlfind ocamlopt -version > /dev/null 2>&1" = 0) );
      ("emitter_version", string_of_int Vm.Emit.emitter_version);
    ]

let outcome_fields (legs : leg list) =
  let failed = List.filter (fun l -> l.problems <> []) legs in
  let problems =
    List.sort_uniq compare (List.concat_map (fun l -> l.problems) failed)
  in
  [
    ("attempted", string_of_int (List.length legs));
    ("failed", string_of_int (List.length failed));
    ("problems", jlist (List.map jstr (List.filteri (fun i _ -> i < 8) problems)));
  ]

(* ------------------------------------------------------------------ *)
(* Subcommands *)

let cmd_ref (w : workload) ~budget ~seed ~only =
  let subjs, _ = load_subjects w in
  for j = 0 to variants - 1 do
    let cseed = variant_seed ~seed j in
    if only = None || only = Some j then
      List.iter
        (fun sj ->
          print_endline
            (ref_line w sj ~budget ~cseed (reference_fp w ~budget ~cseed sj)))
        subjs
  done

(* [setup_reps] set-ups in one process, each from a collected heap,
   reported as their median; a native set-up cannot be repeated
   in-process (loaded units stay registered), so it always runs once. *)
let cmd_run (w : workload) ~budget ~seed ~seconds ~refs ~work ~setup_reps =
  let reps = if w.engine = Tracer.Native then 1 else max 1 setup_reps in
  let setups =
    List.init reps (fun _ ->
        Gc.full_major ();
        do_setup w)
  in
  let st = List.nth setups (reps - 1) in
  let guard = native_guard w st in
  let legs = ref [] and samples = ref [] and rounds = ref 0 in
  let t_end = now () +. seconds in
  while seconds > 0. && (!rounds < variants || now () < t_end) do
    let cseed = variant_seed ~seed (!rounds mod variants) in
    let l, s = round w ~traced:false ~budget ~cseed ~refs ~work ~guard st in
    legs := !legs @ List.map forget_queue l;
    samples := !samples @ s;
    incr rounds
  done;
  print_endline
    (jobj
       ([
          ("mode", jstr "run");
          ("workload", jstr w.name);
          ("seed", string_of_int seed);
          ("budget", string_of_int budget);
          ("rounds", string_of_int !rounds);
          ("setup_s", jfloat (median (List.map (fun s -> s.total_s) setups)));
          ("execs_per_s", jfloat (median_rate !samples));
          ("peak_rss_kb", string_of_int (peak_rss_kb ()));
          ("machine", machine ());
        ]
       @ outcome_fields !legs))

let cmd_warmload (w : workload) =
  let subjs, _ = load_subjects w in
  let entries = emit_entries w [ Vm.Compile.Sfull (mode_of w) ] subjs in
  let served, dt = timed (fun () -> Vm.Emit.preload entries) in
  print_endline
    (jobj
       [
         ("mode", jstr "warmload");
         ("warm_load_s", jfloat dt);
         ("served", string_of_int served);
         ("wanted", string_of_int (List.length entries));
         ("compiled", string_of_int (Vm.Emit.stats ()).cache_misses);
       ])

(* --- layer replay over the final queues --- *)

let min_replay_s = 0.1

(* Repeat [pass] (which performs [n] operations and returns the seconds
   it spent on them) until [min_replay_s] of work is measured; returns
   (seconds, operations). *)
let repeat ~n pass =
  let secs = ref 0. and ops = ref 0 in
  while n > 0 && (!ops = 0 || (!secs < min_replay_s && !ops < 1_000_000_000)) do
    secs := !secs +. pass ();
    ops := !ops + n
  done;
  (!secs, !ops)

type replay = {
  mutable r_time : (string * (float * int)) list;  (** name -> seconds, ops *)
  mutable favored_ms : float;
  mutable problems : string list;  (** native replays that fell back *)
}

let add_time r name (s, n) =
  let s0, n0 = Option.value ~default:(0., 0) (List.assoc_opt name r.r_time) in
  r.r_time <- (name, (s0 +. s, n0 + n)) :: List.remove_assoc name r.r_time

let ns_per r name =
  match List.assoc_opt name r.r_time with
  | Some (s, n) when n > 0 -> s *. 1e9 /. float_of_int n
  | _ -> 0.

let replay_subject (w : workload) (r : replay) sj (corpus : Corpus.t) =
  let entries = Array.of_list (Corpus.to_list corpus) in
  let n = Array.length entries in
  let inputs = Array.map (fun (e : Corpus.entry) -> Bytes.of_string e.data) entries in
  (* an execution context wired exactly as a campaign wires its own *)
  let exec_setup ~engine ~selective =
    let cfg = config w ~budget:w.budget ~cseed:0 ~idx:sj.idx ~engine ~selective in
    let fb =
      Pathcov.Feedback.make ~size_log2:cfg.map_size_log2 ~plans:sj.plans cfg.mode
        sj.prog
    in
    let cmp_buf = Campaign.make_cmp_buf () in
    let hooks = Campaign.make_hooks cfg fb cmp_buf in
    let ctx = Vm.Interp.create_ctx ~hooks sj.prepared in
    let tracer =
      Tracer.make ~plans:sj.plans ~engine ~selective ~cmplog:cfg.cmplog
        ~mode:cfg.mode sj.prepared
    in
    Option.iter
      (fun why ->
        r.problems <- Printf.sprintf "replay on %s fell back: %s" sj.s.name why :: r.problems)
      (Tracer.emit_fallback tracer);
    Tracer.bind tracer ~trace:fb.trace ~h_cmp:hooks.Vm.Interp.h_cmp;
    let gen k =
      fb.reset ();
      Cmap.clear fb.trace;
      cmp_buf.n_cmps <- 0;
      (inputs.(k), Bytes.length inputs.(k))
    in
    (cfg, fb, ctx, tracer, gen)
  in
  let time_engine name ~engine ~selective =
    let cfg, _, ctx, tracer, gen = exec_setup ~engine ~selective in
    let batch = if selective then Tracer.run_signal_batch else Tracer.run_full_batch in
    add_time r name
      (repeat ~n (fun () ->
           snd
             (timed (fun () ->
                  batch tracer ctx ~fuel:cfg.fuel ~max_depth:cfg.max_depth ~n ~gen
                    ~sink:(fun _ _ -> ())))))
  in
  (* the interpreter, the baseline of emit.breakeven_execs, and the
     workload's own engine; the engines it does not run read 0 *)
  time_engine "interp" ~engine:Tracer.Interp ~selective:false;
  (match w.engine with
  | Tracer.Compiled -> time_engine "compile" ~engine:Tracer.Compiled ~selective:false
  | Tracer.Native -> time_engine "emit" ~engine:Tracer.Native ~selective:false
  | Tracer.Interp | Tracer.Fused -> ());
  if w.selective then time_engine "signal" ~engine:w.engine ~selective:true;
  (* mutator *)
  let sc = Mutator.create_scratch () and rng = Rng.create (sj.idx + 7) in
  add_time r "havoc"
    (repeat ~n (fun () ->
         snd
           (timed (fun () ->
                for k = 0 to n - 1 do
                  ignore
                    (Mutator.havoc_into sc
                       ~splice_with:entries.((k + 1) mod n).data
                       rng entries.(k).data)
                done))));
  (* coverage map: raw traces of an evenly spread sample of the queue *)
  let cfg, fb, ctx, tracer, gen = exec_setup ~engine:Tracer.Interp ~selective:false in
  let m = min n 256 in
  let maps =
    Array.init m (fun j ->
        let k = j * n / m in
        ignore (gen k);
        ignore
          (Tracer.run_full_sub tracer ctx ~fuel:cfg.fuel ~max_depth:cfg.max_depth
             ~buf:inputs.(k) ~len:(Bytes.length inputs.(k)));
        Cmap.copy fb.trace)
  in
  let over_maps f = snd (timed (fun () -> Array.iter f maps)) in
  add_time r "classify" (repeat ~n:m (fun () -> over_maps Cmap.classify));
  add_time r "merge"
    (repeat ~n:m (fun () ->
         let virgin = Cmap.create_virgin ~size_log2:cfg.map_size_log2 () in
         over_maps (fun t -> ignore (Cmap.merge_into ~virgin t))));
  add_time r "sorted_indices"
    (repeat ~n:m (fun () -> over_maps (fun t -> ignore (Cmap.sorted_indices t))));
  (* corpus: rebuild the final queue, then claim top-rated slots *)
  let rebuild () =
    let c = Corpus.create () in
    let added =
      Array.map
        (fun (e : Corpus.entry) ->
          Corpus.add c ~data:e.data ~indices:e.indices ~exec_blocks:e.exec_blocks
            ~depth:e.depth ~found_at:e.found_at)
        entries
    in
    (c, added)
  in
  add_time r "corpus_add"
    (repeat ~n (fun () -> snd (timed (fun () -> ignore (rebuild ())))));
  let last = ref (Corpus.create ()) in
  add_time r "top_rated"
    (repeat ~n (fun () ->
         let c, added = rebuild () in
         last := c;
         snd (timed (fun () -> Array.iter (Corpus.claim_top_rated c) added))));
  r.favored_ms <-
    r.favored_ms
    +. 1e3
       *. median
            (List.init 5 (fun _ ->
                 snd (timed (fun () -> Corpus.recompute_favored !last))))

(* --- traced run --- *)

let cmd_trace (w : workload) ~budget ~seed ~seconds ~refs ~work =
  let st = do_setup w in
  let emit_units = (Vm.Emit.stats ()).cache_misses in
  let guard = native_guard w st in
  let plain = ref [] and traced = ref [] in
  let plain_walls = ref [] and traced_walls = ref [] in
  let t_end = now () +. seconds in
  let last_traced = ref [] in
  while List.length !traced_walls < variants || now () < t_end do
    let cseed = variant_seed ~seed (List.length !traced_walls mod variants) in
    let p, _ = round w ~traced:false ~budget ~cseed ~refs ~work ~guard st in
    plain := !plain @ List.map forget_queue p;
    plain_walls := sumf (fun l -> l.wall) p :: !plain_walls;
    let t, _ = round w ~traced:true ~budget ~cseed ~refs ~work ~guard st in
    traced := !traced @ List.map forget_queue t;
    traced_walls := sumf (fun l -> l.wall) t :: !traced_walls;
    last_traced := t
  done;
  let legs = !traced in
  let per_round = float_of_int (List.length !traced_walls) in
  (* replay the last traced round's final queues *)
  let rp = { r_time = []; favored_ms = 0.; problems = [] } in
  let corpora = List.filter_map (fun l -> l.corpus) !last_traced in
  if List.length corpora = List.length st.subjs then
    List.iter2 (replay_subject w rp) st.subjs corpora;
  (* per-leg readers *)
  let tr l = Option.get l.obs.trace in
  let agg0 k l = snd (Obs.Trace.agg (tr l) ~track:0 k) in
  let agg k l = snd (Obs.Trace.agg_all (tr l) k) in
  let counter f l =
    f l.obs.counters -. match l.base with Some b -> f b | None -> 0.
  in
  let wall name l = Obs.Metrics.wall_value l.obs.metrics name in
  let shards = match w.shape with Sharded s -> s | Sequential -> 0 in
  let per_shard name l =
    sumf (fun s -> wall (Printf.sprintf "shard%d.%s" s name) l) (List.init shards Fun.id)
  in
  let attributed l =
    if Obs.Trace.n_tracks (tr l) = 1 then
        agg0 Obs.Trace.Compile l +. agg0 Obs.Trace.Exec l
        +. agg0 Obs.Trace.Calibrate l +. agg0 Obs.Trace.Checkpoint l
    else
        (* coordinator spans plus the epoch fan-out (the shards' epochs,
           back to back on one worker) plus the per-shard artifact builds *)
        agg0 Obs.Trace.Plan l +. agg0 Obs.Trace.Merge l +. agg0 Obs.Trace.Checkpoint l
        +. per_shard "busy_s" l +. wall "engine.compile_s" l
  in
  let ok = List.filter (fun l -> Option.is_some l.obs.trace) in
  let legs_ok = ok legs in
  (* shard and checkpoint figures read 0 on a sequential workload *)
  let shard_ok = match w.shape with Sharded _ -> legs_ok | Sequential -> [] in
  let execs = float_of_int (sumi (fun l -> l.execs) legs_ok) in
  let wall_sum = sumf (fun l -> l.wall) legs_ok in
  let vm = sumf (counter (fun c -> c.vm_s)) legs_ok in
  let mut = sumf (counter (fun c -> c.mut_s)) legs_ok in
  let exec_s = sumf (agg Obs.Trace.Exec) legs_ok in
  let retained = sumf (counter (fun c -> float_of_int c.retained)) legs_ok in
  let replays = sumf (counter (fun c -> float_of_int c.replays)) legs_ok in
  let batch_n, batch_sum =
    List.fold_left
      (fun (n, s) l ->
        let c, sm, _ = Obs.Metrics.hist_stats l.obs.metrics "exec.batch_n" in
        (n + c, s + sm))
      (0, 0) legs_ok
  in
  let entries = sumi (fun l -> l.queue) legs_ok in
  let busy = sumf (per_shard "busy_s") shard_ok in
  let wait = sumf (per_shard "wait_s") shard_ok in
  let dup, items =
    List.fold_left
      (fun (d, i) l ->
        match l.shard_items with Some (a, b) -> (d + a, i + b) | None -> (d, i))
      (0, 0) shard_ok
  in
  let ck_bytes =
    sumi
      (fun l ->
        let _, s, _ = Obs.Metrics.hist_stats l.obs.metrics "checkpoint.bytes" in
        s)
      shard_ok
  in
  let shard_count name =
    float_of_int
      (sumi (fun l -> Obs.Metrics.counter_value l.obs.metrics name) shard_ok)
  in
  let div a b = if b = 0. then 0. else a /. b in
  let pr x = x /. per_round in
  let interp_ns = ns_per rp "interp" and emit_ns = ns_per rp "emit" in
  let layers =
    [
      ("minic.frontend_s", st.frontend_s, "s");
      ("ball_larus.plan_s", st.plan_s, "s");
      ("interp.prepare_s", st.prepare_s, "s");
      ("emit.compile_s", st.emit_s, "s");
      ("emit.units", float_of_int emit_units, "count");
      ("emit.fallbacks", float_of_int (Vm.Emit.stats ()).fallbacks, "count");
      ( "emit.breakeven_execs",
        (let saving = interp_ns -. emit_ns in
         if saving > 0. then st.emit_s *. 1e9 /. saving else 0.),
        "execs" );
      ("compile.build_s", st.build_s, "s");
      ("vm.busy_s", pr vm, "s");
      ("mutator.busy_s", pr mut, "s");
      ("campaign.exec_s", pr exec_s, "s");
      ("calibrate.busy_s", pr (sumf (agg Obs.Trace.Calibrate) legs_ok), "s");
      ("triage.busy_s", pr (sumf (agg Obs.Trace.Triage) legs_ok), "s");
      (* mutation runs inside the cohort's Exec span too *)
      ("retain.busy_s", pr (exec_s -. vm -. mut), "s");
      ("campaign.retained", pr retained, "count");
      ("campaign.retain_ratio", div retained execs, "ratio");
      ("corpus.entries", pr (float_of_int entries), "count");
      ( "campaign.minor_words_per_exec",
        div (sumf (fun l -> l.minor_words) legs_ok) execs,
        "words" );
      ("exec.batch_mean", div (float_of_int batch_sum) (float_of_int batch_n), "count");
      ("emit.exec_ns", emit_ns, "ns");
      ("interp.exec_ns", interp_ns, "ns");
      ("compile.exec_ns", ns_per rp "compile", "ns");
      ("tracer.signal_exec_ns", ns_per rp "signal", "ns");
      ("tracer.replays", pr replays, "count");
      ("tracer.replay_ratio", div replays execs, "ratio");
      ("mutator.havoc_ns", ns_per rp "havoc", "ns");
      ("coverage_map.classify_ns", ns_per rp "classify", "ns");
      ("coverage_map.merge_ns", ns_per rp "merge", "ns");
      ("coverage_map.sorted_indices_ns", ns_per rp "sorted_indices", "ns");
      ("corpus.add_ns", ns_per rp "corpus_add", "ns");
      ("corpus.top_rated_ns", ns_per rp "top_rated", "ns");
      ("corpus.favored_ms", rp.favored_ms, "ms");
      ("shard.busy_s", pr busy, "s");
      ("shard.wait_s", pr wait, "s");
      ("shard.utilization", div busy (busy +. wait), "ratio");
      ("shard.merge_s", pr (sumf (agg0 Obs.Trace.Merge) shard_ok), "s");
      ("shard.plan_s", pr (sumf (agg0 Obs.Trace.Plan) shard_ok), "s");
      ("shard.dup_ratio", div (float_of_int dup) (float_of_int items), "ratio");
      ("shard.stalls", pr (shard_count "shard.stalls"), "count");
      ("checkpoint.writes", pr (shard_count "checkpoint.writes"), "count");
      ("checkpoint.bytes", pr (float_of_int ck_bytes), "bytes");
      ("checkpoint.write_s", pr (sumf (wall "checkpoint.write_s") shard_ok), "s");
      ("checkpoint.read_s", pr (sumf (fun l -> l.read_s) shard_ok), "s");
      ("unattributed_frac", div (wall_sum -. sumf attributed legs_ok) wall_sum, "ratio");
      ( "trace.overhead_frac",
        div (median !traced_walls -. median !plain_walls) (median !plain_walls),
        "ratio" );
    ]
  in
  print_endline
    (jobj
       ([
          ("mode", jstr "trace");
          ("workload", jstr w.name);
          ("seed", string_of_int seed);
          ("budget", string_of_int budget);
          ("rounds", string_of_int (List.length !traced_walls));
          ( "layers",
            jobj
              (List.map
                 (fun (name, v, unit) ->
                   (name, jobj [ ("value", jfloat v); ("unit", jstr unit) ]))
                 layers) );
          ("machine", machine ());
        ]
       @ outcome_fields (!plain @ legs @ List.map failed_leg rp.problems)))

(* ------------------------------------------------------------------ *)
(* Command line *)

let () =
  let args = Array.to_list Sys.argv in
  let rec opt name = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let get name default = Option.value ~default (opt name args) in
  let die msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let cmd = match args with _ :: c :: _ -> c | _ -> die "missing subcommand" in
  let w =
    match List.find_opt (fun w -> w.name = get "--workload" "") workloads with
    | Some w -> w
    | None -> die "unknown or missing --workload"
  in
  let int_arg name default =
    match int_of_string_opt (get name default) with
    | Some v -> v
    | None -> die ("bad " ^ name)
  in
  let seed = int_arg "--seed" "1" in
  let budget = if List.mem "--tiny" args then tiny_budget w else w.budget in
  let seconds = float_of_int (int_arg "--seconds" "0") in
  let work = get "--work" (Filename.get_temp_dir_name ()) in
  (match opt "--cache" args with Some d -> Vm.Emit.set_cache_dir d | None -> ());
  let refs () = load_refs (get "--refs" "") in
  match cmd with
  | "ref" ->
      cmd_ref w ~budget ~seed
        ~only:(Option.map int_of_string (opt "--variant" args))
  | "run" ->
      cmd_run w ~budget ~seed ~seconds ~refs:(refs ()) ~work
        ~setup_reps:(int_arg "--setup-reps" "1")
  | "trace" -> cmd_trace w ~budget ~seed ~seconds ~refs:(refs ()) ~work
  | "warmload" -> cmd_warmload w
  | c -> die ("unknown subcommand " ^ c)
