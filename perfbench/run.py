#!/usr/bin/env python3
"""The pathcov campaign benchmark.

Run from the root of a pathcov checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all --seed N --seconds S   # every workload
  python3 perfbench/run.py --self-check
  python3 perfbench/run.py --regen-refs

A run builds perfbench/bench.exe with dune, then drives complete fuzzing
campaigns through it (see perfbench/README.md). With --trace 0 it prints
the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones; the last line of standard output is always one JSON object with
the keys correct, attempted, failed and metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
REFS = os.path.join(HERE, "refs.txt")
DEFAULT_SEED = 1
# set-up samples as (processes, set-ups per process); setup_s is their
# median. A cold native emit can only happen once per process; the interp
# and compiled set-ups take about a millisecond, too little for one cold
# sample per process to be steady, so each process reports the median of
# its own set-ups.
NATIVE = "path-native"  # the one workload on the native engine
SETUP_SAMPLES = {NATIVE: (5, 1)}
SETUP_SAMPLES_DEFAULT = (7, 31)
WARM_REPS = 3
# a run must end within 180 s; children are killed past this deadline
RUN_LIMIT_S = 170
WORKLOADS = ["path-native", "pathafl-retain", "pcguard-shard-resume"]
VARIANTS = 3  # campaign seeds per run, as `variants` in bench.ml


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def toolchain_env():
    """The environment for dune and for the emitter's ocamlfind calls."""
    env = dict(os.environ)
    if shutil.which("dune") is None:
        prefix = env.get("OPAM_SWITCH_PREFIX")
        cands = ([os.path.join(prefix, "bin")] if prefix else []) + sorted(
            glob.glob(os.path.expanduser("~/.opam/*/bin"))
        )
        for d in cands:
            if os.path.exists(os.path.join(d, "dune")):
                env["PATH"] = d + os.pathsep + env.get("PATH", "")
                break
        else:
            raise BenchError("dune is not installed")
    return env


def build(env):
    for need in ("dune-project", "lib/fuzz/campaign.ml", "lib/vm/emit.ml"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("%s is not a pathcov checkout (no %s)" % (ROOT, need))
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if r.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")


class Runner:
    def __init__(self, exe, env, work, deadline):
        self.exe, self.work, self.deadline = exe, work, deadline
        self.n = 0
        # the emitter's compiler calls take temporary files; keep them
        # inside the checkout
        self.env = dict(env, TMPDIR=self.fresh_dir("tmp"))

    def fresh_dir(self, tag):
        self.n += 1
        d = os.path.join(self.work, "%s-%d" % (tag, self.n))
        os.makedirs(d)
        return d

    def call(self, args, lines=False):
        left = self.deadline - time.time()
        if left <= 1:
            raise BenchError("out of time before: " + " ".join(args))
        # its own process group, so a timeout also stops the compilers
        # the emitter spawns
        p = subprocess.Popen(
            [self.exe] + args, cwd=ROOT, env=self.env, process_group=0,
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        )
        try:
            stdout, _ = p.communicate(timeout=left)
        except BaseException:
            os.killpg(p.pid, signal.SIGKILL)
            p.wait()
            raise BenchError("stopped: " + " ".join(args))
        if p.returncode != 0:
            raise BenchError("bench.exe %s exited %d" % (args[0], p.returncode))
        out = stdout.strip().splitlines()
        if lines:
            return out
        if not out:
            raise BenchError("bench.exe %s printed nothing" % args[0])
        return json.loads(out[-1])


def refs_for(rn, common, seed):
    """The reference fingerprints: committed for the default seed,
    regenerated on the interp engine for any other. Regenerated ones are
    kept under .perfbench/refs, keyed by the benchmark binary's digest."""
    if seed == DEFAULT_SEED:
        return REFS
    with open(rn.exe, "rb") as f:
        exe_digest = hashlib.md5(f.read()).hexdigest()
    cache = os.path.join(ROOT, ".perfbench", "refs")
    os.makedirs(cache, exist_ok=True)
    path = os.path.join(cache, "%s%s.txt" % (exe_digest, "".join(common).replace("-", "_")))
    if not os.path.exists(path):
        # the three campaign variants are independent: two at a time
        with ThreadPoolExecutor(max_workers=2) as pool:
            parts = pool.map(
                lambda j: rn.call(["ref"] + common + ["--variant", str(j)], lines=True),
                range(VARIANTS))
            lines = [line for part in parts for line in part]
        with open(path + ".tmp", "w") as f:
            f.write("\n".join(lines) + "\n")
        os.replace(path + ".tmp", path)
    return path


def machine_line(obj):
    m = obj["machine"]
    return "machine: nproc=%s ocaml=%s ocamlfind_ocamlopt=%s emitter_version=%s" % (
        m["nproc"], m["ocaml"], m["ocamlfind_ocamlopt"], m["emitter_version"])


def run_e2e(rn, common, seed, seconds):
    refs = refs_for(rn, common, seed)
    procs, reps = SETUP_SAMPLES.get(common[1], SETUP_SAMPLES_DEFAULT)
    setups = [
        rn.call(["run"] + common + ["--seconds", "0", "--setup-reps", str(reps),
                                    "--cache", rn.fresh_dir("cache")])["setup_s"]
        for _ in range(procs)]
    o = rn.call(["run"] + common + [
        "--seconds", str(seconds), "--refs", refs,
        "--cache", rn.fresh_dir("cache"), "--work", rn.fresh_dir("work")])
    print(machine_line(o))
    metrics = {
        "execs_per_s": {"value": o["execs_per_s"], "unit": "execs/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": o["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }
    return o, metrics


def run_traced(rn, common, seed, seconds):
    refs = refs_for(rn, common, seed)
    cache = rn.fresh_dir("cache")
    o = rn.call(["trace"] + common + [
        "--seconds", str(seconds), "--refs", refs,
        "--cache", cache, "--work", rn.fresh_dir("work")])
    print(machine_line(o))
    # only the native workload fills the emit cache; elsewhere it reads 0
    warm = []
    for _ in range(WARM_REPS if common[1] == NATIVE else 0):
        wl = rn.call(["warmload"] + common + ["--cache", cache])
        if wl["compiled"] != 0 or wl["served"] != wl["wanted"]:
            o["failed"] += 1
            o["problems"].append("warm emit load compiled or missed artifacts")
        o["attempted"] += 1
        warm.append(wl["warm_load_s"])
    metrics = dict(o["layers"])
    metrics["emit.warm_load_s"] = {
        "value": statistics.median(warm) if warm else 0.0, "unit": "s"}
    return o, metrics


def run_once(workload, seed, seconds, trace, tiny=False):
    env = toolchain_env()
    exe = build(env)
    # the deadline starts after the build: a checkout's first build may be long
    started = time.time()
    work = os.path.join(ROOT, ".perfbench", "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        rn = Runner(exe, env, work, started + RUN_LIMIT_S)
        common = ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])
        run = run_traced if trace else run_e2e
        o, metrics = run(rn, common, seed, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_frac = o["failed"] / o["attempted"]
    print("workload=%s seed=%d rounds=%d attempted=%d failed=%d failed_frac=%.4f ratio"
          % (workload, seed, o["rounds"], o["attempted"], o["failed"], failed_frac))
    for p in o["problems"]:
        print("problem: " + p)
    for name, m in metrics.items():
        print("%-34s %16.6f %s" % (name, m["value"], m["unit"]))
    return {
        "correct": o["failed"] == 0,
        "attempted": o["attempted"],
        "failed": o["failed"],
        "metrics": metrics,
    }


def self_check():
    """Every workload at tiny budgets, untraced on the default seed (the
    committed references) and traced on another (regenerated ones)."""
    with open(SPEC) as f:
        spec = json.load(f)
    bad = []
    for w in WORKLOADS:
        for trace, seed in ((0, DEFAULT_SEED), (1, DEFAULT_SEED + 1)):
            res = run_once(w, seed, 1, trace, tiny=True)
            want = spec["per_layer" if trace else "end_to_end"]
            tag = "%s trace=%d" % (w, trace)
            if not res["correct"] or res["failed"]:
                bad.append(tag + ": campaigns failed")
            if set(res["metrics"]) != {m["name"] for m in want}:
                bad.append(tag + ": metric set differs from BENCHMARK.json")
            for m in want:
                got = res["metrics"].get(m["name"])
                if (got is None or got["unit"] != m["unit"]
                        or not isinstance(got["value"], (int, float))):
                    bad.append("%s: %s missing or wrong unit" % (tag, m["name"]))
            if trace and "unattributed_frac" not in res["metrics"]:
                bad.append(tag + ": no unattributed_frac")
    for b in bad:
        print("self-check: " + b)
    print("self-check: %s" % ("FAILED" if bad else "ok"))
    return 1 if bad else 0


def regen_refs():
    """Rewrite the committed reference fingerprints (default seed, full and
    self-check budgets)."""
    env = toolchain_env()
    exe = build(env)
    work = os.path.join(ROOT, ".perfbench", "regen-%d" % os.getpid())
    rn = Runner(exe, env, work, time.time() + 3600)
    lines = []
    for w in WORKLOADS:
        for tiny in ([], ["--tiny"]):
            args = ["ref", "--workload", w, "--seed", str(DEFAULT_SEED)] + tiny
            lines += rn.call(args, lines=True)
    shutil.rmtree(work, ignore_errors=True)
    with open(REFS, "w") as f:
        f.write("\n".join(lines) + "\n")
    print("wrote %d references to %s" % (len(lines), REFS))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="every workload in turn")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--regen-refs", action="store_true")
    a = ap.parse_args()
    try:
        if a.self_check:
            return self_check()
        if a.regen_refs:
            regen_refs()
            return 0
        if a.all:
            res = {w: run_once(w, a.seed, a.seconds, a.trace)
                   for w in WORKLOADS}
        elif a.workload is None:
            ap.error("--workload or --all is required")
        else:
            res = run_once(a.workload, a.seed, a.seconds, a.trace)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
