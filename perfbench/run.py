#!/usr/bin/env python3
"""The repository benchmark: host cost of the DARSIE simulator and its tools.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures-eval --seed 1 --seconds 20 --trace 0

It builds the CLI binaries (`figures`, `darsie-sim`) and the in-process
probe (`perfbench/probe`) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then measures one workload:

* `--trace 0` runs the workload's commands as separate processes, each
  timed from spawn to exit, repeating the whole command set while another
  repetition fits in `--seconds`. It reports `wall_s`, the time of one
  command set (the sum of each command's median), and `setup_s`, the
  median time of one catalog build at the workload's scale, sampled
  between repetitions.
* `--trace 1` runs the traced probe once (every layer call timed, every
  allocation counted, spans written to the build directory) and every
  workload's commands once, untraced, for the per-layer metrics.

Every command's exit status and the gate conditions CI applies to its
JSON are checked, and its output must be identical across repetitions,
also across runs of the same binaries. The last line of stdout is one JSON
object: `correct`, `attempted`, `failed` and `metrics`. The metric names
and units are those listed in `BENCHMARK.json` at the checkout root.
`--quick` shrinks every workload to test scale and one repetition; it is
for `perfbench/selfcheck.py`, not for measurements.
"""

import argparse
import glob
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
NPROC = len(os.sched_getaffinity(0))
# CI runs its threaded gates with --threads 4; no workload asks for more
# threads than the machine has.
THREADS = str(min(4, NPROC))
COMMAND_TIMEOUT_S = 120
# Keys of `darsie-sim bench --json` that hold host timings or the date.
VOLATILE_KEYS = {"wall_seconds", "sim_cycles_per_sec", "date"}


def fail_gate(cond, msg):
    if not cond:
        raise AssertionError(msg)


def gate_verify(r):
    fail_gate(r["total_errors"] == 0, f"verify reported {r['total_errors']} error(s)")


def gate_certify(r):
    fail_gate(r["total_errors"] == 0, f"certify reported {r['total_errors']} error(s)")
    for w in r["workloads"]:
        ok = ("block-independent", "commutative-atomics-only")
        fail_gate(w["classification"] in ok, f"{w['abbr']} is {w['classification']}")
        for d in w["diagnostics"]:
            fail_gate(d["code"] not in ("V310", "V312"), f"{w['abbr']}: {d['code']}")


def gate_family(r):
    fail_gate(len(r["workloads"]) == 13, f"{len(r['workloads'])} certificates, not 13")
    for w in r["workloads"]:
        fail_gate(w["verdict"] in ("FamilyProved", "FamilySampled"),
                  f"{w['abbr']}: family refuted ({w['verdict']})")
        fail_gate(not w["disagreements"], f"{w['abbr']}: {w['disagreements']}")
    fail_gate(r["refuted"] == 0 and r["disagreements"] == 0, "family refuted or disputed")
    fail_gate(r["proved"] >= 9, f"only {r['proved']}/13 workloads reached FamilyProved")


def gate_analyze(r):
    t = r["totals"]
    fail_gate(t["oracle_errors"] == 0, f"{t['oracle_errors']} oracle error(s)")
    fail_gate(t["mem_violations"] == 0, f"{t['mem_violations']} memory prediction(s) violated")


def gate_prove(r):
    bad = {c: n for c, n in r["by_code"].items() if c in ("S401", "S403")}
    fail_gate(not bad, f"symbolic validation failed: {bad}")
    fail_gate(r["total_disproved"] == 0, f"{r['total_disproved']} marking(s) disproved")
    fail_gate(r["total_unknown"] == 0, f"{r['total_unknown']} claim(s) unknown")
    for w in r["workloads"]:
        fail_gate(w["complete"], f"{w['abbr']}: symbolic coverage incomplete")


def gate_profile(r):
    fail_gate(r["totals"]["identity_violations"] == 0, "accounting-identity violation(s)")
    for w in r["workloads"]:
        for t in w["techniques"]:
            fail_gate(t["identity_ok"], f"{w['abbr']} {t['technique']}: identity broken")
            fail_gate(sum(t["slots"].values()) == t["issue_slots"],
                      f"{w['abbr']} {t['technique']}: slots do not sum to issue slots")


def gate_estimate(r):
    t = r["totals"]
    for w in r["workloads"]:
        for tech in w["techniques"]:
            fail_gate(tech["in_bracket"], f"{w['abbr']} {tech['technique']}: outside bracket")
    fail_gate(t["bound_violations"] == 0, f"{t['bound_violations']} E202 violation(s)")
    fail_gate(t["unbounded_loops"] == 0, f"{t['unbounded_loops']} loop(s) unbounded")
    fail_gate(t["mean_bracket_width"] <= 4.0, f"bracket width {t['mean_bracket_width']}x")


def gate_replay(r):
    fail_gate(r["self_compare"], "replay-diff did not run in self-comparison mode")
    fail_gate(len(r["workloads"]) == 13, f"{len(r['workloads'])} workloads, not 13")
    for w in r["workloads"]:
        fail_gate(w["identical"], f"{w['abbr']}: diverged at {w['divergence']}")
    fail_gate(r["totals"]["divergent"] == 0, "divergent replays")


def committed_snapshots():
    """The committed `BENCH_*.json` files, sorted, as CI lists them.

    In a git work tree an untracked snapshot, such as one a developer's
    `darsie-sim bench` run left at the root, is not a baseline, so the
    list comes from `git ls-files`. A checkout that is not a work tree
    holds exactly the committed files.
    """
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    r = subprocess.run(["git", "ls-files", "BENCH_*.json"], cwd=ROOT, capture_output=True,
                       text=True, check=True)
    return sorted(r.stdout.split())


def gate_bench(r, cwd):
    snap = os.path.join(cwd, f"BENCH_{r['date']}.json")
    with open(snap) as f:
        fail_gate(json.load(f) == r, "snapshot file differs from stdout document")
    committed = committed_snapshots()
    if not committed:
        return
    with open(os.path.join(ROOT, committed[-1])) as f:
        old = json.load(f)
    fail_gate(old["scale"] == r["scale"], "baseline snapshot is at a different scale")
    old_speed = {w["abbr"]: w["darsie_speedup"] for w in old["workloads"]}
    for w in r["workloads"]:
        prev = old_speed.get(w["abbr"])
        fail_gate(not prev or w["darsie_speedup"] >= 0.9 * prev,
                  f"{w['abbr']}: darsie_speedup {prev}x -> {w['darsie_speedup']}x")


def commands(workload, quick):
    """(metric name, binary, arguments, gate) of each command of a workload."""
    eval_scale = "test" if quick else "eval"
    if workload == "figures-eval":
        return [("figures.all_s", "figures", ["--scale", eval_scale, "all"], None)]
    if workload == "analysis-eval":
        s = eval_scale
        return [
            ("verify", "darsie-sim", ["verify", "--scale", s, "--json", "--threads", THREADS],
             gate_verify),
            ("certify", "darsie-sim", ["certify", "--scale", s, "--json", "--threads", THREADS],
             gate_certify),
            ("certify_family", "darsie-sim",
             ["certify", "--family", "--scale", s, "--json", "--threads", THREADS], gate_family),
            ("prove", "darsie-sim", ["prove", "--scale", s, "--json", "--threads", THREADS],
             gate_prove),
        ]
    # The CI gate steps of .github/workflows/ci.yml, in its order.
    return [
        ("verify", "darsie-sim",
         ["verify", "--scale", "test", "--json", "--manifest", "manifest-verify.json"],
         gate_verify),
        ("certify", "darsie-sim",
         ["certify", "--scale", "test", "--json", "--manifest", "manifest-certify.json"],
         gate_certify),
        ("certify_family", "darsie-sim",
         ["certify", "--family", "--scale", "test", "--json", "--threads", THREADS,
          "--manifest", "manifest-family.json"], gate_family),
        ("analyze", "darsie-sim",
         ["analyze", "--scale", "test", "--json", "--manifest", "manifest-analyze.json"],
         gate_analyze),
        ("prove", "darsie-sim",
         ["prove", "--scale", "test", "--json", "--threads", THREADS,
          "--manifest", "manifest-prove.json"], gate_prove),
        ("profile", "darsie-sim",
         ["profile", "--scale", "test", "--json", "--manifest", "manifest-profile.json"],
         gate_profile),
        ("estimate", "darsie-sim",
         ["estimate", "--scale", "test", "--json", "--manifest", "manifest-estimate.json"],
         gate_estimate),
        ("replay_diff", "darsie-sim",
         ["replay-diff", "--scale", "test", "--json", "--manifest", "manifest-replay.json"],
         gate_replay),
        ("bench", "darsie-sim",
         ["bench", "--scale", "test", "--json", "--manifest", "manifest-bench.json"],
         gate_bench),
    ]


WORKLOAD_SCALE = {"figures-eval": "eval", "analysis-eval": "eval", "gates-test": "test"}


def tag(workload, quick):
    """Key of a workload's outputs in the store of earlier results."""
    return workload + ("-quick" if quick else "")


def metric_name(workload, cmd):
    if cmd.startswith("figures."):
        return f"{cmd}.{workload}"
    return f"darsie-sim.{cmd}_s.{workload}"


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "darsie-bench",
         "--bin", "darsie-sim", "--bin", "figures"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "probe", "Cargo.toml")],
    ):
        r = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(argv)}")


def strip_volatile(doc):
    if isinstance(doc, dict):
        return {k: strip_volatile(v) for k, v in doc.items() if k not in VOLATILE_KEYS}
    if isinstance(doc, list):
        return [strip_volatile(v) for v in doc]
    return doc


def watch_rss(pid, name, stop, peak):
    """Keeps in `peak[0]` the largest `VmHWM` (KiB) of process `pid` while it
    runs `name`, polling until `stop` is set.

    The child's `ru_maxrss` cannot serve: Linux counts in it the address
    space the child was forked from, which here is this Python process.
    """
    path = f"/proc/{pid}/status"
    while not stop.wait(0.02):
        try:
            with open(path) as f:
                fields = dict(line.split(":", 1) for line in f if ":" in line)
        except OSError:
            return
        # Before exec the child still has this interpreter's name and pages.
        if fields.get("Name", "").strip() == name[:15] and "VmHWM" in fields:
            peak[0] = max(peak[0], int(fields["VmHWM"].split()[0]))


class Runner:
    """Runs commands in a scratch directory and checks their outputs."""

    def __init__(self, bindir, work, store, watch_rss):
        self.bindir, self.work, self.store = bindir, work, store
        self.watch_rss = watch_rss
        self.attempted = 0
        self.failures = []
        self.seen = {}

    def run(self, label, binary, args, gate):
        """Runs one command; returns (seconds spawn to exit, peak RSS MiB).

        The peak is only watched, and otherwise 0, when the runner was made
        with `watch_rss`: the polling thread costs a little CPU.
        """
        self.attempted += 1
        out_path = os.path.join(self.work, "stdout")
        err_path = os.path.join(self.work, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            p = subprocess.Popen([os.path.join(self.bindir, binary)] + args,
                                 cwd=self.work, stdout=out, stderr=err)
            # A hung command is killed, so the run still ends in time.
            killer = threading.Timer(COMMAND_TIMEOUT_S, p.kill)
            killer.start()
            stop, peak = threading.Event(), [0]
            watcher = threading.Thread(target=watch_rss, args=(p.pid, binary, stop, peak))
            if self.watch_rss:
                watcher.start()
            _, status, _ = os.wait4(p.pid, 0)
            seconds = time.perf_counter() - t0
            killer.cancel()
            stop.set()
            if self.watch_rss:
                watcher.join()
        p.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as f:
            stdout = f.read()
        try:
            if p.returncode != 0:
                with open(err_path, errors="replace") as f:
                    tail = f.read()[-300:].strip()
                raise AssertionError(f"exit status {p.returncode}: {tail}")
            if gate is None:
                digest_src = stdout
            else:
                doc = json.loads(stdout)
                if gate is gate_bench:
                    gate(doc, self.work)
                else:
                    gate(doc)
                digest_src = json.dumps(strip_volatile(doc), sort_keys=True).encode()
            digest = hashlib.sha256(digest_src).hexdigest()
            first = self.seen.setdefault(label, digest)
            fail_gate(first == digest, "output differs between repetitions")
            stored = self.store.setdefault(label, digest)
            fail_gate(stored == digest, "output differs from an earlier run of these binaries")
        except (AssertionError, ValueError, KeyError, OSError) as e:
            self.failures.append(f"{label}: {e}")
        return seconds, peak[0] / 1024.0


def load_store(path, key):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        doc = {}
    return doc if doc.get("binaries") == key else {"binaries": key}


def save_store(path, doc):
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def setup_samples(bindir, scale):
    """Times of repeated catalog builds in one probe process, 0.4 s long."""
    r = subprocess.run([os.path.join(bindir, "perfbench-probe"), "setup", "--scale", scale],
                       cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if r.returncode != 0:
        sys.exit(f"perfbench: setup probe failed: {r.stderr}")
    return json.loads(r.stdout)["catalog_s"]


def measure(args, runner, bindir):
    """Untraced run: the end-to-end metrics.

    The command set repeats while another repetition still fits in
    `--seconds` (at least once). `wall_s` sums each command's median time
    over the repetitions, which a one-off stall of a shared machine moves
    less than it moves the median of whole repetitions. Catalog builds for
    `setup_s` are sampled before the first repetition and after each one,
    so they too see the machine at several moments of the run.
    """
    scale = "test" if args.quick else WORKLOAD_SCALE[args.workload]
    setup = setup_samples(bindir, scale)
    cmds = commands(args.workload, args.quick)
    rng = random.Random(args.seed)
    times = {label: [] for label, _, _, _ in cmds}
    reps, last, start = 0, 0.0, time.perf_counter()
    while reps == 0 or (not args.quick
                        and time.perf_counter() - start + last <= args.seconds):
        order = list(cmds)
        rng.shuffle(order)
        t0 = time.perf_counter()
        reps += 1
        for label, binary, argv, gate in order:
            seconds, _ = runner.run(f"{tag(args.workload, args.quick)}/{label}", binary, argv,
                                    gate)
            times[label].append(seconds)
            print(f"  rep {reps}  {label:16} {seconds:9.3f} s")
        last = time.perf_counter() - t0
        setup += setup_samples(bindir, scale)
    print(f"{args.workload}: {reps} repetition(s) of {len(cmds)} command(s), "
          f"setup from {len(setup)} catalog build(s)")
    return {"wall_s": sum(statistics.median(t) for t in times.values()),
            "setup_s": statistics.median(setup)}


def trace(args, runner, bindir, target):
    """Traced run: the per-layer metrics."""
    scale = "test" if args.quick else "eval"
    spans = os.path.join(target, "perfbench", f"spans-{args.workload}-{args.seed}.json")
    r = subprocess.run([os.path.join(bindir, "perfbench-probe"), "trace", "--scale", scale,
                        "--seed", str(args.seed), "--spans", spans],
                       cwd=ROOT, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
    if r.returncode != 0:
        sys.exit(f"perfbench: traced probe failed: {r.stderr}")
    probe = json.loads(r.stdout.strip().splitlines()[-1])
    runner.attempted += probe["attempted"]
    runner.failures += [f"probe: {f}" for f in probe["failures"]]
    stored = runner.store.setdefault(f"probe-{scale}", probe["fingerprint"])
    runner.attempted += 1
    if stored != probe["fingerprint"]:
        runner.failures.append("probe: simulated results differ from an earlier run")
    print(f"traced probe: {probe['jobs']} jobs, fingerprint {probe['fingerprint']}, "
          f"spans in {os.path.relpath(spans, ROOT)}")
    m = dict(probe["metrics"])
    for workload in WORKLOAD_SCALE:
        peak = 0.0
        for label, binary, argv, gate in commands(workload, args.quick):
            seconds, rss = runner.run(f"{tag(workload, args.quick)}/{label}", binary, argv,
                                      gate)
            m[metric_name(workload, label)] = seconds
            peak = max(peak, rss)
        m[f"host.peak_rss_mb.{workload}"] = peak
    # Traced replica time as a percentage of the untraced command's time.
    m["host.tracing_overhead_pct"] = (100.0 * m["probe.figures_replica_s"]
                                      / m["figures.all_s.figures-eval"])
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOAD_SCALE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    bindir = os.path.join(target, "release")
    state = os.path.join(target, "perfbench")
    os.makedirs(state, exist_ok=True)
    store_path = os.path.join(state, "outputs.json")
    key = file_digest([os.path.join(bindir, b)
                       for b in ("figures", "darsie-sim", "perfbench-probe")])
    store = load_store(store_path, key)
    work = os.path.join(state, f"work-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(bindir, work, store, watch_rss=bool(args.trace))
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} nproc={NPROC} "
          f"threads={THREADS}")
    try:
        if args.trace:
            values = trace(args, runner, bindir, target)
        else:
            values = measure(args, runner, bindir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    save_store(store_path, store)

    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            runner.attempted += 1
            runner.failures.append(f"metric {m['name']} missing or not finite")
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        print(f"  {m['name']:48} {v:14.6g} {m['unit']}")
    for f in runner.failures:
        print(f"FAILED {f}")
    failed = len(runner.failures)
    print(f"error_rate {failed / runner.attempted:.4f} ({failed}/{runner.attempted} failed)")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
