#!/usr/bin/env python3
"""End-to-end benchmark of the `fusa` CLI, with a traced per-layer replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze_10k --seed 7 --seconds 18 --trace 0

The script builds the release `fusa` binary and the in-process replay
(`perfbench/tracer`), generates the workload's inputs from `--seed`, then
runs the workload's CLI commands one at a time from this process (a
closed loop with one client). Each command gets `--threads 2` where it
takes the flag and a fresh `--run-dir`. Wall time is taken from spawn to
exit; CPU time and peak RSS come from the child's rusage (`wait4`).

Every command is checked: exit status, no panic, a deadline, and the
artifact digests of its manifest. At the default seed, and for the
built-in designs at every seed, digests must equal `perfbench/pins.json`.
At other seeds, repeated runs of a command must agree, within a run and
across runs from the same checkout.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the workload
once through the CLI and once through the replay and prints the
per-layer metrics. The last line of stdout is the result JSON. See
`perfbench/README.md` for the workloads and the metric map.

`--self-test` shows that a wrong pin is counted as a failure.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

BENCH = "perfbench"
WORK = ".perfbench"
THREADS = 2
DEFAULT_SEED = 7
# Set-up runs at least SETUP_MIN_REPEATS times and until SETUP_MIN_S
# have passed (at most SETUP_MAX_REPEATS): a built-in design's set-up is
# a few milliseconds of process start-up, so one sample is mostly jitter.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 25
SETUP_MIN_S = 1.0
RUN_BUDGET_S = 170.0
MIN_COVERAGE = 0.9
BUILTINS = ["sdram_ctrl", "or1200_if", "or1200_icfsm", "uart_ctrl"]
ARTIFACTS = {
    "analyze": ["report.txt", "nodes.csv", "lint.csv"],
    "faults": ["summary.txt", "criticality.csv", "lint.csv"],
    "rank": ["rank.csv"],
    "explain": ["explanation.txt"],
}
QUALITY_RE = re.compile(r"validation accuracy ([0-9.]+)% \| AUC ([0-9.]+)")
# A synthetic input is drawn from the seed with its gate count held in a
# narrow band around the default seed's design, so that the spread across
# seeds reflects structure rather than size: the generator seed is the
# first of seed, seed + 1000, seed + 2000, ... whose design falls in it.
SYNTH_BANDS = {"10k": (10100, 10400), "30k": (29300, 29750)}
SEED_STRIDE = 1000
MAX_CANDIDATES = 64

# Each command is an argv after the binary; `{synth_10k}` names a
# generated input and `{report}` a report file in the command's run dir.
# `quality` marks the workload whose models give val_accuracy/val_auc:
# the built-in designs do not depend on the seed, so neither does their
# model quality.
WORKLOADS = {
    "analyze_10k": {
        "quality": False,
        "synth": ["10k"],
        "commands": [["analyze", "{synth_10k}", "--fast", "--threads", str(THREADS)]],
    },
    "faults_10k": {
        "quality": False,
        "synth": ["10k"],
        "commands": [["faults", "{synth_10k}", "--threads", str(THREADS)]],
    },
    "rank_30k": {
        "quality": False,
        "synth": ["30k"],
        # `fusa rank` is single-threaded and takes no --threads flag.
        "commands": [["rank", "{synth_30k}"]],
    },
    "paper_builtins": {
        "quality": True,
        "synth": [],
        "commands": [
            ["analyze", d, "--threads", str(THREADS), "--report", "{report}"] for d in BUILTINS
        ]
        + [["explain", "sdram_ctrl", "init_cnt_reg_1", "--threads", str(THREADS)]],
    },
}
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "success_rate": "ratio",
    "val_accuracy": "ratio",
    "val_auc": "ratio",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "lint.findings": "count",
    "lint.untestable_sites": "count",
    "graph.adjacency_nnz": "count",
    "campaign.fault_cycles": "count",
    "campaign.fault_cycles_per_s": "1/s",
    "campaign.saved_fraction": "ratio",
    "campaign.utilization": "ratio",
    "campaign.units": "count",
    "campaign.unit_retries": "count",
    "campaign.quarantined": "count",
    "campaign.checkpoint_retries": "count",
    "train.epochs": "count",
    "neuro.spmm_nnz": "count",
    "trace.coverage": "ratio",
    "trace.matches_cli": "bool",
}


class Fatal(Exception):
    """A condition under which no numbers may be reported."""


# The child being measured, so that a signal to the benchmark stops it too.
ACTIVE = []


def stop_active_child(signum, _frame):
    for proc in ACTIVE:
        proc.kill()
        proc.wait()
    sys.exit(128 + signum)


def log(message):
    print(message, file=sys.stderr, flush=True)


def slug(design):
    stem = os.path.splitext(os.path.basename(design))[0]
    return "".join(c if c.isalnum() else "_" for c in stem)


def label_of(argv):
    return f"{argv[0]} {slug(argv[1])}"


class Child:
    """One finished child process, measured from outside."""

    def __init__(self, argv, out_path, err_path, timeout):
        self.out_path = out_path
        self.err_path = err_path
        self.timed_out = False
        done = threading.Event()
        lock = threading.Lock()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            ACTIVE.append(proc)

            def kill():
                with lock:
                    if not done.is_set():
                        self.timed_out = True
                        proc.kill()

            timer = threading.Timer(max(timeout, 1.0), kill)
            timer.daemon = True
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            with lock:
                done.set()
                proc.returncode = os.waitstatus_to_exitcode(status)
                ACTIVE.remove(proc)
            self.wall_s = time.perf_counter() - start
        self.code = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mib = usage.ru_maxrss / 1024.0  # KiB on Linux

    def stdout(self):
        with open(self.out_path, encoding="utf-8", errors="replace") as f:
            return f.read()

    def problem(self):
        """Why the run failed, or None."""
        if self.timed_out:
            return "timed out"
        if self.code != 0:
            return f"exit code {self.code}"
        with open(self.err_path, encoding="utf-8", errors="replace") as f:
            if "panicked" in f.read():
                return "panicked"
        return None


class Bench:
    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.workload = WORKLOADS[args.workload] if args.workload else None
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.run_root = os.path.join(WORK, "runs", f"{args.workload}-s{self.seed}-{os.getpid()}")
        self.inputs = os.path.join(self.run_root, "inputs")
        self.target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.fusa = os.path.join(self.target, "release", "fusa")
        self.tracer = os.path.join(self.target, "release", "perfbench-tracer")
        with open(os.path.join(BENCH, "pins.json"), encoding="utf-8") as f:
            self.pins = json.load(f)
        self.cache_path = os.path.join(WORK, "digests", f"seed-{self.seed}.json")
        self.cache = {}
        if os.path.exists(self.cache_path):
            with open(self.cache_path, encoding="utf-8") as f:
                self.cache = json.load(f)
        self.attempted = 0
        self.failures = []
        self.build_info = {}
        self.netlist_digests = {}
        self.generator_seeds = {}
        self.gates = {}
        self.rss_checks = []
        self.qualities = {}
        self.work = {}
        self.counter = 0

    # ---- build and inputs ------------------------------------------------

    def build(self):
        for required in ("Cargo.toml", "src/main.rs", "crates", os.path.join(BENCH, "tracer")):
            if not os.path.exists(required):
                raise Fatal(f"`{required}` is missing: run from the root of a fusa source checkout")
        # The checkout need not be a git repository, and then `build.rs`
        # reruns on every cargo invocation and relinks `fusa`. Build once
        # per source state instead.
        stamp_path = os.path.join(WORK, "build-stamp")
        stamp = f"{os.path.abspath(self.target)} {source_digest()}"
        if os.path.exists(self.fusa) and os.path.exists(self.tracer) \
                and os.path.exists(stamp_path):
            with open(stamp_path, encoding="utf-8") as f:
                if f.read() == stamp:
                    self.deadline = time.monotonic() + RUN_BUDGET_S
                    return
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for cmd in (
            ["cargo", "build", "-q", "--release", "--offline", "--bin", "fusa"],
            ["cargo", "build", "-q", "--release", "--offline",
             "--manifest-path", os.path.join(BENCH, "tracer", "Cargo.toml")],
        ):
            result = subprocess.run(cmd, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr)
            if result.returncode != 0:
                raise Fatal(f"build failed: {' '.join(cmd)}")
        os.makedirs(WORK, exist_ok=True)
        with open(stamp_path, "w", encoding="utf-8") as f:
            f.write(stamp)
        # The deadline starts once the program is built.
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def tool(self, argv):
        """Runs a set-up command; any failure is fatal."""
        result = subprocess.run([self.fusa] + argv, stdin=subprocess.DEVNULL,
                                capture_output=True, text=True, timeout=120)
        if result.returncode != 0:
            raise Fatal(f"`fusa {' '.join(argv)}` failed: {result.stderr.strip()}")
        return result.stdout

    def choose_generator_seeds(self):
        os.makedirs(self.inputs, exist_ok=True)
        for size in self.workload["synth"]:
            low, high = SYNTH_BANDS[size]
            path = os.path.join(self.inputs, f"synth_{size}.v")
            for k in range(MAX_CANDIDATES):
                seed = self.seed + SEED_STRIDE * k
                text = self.tool(["synth", size, "--seed", str(seed), "--out", path])
                gates = int(re.search(r"gates (\d+)", text).group(1))
                if low <= gates <= high:
                    self.generator_seeds[size] = seed
                    break
            else:
                raise Fatal(f"no synth_{size} design of {low}-{high} gates from seed {self.seed}")

    def setup_once(self):
        shutil.rmtree(self.inputs, ignore_errors=True)
        os.makedirs(self.inputs)
        start = time.perf_counter()
        outputs = {}
        for size in self.workload["synth"]:
            path = os.path.join(self.inputs, f"synth_{size}.v")
            seed = str(self.generator_seeds[size])
            outputs[size] = self.tool(["synth", size, "--seed", seed, "--out", path])
        designs = self.designs()
        stats = {d: self.tool(["stats", d]) for d in designs}
        elapsed = time.perf_counter() - start
        for size, text in outputs.items():
            match = re.search(r"netlist digest (fnv1a64:[0-9a-f]{16})", text)
            if not match:
                raise Fatal(f"`fusa synth {size}` printed no digest")
            name = f"synth_{size}"
            if self.netlist_digests.setdefault(name, match.group(1)) != match.group(1):
                raise Fatal(f"{name} at seed {self.seed} differs between generations")
            pinned = self.pins["netlists"].get(name)
            if self.seed == self.pins["default_seed"] and pinned != match.group(1):
                raise Fatal(f"{name} digest {match.group(1)} != pinned {pinned}")
        for design, text in stats.items():
            match = re.search(r"gates (\d+)", text)
            self.gates[slug(design)] = int(match.group(1)) if match else None
        return elapsed

    def setup(self):
        """Generates the inputs and warms the page cache; median of repeats."""
        self.choose_generator_seeds()
        samples = []
        while len(samples) < SETUP_MAX_REPEATS and (
                len(samples) < SETUP_MIN_REPEATS or sum(samples) < SETUP_MIN_S):
            samples.append(self.setup_once())
        return statistics.median(samples)

    def designs(self):
        seen = []
        for argv in self.commands(None):
            if argv[1] not in seen:
                seen.append(argv[1])
        return seen

    def commands(self, run_dir_of):
        """The workload's argv lists with placeholders filled."""
        out = []
        for template in self.workload["commands"]:
            run_dir = run_dir_of(label_of(template)) if run_dir_of else ""
            values = {f"synth_{s}": os.path.join(self.inputs, f"synth_{s}.v")
                      for s in ("10k", "30k")}
            values["report"] = os.path.join(run_dir, "report.txt")
            argv = [a.format(**values) for a in template]
            out.append(argv + ["--run-dir", run_dir] if run_dir else argv)
        return out

    # ---- one measured command --------------------------------------------

    def fresh_dir(self, label):
        self.counter += 1
        path = os.path.join(self.run_root, f"{self.counter:03d}-{label.replace(' ', '-')}")
        os.makedirs(path)
        return path

    def reference(self, label):
        """Pinned digests for `label`, or None where only repeats are checked."""
        design = label.split(" ", 1)[1]
        if design in BUILTINS or self.seed == self.pins["default_seed"]:
            return self.pins["commands"].get(label)
        return self.cache.get(label)

    def check_digests(self, label, digests):
        expected_names = ARTIFACTS[label.split(" ", 1)[0]]
        if sorted(digests) != sorted(expected_names):
            return f"manifest digests {sorted(digests)} != {sorted(expected_names)}"
        reference = self.reference(label)
        if reference is None:
            self.cache[label] = digests
            return None
        for name in expected_names:
            if digests.get(name) != reference.get(name):
                return f"{name} digest {digests.get(name)} != reference {reference.get(name)}"
        return None

    def run_command(self, argv):
        label = label_of(argv)
        run_dir = argv[argv.index("--run-dir") + 1]
        self.attempted += 1
        child = Child([self.fusa] + argv, os.path.join(run_dir, "stdout.txt"),
                      os.path.join(run_dir, "stderr.txt"), self.deadline - time.monotonic())
        record = {"label": label, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
                  "rss_mib": child.rss_mib, "digests": {}, "quality": None}
        problem = child.problem()
        manifest = None
        if problem is None:
            try:
                with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as f:
                    manifest = json.load(f)
            except (OSError, ValueError) as error:
                problem = f"manifest unreadable: {error}"
        if manifest is not None:
            build = manifest.get("build", {})
            if build.get("opt_level") in ("0", None):
                raise Fatal(f"`fusa` is not an optimized build (opt_level {build.get('opt_level')})")
            self.build_info = build
            record["digests"] = manifest.get("digests", {})
            counters = manifest.get("counters", {})
            self.work[label] = {k: counters[k] for k in ("campaign.fault_cycles", "train.epochs")
                                if k in counters}
            problem = self.check_digests(label, record["digests"])
            self.check_rss(label, child.rss_mib, manifest.get("peak_rss_bytes"))
        if problem is None and argv[0] == "analyze":
            text = child.stdout()
            if "--report" in argv:
                with open(argv[argv.index("--report") + 1], encoding="utf-8") as f:
                    text = f.read()
            match = QUALITY_RE.search(text)
            if match:
                record["quality"] = (float(match.group(1)) / 100.0, float(match.group(2)))
            if not match or not all(0.0 <= q <= 1.0 for q in record["quality"]):
                problem = "no validation accuracy/AUC in the report"
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
            log(f"FAILED {label}: {problem}")
        record["ok"] = problem is None
        return record

    def check_rss(self, label, rss_mib, manifest_bytes):
        """Sanity check only: the in-process VmHWM should agree loosely."""
        if manifest_bytes is None:
            return
        inside = manifest_bytes / 2**20
        ok = abs(inside - rss_mib) <= max(16.0, 0.25 * rss_mib)
        self.rss_checks.append({"label": label, "rusage_mib": round(rss_mib, 1),
                                "manifest_mib": round(inside, 1), "ok": ok})
        if not ok:
            log(f"warning: {label}: rusage peak RSS {rss_mib:.1f} MiB vs manifest {inside:.1f} MiB")

    def iteration(self):
        return [self.run_command(argv) for argv in self.commands(self.fresh_dir)]

    # ---- modes -----------------------------------------------------------

    def measure(self, seconds):
        start = time.monotonic()
        iterations = []
        while True:
            begun = time.monotonic()
            iterations.append(self.iteration())
            took = time.monotonic() - begun
            elapsed = time.monotonic() - start
            if elapsed >= seconds or time.monotonic() + took > self.deadline:
                break
        return iterations

    def quality(self, records):
        """Mean validation accuracy and AUC over the workload's designs."""
        pairs = [r["quality"] for r in records if r["quality"] is not None]
        self.qualities = {r["label"]: r["quality"] for r in records if r["quality"]}
        if not self.workload["quality"]:
            # Not measured here: reads 1.0 on every run (see README).
            return 1.0, 1.0
        return (statistics.fmean(p[0] for p in pairs), statistics.fmean(p[1] for p in pairs))

    def end_to_end(self, setup_s, iterations):
        walls = [sum(r["wall_s"] for r in it) for it in iterations]
        cpus = [sum(r["cpu_s"] for r in it) for it in iterations]
        rsses = [max(r["rss_mib"] for r in it) for it in iterations]
        accuracy, auc = self.quality(iterations[-1])
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mib": statistics.median(rsses),
            "success_rate": (self.attempted - len(self.failures)) / self.attempted,
            "val_accuracy": accuracy,
            "val_auc": auc,
            "setup_s": setup_s,
        }
        log(f"{len(iterations)} iteration(s); wall_s per iteration: "
            + ", ".join(f"{w:.3f}" for w in walls))
        return values

    def traced(self):
        cli = self.iteration()
        cli_wall = sum(r["wall_s"] for r in cli)
        self.quality(cli)
        trace_dir = os.path.join(WORK, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        run_id = f"{self.args.workload}-s{self.seed}-{os.getpid()}"
        spans = os.path.join(trace_dir, f"{run_id}.jsonl")
        summary_path = os.path.join(self.run_root, "replay-summary.json")
        argv = [self.tracer, "--run-id", run_id, "--work", os.path.join(self.run_root, "replay"),
                "--spans", spans, "--summary", summary_path]
        for size, seed in self.generator_seeds.items():
            argv += ["--synth", f"{size}:{seed}={os.path.join(self.inputs, f'synth_{size}.v')}"]
        for command in self.commands(None):
            argv += ["--command", " ".join(command)]
        self.attempted += 1
        replay_dir = self.fresh_dir("replay")
        child = Child(argv, os.path.join(replay_dir, "stdout.txt"),
                      os.path.join(replay_dir, "stderr.txt"), self.deadline - time.monotonic())
        problem = child.problem()
        if problem is not None:
            with open(child.err_path, encoding="utf-8", errors="replace") as f:
                problem += ": " + f.read().strip()[-300:]
            self.failures.append(f"replay: {problem}")
            raise Fatal(f"replay failed: {problem}")
        with open(summary_path, encoding="utf-8") as f:
            summary = json.load(f)
        metrics = dict(summary["metrics"])
        cli_digests = {r["label"]: r["digests"] for r in cli}
        matches = cli_digests == summary["digests"] and all(
            self.netlist_digests.get(k) == v for k, v in summary["netlist_digests"].items())
        if not matches:
            self.failures.append("replay: artifact digests differ from the CLI's")
        if metrics["trace.coverage"] < MIN_COVERAGE:
            self.failures.append(
                f"FLAG trace.coverage {metrics['trace.coverage']:.3f} < {MIN_COVERAGE}: "
                "a layer is missing from the replay")
        metrics["trace.overhead_s"] = summary["replay_wall_s"] - cli_wall
        metrics["trace.matches_cli"] = 1.0 if matches else 0.0
        layers = {k: v for k, v in metrics.items()
                  if per_layer_unit(k) == "s" and k != "trace.overhead_s"}
        log(f"replay {summary['replay_wall_s']:.3f}s vs CLI {cli_wall:.3f}s "
            f"(overhead includes process start-up and manifest writes); spans in {spans}")
        for name, value in sorted(layers.items(), key=lambda kv: -kv[1])[:6]:
            log(f"  {name:<28} {value:9.3f}s")
        return metrics

    def environment(self):
        commit = "unavailable (not a git checkout)"
        if os.path.isdir(".git"):
            result = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = result.stdout.strip() or commit
        return {
            "workload": self.args.workload,
            "seed": self.seed,
            "nproc": os.cpu_count(),
            "threads": THREADS,
            "git_commit": commit,
            "source_digest": source_digest(),
            "rustc": self.build_info.get("rustc"),
            "build_profile": f"release (opt_level {self.build_info.get('opt_level')})",
            "generator_seeds": self.generator_seeds,
            "netlist_digests": self.netlist_digests,
            "validation_accuracy_auc": self.qualities,
            "gates": self.gates,
            "work": self.work,
        }

    def save_cache(self):
        os.makedirs(os.path.dirname(self.cache_path), exist_ok=True)
        temp = self.cache_path + ".tmp"
        with open(temp, "w", encoding="utf-8") as f:
            json.dump(self.cache, f, indent=1, sort_keys=True)
        os.replace(temp, self.cache_path)


def source_digest():
    """SHA-256 over the sources of `fusa` and the replay."""
    digest = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock", "build.rs"]
    for top in ("src", "crates", "vendor", os.path.join(BENCH, "tracer")):
        for root, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "target")
            paths += [os.path.join(root, f) for f in sorted(files)]
    for path in paths:
        if os.path.isfile(path):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def per_layer_unit(name):
    return PER_LAYER_UNITS.get(name, "s")


def run_benchmark(args):
    bench = Bench(args)
    bench.build()
    try:
        setup_s = bench.setup()
        if args.trace:
            metrics = bench.traced()
            units = per_layer_unit
        else:
            iterations = bench.measure(args.seconds)
            metrics = bench.end_to_end(setup_s, iterations)
            units = END_TO_END.__getitem__
        if not bench.failures:
            bench.save_cache()
        env = bench.environment()
        details = {"environment": env, "failures": bench.failures, "rss_crosscheck": bench.rss_checks,
                   "metrics": metrics}
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        with open(os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as f:
            json.dump(details, f, indent=1)
        print("env " + json.dumps(env, sort_keys=True))
        for failure in bench.failures:
            print(f"failure: {failure}")
        print(json.dumps({
            "correct": not bench.failures,
            "attempted": bench.attempted,
            "failed": len(bench.failures),
            "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
        }), flush=True)
    finally:
        shutil.rmtree(bench.run_root, ignore_errors=True)


def self_test():
    """A wrong pin must be counted as a failed command, never pass."""
    args = argparse.Namespace(workload="paper_builtins", seed=DEFAULT_SEED, seconds=1, trace=0)
    bench = Bench(args)
    bench.build()
    try:
        os.makedirs(bench.inputs)
        argv = ["analyze", "or1200_icfsm", "--threads", str(THREADS)]
        good = bench.run_command(argv + ["--run-dir", bench.fresh_dir("good")])
        if not good["ok"] or bench.failures:
            raise Fatal(f"self-test: the correct pin was rejected: {bench.failures}")
        wrong = dict(bench.pins["commands"]["analyze or1200_icfsm"])
        wrong["nodes.csv"] = "fnv1a64:0000000000000000"
        bench.pins["commands"]["analyze or1200_icfsm"] = wrong
        bad = bench.run_command(argv + ["--run-dir", bench.fresh_dir("wrong-pin")])
        counted = bench.attempted == 2 and len(bench.failures) == 1
        if bad["ok"] or not counted or "nodes.csv" not in bench.failures[0]:
            raise Fatal(f"self-test: a wrong pin was not counted as a failure: {bench.failures}")
        log(f"self-test ok: wrong pin counted as failure ({bench.failures[0]})")
    finally:
        shutil.rmtree(bench.run_root, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, stop_active_child)
    try:
        if args.self_test:
            self_test()
        elif args.workload is None:
            parser.error("--workload is required")
        else:
            run_benchmark(args)
    except Fatal as error:
        log(f"perfbench: {error}")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
