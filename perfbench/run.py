#!/usr/bin/env python3
"""End-to-end benchmark of the ACIC simulator (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload sweep_dc --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

The first call builds the simulator from source into .bench_build/.
Each run generates its inputs from --seed during set-up, checks every
output against a serial reference made in the same run, and prints one
JSON object as the last line of stdout: end-to-end metrics with
--trace 0, per-layer metrics from a traced in-process reproduction
with --trace 1. A failed check makes the command exit non-zero.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_work"
ACIC_RUN = BUILD_DIR / "acic" / "acic_run"
HARNESS = BUILD_DIR / "perfbench_harness"

NPROC = len(os.sched_getaffinity(0))

# Each workload: which catalog presets it runs (generated with the
# preset seed + --seed), how long each trace is, the schemes, and the
# engine thread count. README.md says why each one was chosen.
WORKLOADS = {
    "sweep_dc": {
        "kind": "batch",
        "presets": ["web_search", "tpcc"],
        "instructions": 1_000_000,
        "schemes": "lru,srrip,acic,opt",
        "threads": NPROC,
    },
    "serve_stream": {
        "kind": "serve",
        "presets": ["media_streaming"],
        "instructions": 2_000_000,
        "schemes": "lru,srrip,acic,ghrp",
        # The producer (this process) and serve's ingest reader each
        # hold a core, and one is left to the host: with every core
        # busy, back-to-back medians moved by 20% on a 4-vCPU host.
        "threads": max(1, NPROC - 3),
    },
    "spec_cell": {
        "kind": "batch",
        "presets": ["x264"],
        "instructions": 2_000_000,
        "schemes": "lru,acic",
        "threads": 1,
    },
}

SMOKE_INSTRUCTIONS = 150_000
# A run takes at least this many samples even when --seconds is short.
MIN_SAMPLES = 3
# Untraced end-to-end runs a traced run makes for trace_overhead_frac.
OVERHEAD_SAMPLES = 3
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"perfbench: {msg}")
    sys.exit(code)


def check_call(cmd, **kw):
    """Run a set-up command and return its output; on failure, print
    the output to stderr and exit 1."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, **kw)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}",
             1)
    return proc.stdout.decode()


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("simulator sources (CMakeLists.txt, src/) not found in "
             f"{ROOT}; run from the repository root")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        check_call(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"])
    check_call(["cmake", "--build", str(BUILD_DIR), "-j", str(NPROC),
                "--target", "acic_run", "perfbench_harness"])


def parse_dump(text):
    """--dump-stats output -> {header line: body}, in output order."""
    sections, header = {}, None
    for line in text.splitlines(keepends=True):
        if line.startswith("# workload="):
            header = line.rstrip("\n")
            sections[header] = ""
        elif header is not None:
            sections[header] += line
    return sections


def counters(body):
    out = {}
    for line in body.splitlines():
        key, _, value = line.partition(" ")
        if value.isdigit():
            out[key] = int(value)
    return out


class Inputs:
    """One run's seeded inputs and its untimed serial reference."""

    def __init__(self, name, spec, seed, instructions):
        self.name, self.spec = name, spec
        self.dir = WORK_DIR / name
        self.trace_dir = self.dir / "traces"
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        for old in self.trace_dir.iterdir():
            old.unlink()
        self.traces, self.paper_mpki = [], {}
        for preset in spec["presets"]:
            path = self.trace_dir / f"{preset}.acictrace"
            out = check_call([str(HARNESS), "gen", preset, str(seed),
                              str(instructions), str(path)])
            self.paper_mpki[preset] = float(out.split()[-1])
            check_call([str(ACIC_RUN), "stream", "--trace", str(path),
                        "--out", str(path.with_suffix(".acis"))])
            self.traces.append(path)
        self.instructions = instructions
        self.warmup = int(instructions * 0.1)
        serve = spec["kind"] == "serve"
        ref = check_call(self.run_cmd(threads=1, oracle=not serve))
        self.ref_path = self.dir / "reference.txt"
        self.ref_path.write_text(ref)
        self.reference = parse_dump(ref)
        if serve:
            self.stream = self.traces[0].with_suffix(".acis").read_bytes()

    def run_cmd(self, threads, oracle=True):
        cmd = [str(ACIC_RUN), "run", "--workloads",
               ",".join(self.spec["presets"]), "--trace-dir",
               str(self.trace_dir), "--schemes", self.spec["schemes"],
               "--threads", str(threads), "--quiet", "--dump-stats"]
        return cmd if oracle else cmd + ["--no-oracle"]

    def measured_cmd(self):
        """The end-to-end command a user runs, tracing off."""
        if self.spec["kind"] == "batch":
            return self.run_cmd(self.spec["threads"])
        return [str(ACIC_RUN), "serve", "-", "--schemes",
                self.spec["schemes"], "--warmup", str(self.warmup),
                "--threads", str(self.spec["threads"]), "--quiet",
                "--stats-out", str(self.dir / "serve_stats.jsonl"),
                "--dump-stats"]

    def setup_cmd(self):
        if self.spec["kind"] == "batch":
            return [str(HARNESS), "setup", "batch"] + [str(t) for t in
                                                        self.traces]
        return [str(HARNESS), "setup", "serve",
                str(self.traces[0].with_suffix(".acis")),
                self.spec["schemes"]]

    def engine_instructions(self):
        """Instructions every engine of one run simulates, summed."""
        return self.instructions * len(self.reference)


def feed(pipe, data):
    try:
        for off in range(0, len(data), 1 << 16):
            pipe.write(data[off:off + (1 << 16)])
        pipe.close()
    except BrokenPipeError:
        pass


def spawn(cmd, stdin_data, err_path):
    """Run @cmd to exit; return (wall s, cpu s, peak RSS MB, rc, stdout).

    Wall runs from spawn to exit with all output read. CPU time and
    peak RSS come from wait4(2) on the child.
    """
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err,
            stdin=subprocess.PIPE if stdin_data is not None
            else subprocess.DEVNULL)
        writer = None
        if stdin_data is not None:
            writer = threading.Thread(target=feed,
                                      args=(proc.stdin, stdin_data))
            writer.start()
        out = proc.stdout.read()
        proc.stdout.close()
        if writer is not None:
            writer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode, out.decode(errors="replace"))


def e2e_sample(inputs, tally):
    """One end-to-end run; checks its dump against the reference."""
    serve = inputs.spec["kind"] == "serve"
    wall, cpu, rss, rc, out = spawn(
        inputs.measured_cmd(), inputs.stream if serve else None,
        inputs.dir / "child.err")
    got = parse_dump(out)
    if serve:
        # One operation: the stream.
        tally["attempted"] += 1
        if rc != 0 or got != inputs.reference:
            tally["failed"] += 1
            log(f"serve_stream: output mismatch or exit {rc}")
    else:
        # One operation per cell.
        for header, body in inputs.reference.items():
            tally["attempted"] += 1
            if rc != 0 or got.get(header) != body:
                tally["failed"] += 1
                log(f"{inputs.name}: {header}: mismatch or exit {rc}")
    return {"wall": wall, "cpu_s": cpu, "peak_rss_mb": rss,
            "minst_per_s": inputs.engine_instructions() / wall / 1e6}


def setup_sample(inputs):
    out = check_call(inputs.setup_cmd())
    return float(out.split()[-1])


def ipc(body):
    c = counters(body)
    return c["instructions"] / c["cycles"]


def simulated(inputs):
    """Simulated metrics from the reference dump (identical in every
    correct run): per-trace IPC by scheme."""
    by_trace = {}
    for header, body in inputs.reference.items():
        m = re.match(r"# workload=(\S+) scheme=(\S+)$", header)
        by_trace.setdefault(m.group(1), {})[m.group(2)] = body
    speedups, gaps, info = [], [], {}
    for trace, cells in by_trace.items():
        lru, acic = ipc(cells["lru"]), ipc(cells["acic"])
        speedups.append(acic / lru)
        c = counters(cells["lru"])
        info[f"{trace}.lru_mpki"] = 1000.0 * c["l1i_misses"] / c["instructions"]
        info[f"{trace}.paper_mpki"] = inputs.paper_mpki[trace]
        if "opt" in cells:
            opt = ipc(cells["opt"])
            gaps.append((acic - lru) / (opt - lru) if opt != lru else 0.0)
    speedup = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    if gaps:
        info["opt_gap_closed"] = sum(gaps) / len(gaps)
    return speedup, info


def source_digest():
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    files += sorted(p for p in BENCH_DIR.rglob("*") if p.suffix != ".md")
    for path in files:
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(spec, seed, seconds, instructions):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = (BUILD_DIR / "CMakeCache.txt").read_text()
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", cache, re.M)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "cpu_model": cpu,
        "nproc": NPROC,
        "build_type": build_type.group(1) if build_type else "",
        "simd": check_call([str(HARNESS), "info"]).strip(),
        "git_commit": commit,
        "source_digest": source_digest(),
        "engine_threads": spec["threads"],
        "producer_threads": 1 if spec["kind"] == "serve" else 0,
        "instructions_per_trace": instructions,
        "seconds": seconds,
        "seed": seed,
    }


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def measure_e2e(inputs, seconds, tally):
    samples, setups = [], []
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(samples) < MIN_SAMPLES):
        samples.append(e2e_sample(inputs, tally))
        setups.append(setup_sample(inputs))
    speedup, info = simulated(inputs)
    info["samples"] = len(samples)
    metrics = {
        "minst_per_s": (median_of(samples, "minst_per_s"), "Minst/s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (median_of(samples, "cpu_s"), "s"),
        "peak_rss_mb": (median_of(samples, "peak_rss_mb"), "MB"),
        "acic_speedup": (speedup, "ratio"),
    }
    return metrics, info


def self_times(spans):
    """Span self time = duration minus the children's durations."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_s"] - s["start_s"]
    return [s["end_s"] - s["start_s"] - c for s, c in zip(spans, child)]


def check_spans(path):
    spans = json.loads(Path(path).read_text())["spans"]
    roots = [s for s in spans if s["parent"] < 0]
    if len(roots) != 1:
        raise ValueError(f"{path}: expected one root span")
    total = sum(self_times(spans))
    root = roots[0]["end_s"] - roots[0]["start_s"]
    # Span times are printed to the nanosecond; allow that rounding.
    if abs(total - root) > 1e-8 * len(spans) + 1e-9 * root:
        raise ValueError(f"{path}: self times sum to {total}, root {root}")


def measure_traced(inputs, seconds, tally):
    walls = [e2e_sample(inputs, tally)["wall"]
             for _ in range(OVERHEAD_SAMPLES)]
    spec = inputs.spec
    reps, repro = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not reps:
        spans = inputs.dir / f"spans_{len(reps)}.json"
        out = check_call([str(HARNESS), "traced", spec["kind"],
                          str(spec["threads"]), spec["schemes"],
                          str(inputs.ref_path), str(spans)] +
                         [str(t) for t in inputs.traces])
        result = json.loads(out.splitlines()[-1])
        check_spans(spans)
        tally["attempted"] += result["attempted"]
        tally["failed"] += result["failed"]
        reps.append(result["metrics"])
        repro.append(result["reproduce_wall_s"])
    metrics = {}
    for name, first in reps[0].items():
        metrics[name] = (statistics.median(r[name]["value"] for r in reps),
                         first["unit"])
    metrics["trace_overhead_frac"] = (
        statistics.median(repro) / statistics.median(walls) - 1.0, "ratio")
    return metrics, {"reps": len(reps)}


def declared_metrics(trace):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]


def validate(metrics, trace):
    """Every declared metric present, finite, with a unit and a valid
    name; nothing undeclared."""
    problems = []
    declared = declared_metrics(trace)
    for name in declared:
        if name not in metrics:
            problems.append(f"missing {name}")
    for name, (value, unit) in metrics.items():
        if name not in declared:
            problems.append(f"undeclared {name}")
        if not NAME_RE.match(name) or not unit:
            problems.append(f"bad name or unit: {name!r} {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"non-finite {name}={value}")
    return problems


def run_workload(name, seed, seconds, trace, instructions=None):
    spec = WORKLOADS[name]
    instructions = instructions or spec["instructions"]
    inputs = Inputs(name, spec, seed, instructions)
    tally = {"attempted": 0, "failed": 0}
    measure = measure_traced if trace else measure_e2e
    metrics, info = measure(inputs, seconds, tally)
    problems = validate(metrics, trace)
    for p in problems:
        log(f"{name}: {p}")
    result = {
        "correct": tally["failed"] == 0 and not problems,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }
    record = {"workload": name, "trace": trace,
              "fingerprint": fingerprint(spec, seed, seconds, instructions),
              "info": info, **result}
    results = WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}_seed{seed}_trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def smoke():
    """Every workload, traced and untraced, at tiny lengths."""
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            record = run_workload(name, 0, 1, trace, SMOKE_INSTRUCTIONS)
            log(f"smoke {name} trace={trace}: correct={record['correct']} "
                f"attempted={record['attempted']} failed={record['failed']}")
            ok = ok and record["correct"]
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload and metric at tiny "
                             "lengths")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")
    build()
    if args.smoke:
        return smoke()
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print("fingerprint: " + json.dumps(record["fingerprint"]))
    print("info: " + json.dumps(record["info"]))
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
