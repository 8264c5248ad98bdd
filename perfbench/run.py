#!/usr/bin/env python3
"""perfbench: the sensor-hints benchmark (README.md in this directory).

Run from the repository root:

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      Builds the benchmark (first run only), runs one workload, and prints a
      meta line, a check line and, last, the result object.
  python3 perfbench/run.py selftest
      Tiny-input self-test: metric names and units, span trees, digests.
  python3 perfbench/run.py steadiness [--runs N] [--workloads a,b] ...
      Repeated runs in alternating workload order; prints each metric's
      median, quartiles and min/max against its bound, and saves a report.
  python3 perfbench/run.py compare BASE.json NEW.json
      Compares two steadiness reports metric by metric against the bounds;
      refuses reports from different hosts or builds.

Everything it writes goes under the build directory: $CARGO_TARGET_DIR when
set, else .bench_build, relative to the current directory.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["sweep_replay", "probe_eval", "hint_pipeline", "city_vanet"]
DEFAULT_SEED = 1
# Host and build keys: results that differ in any of them are not compared.
HOST_KEYS = ["cpu_model", "nproc", "compiler", "build_type", "detmath"]
BUILD_TIMEOUT_S = 850
# Time a run may take beyond its measuring window (last round, output).
RUN_SLACK_S = 120


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").absolute()


def out_dir():
    path = build_dir() / "perfbench-out"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_proc(cmd, timeout, **kwargs):
    """subprocess.run in a session of its own, so that a timeout kills the
    whole process tree (make and compilers under cmake), then waits for it."""
    with subprocess.Popen(cmd, start_new_session=True, text=True,
                          **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    """Configures (once) and builds the benchmark; returns the executable."""
    bdir = build_dir() / "perfbench"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "-j", "4"])
    for cmd in steps:
        remaining = max(1.0, deadline - time.monotonic())
        proc = run_proc(cmd, remaining, stdout=subprocess.PIPE,
                        stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def expected_digest(workload, seed, tiny):
    table = json.loads((HERE / "expected.json").read_text())
    return table["tiny" if tiny else "full"].get(workload, {}).get(str(seed))


def read_commit():
    """HEAD of a git checkout at the repository root, read from .git; the
    benchmark may also run from a plain source tree, which has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over every source file the benchmark compiles or runs."""
    files = sorted(p for p in (ROOT / "src").rglob("*") if p.is_file())
    files.append(ROOT / "bench" / "experiment_config.h")
    files += sorted(p for p in HERE.rglob("*")
                    if p.is_file() and "__pycache__" not in p.parts)
    digest = hashlib.sha256()
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_one(exe, workload, seed, seconds, trace, tiny=False, dump_json=None,
            quiet=True):
    """Runs the benchmark binary once. Returns (meta, check, result line).
    Its readable summary goes to stderr unless `quiet`."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    expect = expected_digest(workload, seed, tiny)
    if expect:
        cmd += ["--expect", expect]
    if trace:
        cmd += ["--spans", str(spans_path(workload, seed, tiny))]
    if dump_json:
        cmd += ["--dump-json", str(dump_json)]
    proc = run_proc(cmd, seconds + RUN_SLACK_S, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE if quiet else None)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 3:
        if quiet:
            log(proc.stderr[-4000:])
        raise RuntimeError(f"{workload}: benchmark exited {proc.returncode}")
    meta = json.loads(lines[0])["meta"]
    meta["commit"] = read_commit()
    meta["source_digest"] = source_digest()
    check = json.loads(lines[-2])["check"]
    return meta, check, lines[-1]


def spans_path(workload, seed, tiny):
    size = "tiny" if tiny else "full"
    return out_dir() / f"spans-{workload}-{size}-seed{seed}.jsonl"


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --- run mode ------------------------------------------------------------------

def cmd_run(argv):
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        ap.error("--seed must be >= 0 and --seconds in (0, 3600]")
    exe = build()
    meta, check, result = run_one(exe, args.workload, args.seed,
                                  args.seconds, args.trace, quiet=False)
    record = {"meta": meta, "check": check, "result": json.loads(result)}
    results = out_dir() / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"check": check}))
    print(result, flush=True)
    return 0


# --- self-test -------------------------------------------------------------------

def check_spans(path):
    """Re-checks a span file independently of the binary's own check."""
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    if not spans:
        return "no spans recorded"
    covered = [0] * len(spans)
    for i, s in enumerate(spans):
        if s["name"] not in SPAN_NAMES:
            return f"span {i}: unknown name {s['name']}"
        if s["end_ns"] < s["start_ns"]:
            return f"span {i}: ends before it starts"
        p = s["parent"]
        if p >= 0:
            if p >= i:
                return f"span {i}: parent {p} does not precede it"
            parent = spans[p]
            if s["start_ns"] < parent["start_ns"] or s["end_ns"] > parent["end_ns"]:
                return f"span {i}: outside its parent {p}"
            if s["item"] != parent["item"] and parent["item"] != -1:
                return f"span {i}: item {s['item']} inside item {parent['item']}"
            covered[p] += s["end_ns"] - s["start_ns"]
        elif s["name"] != "round":
            return f"span {i}: root span is {s['name']}, not round"
    for i, s in enumerate(spans):
        if s["end_ns"] - s["start_ns"] < covered[i]:
            return f"span {i}: negative self time"
    return None


SPAN_NAMES = {
    "round", "item", "exp.run", "exp.json", "channel.generate",
    "rate.hint_aware", "rate.rapid_sample", "rate.sample_rate", "rate.rraa",
    "rate.rbar", "rate.charm", "rate.hinted", "topo.series",
    "topo.probing_error", "vanet.step", "vanet.snapshot", "vanet.observe",
    "vanet.finish",
}
SHSWEEP_DEFAULT_MD5 = "2c6b37131f6b81438930e01bd22b9dfa"


def cmd_selftest(argv):
    argparse.ArgumentParser(prog="run.py selftest").parse_args(argv)
    exe = build()
    spec = bench_spec()
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []

    def expect(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        digests = {}
        for seed, trace in [(DEFAULT_SEED, 0), (DEFAULT_SEED, 1), (7, 0), (7, 1)]:
            tag = f"{workload} tiny seed {seed} trace {trace}"
            _, check, line = run_one(exe, workload, seed, 0.3, trace, tiny=True)
            result = json.loads(line)
            digests[(seed, trace)] = check["digest"]
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   f"{tag}: correct, no failed items ({check['problem'] or 'ok'})")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == wanted[trace], f"{tag}: every named metric with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"])
                       for v in result["metrics"].values()),
                   f"{tag}: finite values")
            if seed == DEFAULT_SEED:
                expect(check["expected"] is not None
                       and check["digest"] == check["expected"],
                       f"{tag}: digest {check['digest']} matches expected.json")
            if trace:
                expect(check["span_tree"] == "ok", f"{tag}: binary's span-tree check")
                problem = check_spans(spans_path(workload, seed, True))
                expect(problem is None, f"{tag}: span file well formed ({problem or 'ok'})")
        expect(digests[(7, 0)] == digests[(7, 1)],
               f"{workload} tiny seed 7: timed and traced runs share a digest")

    dump = out_dir() / "sweep_replay-default.json"
    _, check, line = run_one(exe, "sweep_replay", DEFAULT_SEED, 0.1, 0,
                             dump_json=dump)
    md5 = hashlib.md5(dump.read_bytes()).hexdigest()
    expect(json.loads(line)["correct"] and md5 == SHSWEEP_DEFAULT_MD5,
           f"sweep_replay seed 1: sh.sweep.v1 JSON md5 {md5} equals the default "
           f"`shsweep --quiet --threads 1` output")
    log(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


# --- steadiness and comparison ---------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_steadiness(argv):
    spec = bench_spec()
    ap = argparse.ArgumentParser(prog="run.py steadiness")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="report file (default: under the build dir)")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    for w in workloads:
        if w not in WORKLOADS:
            ap.error(f"unknown workload {w}")
    exe = build()
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    values = {w: {m["name"]: [] for m in metrics} for w in workloads}
    incorrect = []
    meta = None
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.first_seed + i
            run_meta, _, line = run_one(exe, w, seed, args.seconds, args.trace)
            meta = meta or run_meta
            result = json.loads(line)
            if not result["correct"] or result["failed"]:
                incorrect.append(f"{w} seed {seed}")
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            log(f"run {i + 1}/{args.runs} {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in {m["name"] for m in metrics[:6]}))

    bounds = {m["name"]: m.get("bound") for m in metrics}
    print(f"{'workload':<14} {'metric':<30} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'min':>12} {'max':>12} {'spread':>8} {'bound':>6}")
    for w in workloads:
        for name, vals in values[w].items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  over bound" if spread > bound else (
                    "  over bound/3" if spread > bound / 3 else "")
            print(f"{w:<14} {name:<30} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{min(vals):12.6g} {max(vals):12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    report = {"meta": meta, "runs": args.runs, "seconds": args.seconds,
              "trace": args.trace, "first_seed": args.first_seed,
              "values": values, "incorrect": incorrect}
    path = Path(args.out) if args.out else (
        out_dir() / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json")
    path.write_text(json.dumps(report, indent=1) + "\n")
    log(f"report: {path}")
    if incorrect:
        log("INCORRECT runs: " + ", ".join(incorrect))
    return 1 if incorrect else 0


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    differing = [k for k in HOST_KEYS if base["meta"].get(k) != new["meta"].get(k)]
    if differing or base["seconds"] != new["seconds"] or base["trace"] != new["trace"]:
        log("refusing to compare: reports differ in " + ", ".join(
            [f"{k} ({base['meta'].get(k)!r} vs {new['meta'].get(k)!r})"
             for k in differing] + (["run length or trace mode"]
                                    if not differing else [])))
        return 3
    spec = bench_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"base {base['meta']['commit']}  new {new['meta']['commit']}")
    regressed = False
    for w, per_metric in new["values"].items():
        for name, new_vals in per_metric.items():
            base_vals = base["values"].get(w, {}).get(name)
            if not base_vals or not new_vals:
                continue
            m = metrics[name]
            lower = m["better"] == "lower"
            q1, bmed, q3 = quartiles(base_vals)
            nmed = statistics.median(new_vals)
            worse = ((nmed - bmed) if lower else (bmed - nmed)) / bmed if bmed else 0.0
            spread = (q3 - q1) / bmed if bmed else 0.0
            bound = m.get("bound")
            if bound is None:
                verdict = ""
            elif worse > bound:
                verdict, regressed = "REGRESSED", True
            elif spread > bound and not (
                    max(new_vals) < min(base_vals) if lower
                    else min(new_vals) > max(base_vals)):
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{w:<14} {name:<30} {bmed:12.6g} -> {nmed:12.6g} "
                  f"worse by {worse:+8.2%}  spread {spread:6.2%}  {verdict}")
    return 1 if regressed else 0


def main(argv):
    modes = {"selftest": cmd_selftest, "steadiness": cmd_steadiness,
             "compare": cmd_compare}
    try:
        if argv and argv[0] in modes:
            return modes[argv[0]](argv[1:])
        return cmd_run(argv)
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            json.JSONDecodeError) as err:
        log(f"perfbench: {err}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
