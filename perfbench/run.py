"""mvspectra benchmark: the spectrum, verify and check CLI paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Inputs are generated from the seed into
perfbench/out/, and every job runs as `python -m mvspectra.cli` with src
on the path, one job after another (a closed loop with one client).

--trace 0 measures set-up in fresh interpreters, then cycles through the
job list until --seconds is spent, and reports the end-to-end metrics of
BENCHMARK.json.  The benchmark and its children run on one CPU, and a fixed
reference loop (perfbench/reference.py) runs between any two jobs or
probes; times are reported at the loop's nominal speed, which cancels the
host's drift.  --trace 1 runs one pass in one process with wrappers around
each layer and reports the per-layer metrics.  Every output is
checked by perfbench/checker.py, which does not import mvspectra.  The last
stdout line is the result object; the full record, with run metadata and
each job's stdout sha256, goes to perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import itertools
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checker import check_job  # noqa: E402
from reference import at_reference_speed, reference  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SETUP_ROUNDS = 3
JOB_TIMEOUT_S = 60
TRACE_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    return env


def metadata():
    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    sha = None
    if os.path.exists(".git"):  # else git would answer for an enclosing repo
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for base, dirs, files in sorted(os.walk("src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                src.update(path.encode() + b"\0" + fh.read())
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_before": os.getloadavg(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
    }


class Launcher:
    """The process that starts the CLI jobs (perfbench/spawner.py).

    Use as a context manager; on the way out it closes the spawner's stdin
    and waits for it to end.
    """

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=child_env())
        # its start-up shares this CPU, so let it finish before timing
        if not self.proc.stdout.readline():
            raise RuntimeError("the job spawner did not start")
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, job, scratch):
        """One CLI job as a child process; returns its record.

        The child's own rusage comes from wait4 in the spawner, so peak RSS
        is per job and counts neither earlier children nor this process.
        """
        out_path, err_path = scratch + ".out", scratch + ".err"
        request = {"argv": [sys.executable, "-m", "mvspectra.cli", *job["args"]],
                   "out": out_path, "err": err_path, "timeout": JOB_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job spawner exited")
        rec = json.loads(line)
        with open(out_path, "rb") as fh:
            rec["stdout"] = fh.read().decode("utf-8", "replace")
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        rec["error"] = stderr.decode("utf-8", "replace") if b"Traceback" in stderr else None
        return rec


def judge(job, rec):
    """The failure reason for one job record, or None."""
    if rec.get("timed_out"):
        return f"timed out after {JOB_TIMEOUT_S} s"
    if rec.get("error"):
        return "traceback: " + rec["error"].strip().splitlines()[-1]
    return check_job(job, rec["returncode"], rec["stdout"])


def setup_probe(job):
    probe = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), job["input"]],
        capture_output=True, text=True, env=child_env(), timeout=JOB_TIMEOUT_S)
    if probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed on {job['name']}: "
                           f"{probe.stderr.strip()[-300:]}")
    return float(probe.stdout.strip().splitlines()[-1])


def measure_setup(jobs):
    """Per round, the summed import-and-build seconds over the jobs, raw and
    at reference speed.  Each probe is scaled by the mean of the reference
    runs just before and just after it."""
    rounds, before = [], reference()
    for _ in range(SETUP_ROUNDS):
        raw = scaled = 0.0
        for job in jobs:
            seconds = setup_probe(job)
            after = reference()
            raw += seconds
            scaled += at_reference_speed(seconds, (before + after) / 2)
            before = after
        rounds.append((raw, scaled))
    return rounds


def lower_quartile(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def timed_run(jobs, seconds, out_dir):
    """Set-up rounds, then the jobs in turn until `seconds`, counted from
    the start of set-up, is spent.

    Every job runs at least once; after that the next job starts only if its
    last time still fits.  Each job's time is scaled by the mean of the
    reference runs just before and just after it.  `wall_s` is the sum over
    the jobs of each one's lower-quartile scaled time.  What the scaling
    leaves of the host's noise only ever adds time, so the lower quartile
    follows the program more closely than the median does.
    """
    reference()  # warm-up
    began = time.perf_counter()
    setup_rounds = measure_setup(jobs)
    records = [[] for _ in jobs]  # per job, one record a turn
    with Launcher() as launcher:
        before = reference()
        for pos in itertools.cycle(range(len(jobs))):
            done = records[pos]
            if done and time.perf_counter() - began + done[-1]["seconds"] > seconds:
                break
            rec = launcher.run(jobs[pos], os.path.join(out_dir, "job"))
            after = reference()
            rec["scaled_s"] = at_reference_speed(rec["seconds"], (before + after) / 2)
            done.append(rec)
            before = after
    report, failed = [], 0
    for pos, job in enumerate(jobs):
        shas = [hashlib.sha256(r["stdout"].encode()).hexdigest() for r in records[pos]]
        reasons = [judge(job, r) for r in records[pos]]
        if len(set(shas)) > 1:
            reasons = [r or "stdout differs between passes" for r in reasons]
        failed += sum(r is not None for r in reasons)
        report.append({
            "name": job["name"],
            "args": job["args"],
            "seconds": [r["seconds"] for r in records[pos]],
            "scaled_s": [r["scaled_s"] for r in records[pos]],
            "maxrss_kb": [r["maxrss_kb"] for r in records[pos]],
            "returncode": [r["returncode"] for r in records[pos]],
            "stdout_sha256": shas[0],
            "failures": [r for r in reasons if r],
        })

    def lower_quartile_pass(key):
        return sum(lower_quartile([r[key] for r in recs]) for recs in records)

    metrics = {
        "wall_s": lower_quartile_pass("scaled_s"),
        "setup_s": statistics.median(scaled for _, scaled in setup_rounds),
        "peak_rss_mb": max(r["maxrss_kb"] for recs in records for r in recs) / 1024,
    }
    detail = {
        "raw_wall_s": lower_quartile_pass("seconds"),
        "raw_setup_s": statistics.median(raw for raw, _ in setup_rounds),
        "setup_rounds_s": setup_rounds, "jobs": report,
    }
    return metrics, sum(map(len, records)), failed, detail


def traced_run(jobs, out_dir):
    jobs_path = os.path.join(out_dir, "jobs.json")
    with open(jobs_path, "w", encoding="utf-8") as fh:
        json.dump(jobs, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "trace_pass.py"), jobs_path,
         os.path.join(out_dir, "spans.jsonl")],
        capture_output=True, text=True, env=child_env(), timeout=TRACE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"traced pass failed: {proc.stderr.strip()[-500:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report, failed = [], 0
    for job, rec in zip(jobs, result["jobs"]):
        reason = judge(job, rec)
        if reason is None and not rec["same_as_untraced"]:
            reason = "stdout differs with tracing on"
        failed += reason is not None
        report.append({
            "name": job["name"],
            "returncode": rec["returncode"],
            "stdout_sha256": hashlib.sha256(rec["stdout"].encode()).hexdigest(),
            "failures": [reason] if reason else [],
        })
    detail = {k: result[k] for k in ("traced_s", "untraced_s", "self_sum_s", "spans")}
    # self times partition the traced pass: a gap means a lost or doubled span
    unattributed = 1 - result["self_sum_s"] / result["traced_s"]
    if abs(unattributed) > 0.01:
        detail["problems"] = [
            f"self times leave {unattributed:.1%} of the traced pass unattributed"]
    detail["unattributed_frac"] = unattributed
    detail["jobs"] = report
    return result["metrics"], len(jobs), failed, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "mvspectra", "cli.py")):
        print("perfbench: run from the repository root; src/mvspectra is missing",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # one CPU for the benchmark and its children, so that the reference loop
    # runs where the jobs run
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(HERE, "out", tag)
    os.makedirs(out_dir, exist_ok=True)
    jobs = generate(args.workload, args.seed, os.path.join(out_dir, "inputs"))
    meta = metadata()
    if args.trace:
        values, attempted, failed, detail = traced_run(jobs, out_dir)
    else:
        values, attempted, failed, detail = timed_run(jobs, args.seconds, out_dir)
    meta["loadavg_after"] = os.getloadavg()

    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    problems = detail.get("problems", [])
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(HERE, "out", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "meta": meta,
                   "fail_frac": failed / attempted, "result": result,
                   "detail": detail}, fh, indent=1)
    print(json.dumps({"meta": meta}))
    if not args.trace:
        print(f"raw wall_s {detail['raw_wall_s']:.4f}  raw setup_s {detail['raw_setup_s']:.4f}")
    for problem in problems:
        print(f"FAIL {problem}")
    for job in detail["jobs"]:
        for reason in job["failures"]:
            print(f"FAIL {job['name']}: {reason}")
    print(f"fail_frac {failed}/{attempted}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
