"""Per-layer timing of one workload pass, in one process.

    python3 perfbench/trace_pass.py JOBS.json SPANS.jsonl

Run from the repository root with src on the path.  Imports mvspectra, runs
every job through mvspectra.cli.main once untraced, then installs wrappers
around the public functions of each layer and runs the jobs again.  Spans
(name, start, end, parent span, job) stay in memory and go to SPANS.jsonl
when the pass ends.  The last stdout line is a JSON object with the
per-layer metrics, each job's exit code and output, and the pass times.

Nothing under src/ changes: the wrappers are bound at run time in every
mvspectra namespace that holds the function, so calls a module makes
through a name it imported are traced too.
"""

from __future__ import annotations

import functools
import io
import json
import sys
import time
import traceback

# layer -> public functions to wrap; spans are named "<layer>.<function>"
FUNCTIONS = {
    "cli": ["main"],
    "mv": ["algebra_from_json", "check_axioms", "ideal_generated",
           "is_maximal_mv_ideal", "is_mv_ideal", "quotient"],
    "lattice": ["enumerate_prime_ideals", "dual_order", "duality_roundtrip",
                "lattice_isomorphic", "transitive_closure"],
    "idealarith": ["oplus_bar_oracle", "oplus_bar", "ominus_bar"],
    "spectrum": ["space_to_json", "kaplansky_check", "w_quotient",
                 "k_via_ideal_scan", "k_via_filter_difference", "fiber",
                 "interpolate"],
    "sheaf": ["build_etale", "check_property_p", "global_sections",
              "crt_solve", "crt_term", "tower_sandwich", "germinal_ideal"],
}
# constructors wrapped through __init__
CLASSES = {"spectrum": ["MvDualSpace"], "chang": ["ChangSpace"]}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, job]
        self.stack = []
        self.job = None
        self.counts = {"sheaf.section_candidates": 0, "sheaf.sections": 0}
        self.algebras = []
        self.spaces = []

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.job])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[sid][2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- hooks that read counts and table sizes off the program's objects --

    def _after_sections(self, args, result):
        try:
            total = 1
            for stalk in args[0].stalks:
                total *= stalk.quotient.algebra.n
        except AttributeError:
            return
        self.counts["sheaf.section_candidates"] += total
        self.counts["sheaf.sections"] += len(result)

    def _after_algebra(self, args, result):
        self.algebras.append(result)

    def _after_space(self, args, result):
        self.spaces.append(args[0])

    def install(self):
        """Bind a wrapper wherever an mvspectra namespace holds a wrapped object."""
        import mvspectra.verify as verify

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "mvspectra" or name.startswith("mvspectra.")]
        hooks = {"sheaf.global_sections": self._after_sections,
                 "mv.algebra_from_json": self._after_algebra}
        swap = {}
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"mvspectra.{layer}"]
            for fname in names:
                fn = getattr(home, fname, None)
                if fn is None:
                    print(f"trace: {layer}.{fname} is gone; it reports 0", file=sys.stderr)
                    continue
                swap[id(fn)] = self.wrap(f"{layer}.{fname}", fn,
                                         hooks.get(f"{layer}.{fname}"))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in swap and callable(value):
                    setattr(module, attr, swap[id(value)])
        for layer, names in CLASSES.items():
            for cname in names:
                cls = getattr(sys.modules[f"mvspectra.{layer}"], cname)
                after = self._after_space if cname == "MvDualSpace" else None
                cls.__init__ = self.wrap(f"{layer}.{cname}", cls.__init__, after)
        # every check, registry entries and the suite heads alike, is handed
        # out by _suite_checks; wrap what it returns under the check's name
        pick = getattr(verify, "_suite_checks", None)
        if pick is None:
            print("trace: verify._suite_checks is gone; no verify spans",
                  file=sys.stderr)
        else:
            cache = {}

            def suite_checks(*args, **kwargs):
                out = []
                for cname, fn in pick(*args, **kwargs):
                    if (cname, fn) not in cache:
                        cache[cname, fn] = self.wrap(f"verify.{cname}", fn)
                    out.append((cname, cache[cname, fn]))
                return out

            verify._suite_checks = suite_checks

    def table_bytes(self):
        """Largest ndarray footprint of one algebra and of one dual space."""
        import numpy as np

        def arrays(obj):
            return {id(v): v.nbytes for v in vars(obj).values()
                    if isinstance(v, np.ndarray)}

        alg_arrays, alg_max = {}, 0
        for alg in self.algebras + [getattr(s, "algebra", None) for s in self.spaces]:
            own = arrays(alg) if hasattr(alg, "__dict__") else {}
            alg_arrays.update(own)
            alg_max = max(alg_max, sum(own.values()))
        space_max = 0
        for space in self.spaces:
            own = arrays(space)
            for value in vars(space).values():
                if hasattr(value, "__dict__") and not isinstance(value, type):
                    own.update(arrays(value))
            space_max = max(space_max, sum(
                b for k, b in own.items() if k not in alg_arrays))
        self.algebras, self.spaces = [], []
        return alg_max, space_max


def run_jobs(main, jobs, tracer=None):
    """One pass; returns (seconds from first start to last end, job records)."""
    records = []
    t0 = time.perf_counter()
    for pos, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = pos
        buf = io.StringIO()
        try:
            rc, error = main(job["args"], out=buf), None
        except SystemExit as exc:  # argparse rejects its argv this way
            rc, error = exc.code, None
        except Exception:
            rc, error = None, traceback.format_exc()
        records.append({"returncode": rc, "stdout": buf.getvalue(), "error": error})
        if tracer is not None:
            records[-1]["table_bytes"] = tracer.table_bytes()
    return time.perf_counter() - t0, records


def summarize(tracer, jobs):
    spans = tracer.spans
    selfs = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            selfs[s[3]] -= s[2] - s[1]
    metrics = {}

    def add(key, value):
        metrics[key] = metrics.get(key, 0) + value

    for sid, (name, start, end, parent, _job) in enumerate(spans):
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", selfs[sid])
        # inclusive time counts only the outermost span of a recursion
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent is None:
            add(f"{name}.s", end - start)
    metrics["verify.self_s"] = sum(
        selfs[i] for i, s in enumerate(spans) if s[0].startswith("verify."))
    metrics["chang.s"] = sum(
        s[2] - s[1] for s in spans
        if s[0] == "cli.main" and jobs[s[4]]["expect"]["factors"] is None)
    metrics.update(tracer.counts)
    cand = tracer.counts["sheaf.section_candidates"]
    metrics["sheaf.sections_per_candidate"] = (
        tracer.counts["sheaf.sections"] / cand if cand else 0.0)
    return metrics, sum(selfs)


def main(jobs_path, spans_path):
    t0 = time.perf_counter()
    import mvspectra.cli  # noqa: F401  (the import every CLI call pays)
    import_s = time.perf_counter() - t0
    with open(jobs_path, encoding="utf-8") as fh:
        jobs = json.load(fh)

    plain_s, plain = run_jobs(sys.modules["mvspectra.cli"].main, jobs)
    tracer = Tracer()
    tracer.install()
    traced_s, traced = run_jobs(sys.modules["mvspectra.cli"].main, jobs, tracer)

    metrics, self_sum = summarize(tracer, jobs)
    metrics["cli.import_s"] = import_s
    metrics["trace.overhead"] = traced_s / plain_s
    alg_bytes = [r.pop("table_bytes") for r in traced]
    metrics["mv.table_bytes"] = max(a for a, _ in alg_bytes)
    metrics["spectrum.table_bytes"] = max(s for _, s in alg_bytes)
    with open(spans_path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start - t0,
                                 "end": end - t0, "parent": parent,
                                 "job": jobs[job]["name"]}) + "\n")
    for rec, before in zip(traced, plain):
        rec["same_as_untraced"] = rec["stdout"] == before["stdout"]
    print(json.dumps({"metrics": metrics, "jobs": traced, "traced_s": traced_s,
                      "untraced_s": plain_s, "self_sum_s": self_sum,
                      "spans": len(tracer.spans)}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
