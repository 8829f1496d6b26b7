"""Command line front end.

Three subcommands: check (axiom scan), spectrum (dual-space dump), verify
(named invariant suites).  Input is a JSON algebra description, either
inline or as a file path.  Exit codes: 0 all pass, 1 any failure, 2 usage
or parse error.  Output for a fixed configuration is byte-identical across
runs: suites execute in registry order and JSON is emitted with sorted
keys.

Each command imports only the layers it runs: check needs the algebra
alone, spectrum adds the dual space, verify loads every module.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapExceeded, Error
from .mv import SCHEMA, SUITE_NAMES, algebra_from_json

USAGE_ERROR, CHECK_FAILED, OK = 2, 1, 0
# the bounded scans of the symbolic chain grow with the cube of the bound:
# about 115 MB of peak memory at 128, on int16 windows
CHANG_BOUND_MAX = 128


class UsageError(Exception):
    pass


def _load_algebra(raw, validate=True):
    """Inline JSON if the argument looks like an object or array, else a path."""
    if raw is None:
        raise UsageError("an algebra is required: pass --input")
    text = raw
    if not raw.lstrip().startswith(("{", "[")):
        try:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {raw}: {exc.strerror}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    try:
        return algebra_from_json(data, validate=validate)
    except Error as exc:
        raise UsageError(str(exc)) from None


def _emit(data, out):
    out.write(json.dumps(data, sort_keys=True, indent=2) + "\n")


def _carrier_guard(alg, cap):
    if alg.finite and alg.n > cap:
        raise CapExceeded(f"carrier {alg.n} exceeds the cap {cap}")


def cmd_check(args, out):
    if args.format == "dot":
        raise UsageError("check has no dot form")
    # load without validation so the scan itself reports the witness
    alg = _load_algebra(args.input, validate=False)
    bad = alg.first_violation(args.chang_bound)
    report = {
        "schema": SCHEMA,
        "ok": bad is None,
        "violation": None
        if bad is None
        else {
            "law": bad.law,
            "witness": list(bad.witness),
            "witness_labels": list(bad.witness_labels),
        },
    }
    if args.format == "json":
        _emit(report, out)
    else:
        if bad is None:
            out.write("ok\n")
        else:
            out.write(f"violation: {bad.law} at {list(bad.witness_labels)}\n")
    return OK if bad is None else CHECK_FAILED


def cmd_spectrum(args, out):
    from .spectrum import build_dual_space

    alg = _load_algebra(args.input)
    _carrier_guard(alg, args.cap)
    space = build_dual_space(alg)
    if args.format == "dot":
        out.write(space.to_dot(chang_bound=min(args.chang_bound, 8)))
        return OK
    data = space.to_json(chang_bound=args.chang_bound)
    if args.format == "json":
        _emit(data, out)
        return OK
    if alg.finite:
        out.write(f"points: {len(data['points'])}\n")
        out.write(f"Y: {data['Y']}\nZ: {data['Z']}\n")
        out.write(f"k: {data['k']}\nm: {data['m']}\n")
    else:
        out.write("symbolic chain space\n")
        out.write(f"Y: {data['Y']}\nZ: {data['Z']}\n")
    return OK


def cmd_verify(args, out):
    from .verify import run_suite

    if args.format == "dot":
        raise UsageError("verify has no dot form")
    alg = _load_algebra(args.input)
    try:
        _carrier_guard(alg, args.cap)
    except CapExceeded as exc:
        rows = []
        skipped_all = str(exc)
    else:
        rows = run_suite(
            alg,
            args.suite,
            chang_bound=args.chang_bound,
            section_cap=args.cap,
            seed=args.seed,
        )
        skipped_all = None
    if args.format == "json":
        _emit(
            {
                "schema": SCHEMA,
                "suite": args.suite,
                "skipped": skipped_all,
                "results": [
                    {"name": r.name, "status": r.status, "detail": r.detail}
                    for r in rows
                ],
            },
            out,
        )
    else:
        if skipped_all is not None:
            out.write(f"[SKIP] whole suite  ({skipped_all})\n")
        for r in rows:
            out.write(r.line() + "\n")
    return CHECK_FAILED if any(r.status == "fail" for r in rows) else OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mvspectra",
        description="Finite MV-algebra dual spaces, sheaves, and checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("check", cmd_check),
        ("spectrum", cmd_spectrum),
        ("verify", cmd_verify),
    ):
        p = sub.add_parser(name)
        p.add_argument(
            "--input",
            help='algebra JSON, inline (starts with "{" or "[") or a file',
        )
        p.add_argument("--cap", type=int, default=10**6, help="size budget")
        p.add_argument("--chang-bound", type=int, default=32)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--format",
            choices=("json", "dot", "text"),
            default="text",
        )
        if name == "verify":
            p.add_argument("--suite", choices=SUITE_NAMES, default="all")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None, out=None):
    out = sys.stdout if out is None else out
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, value in (("--cap", args.cap), ("--seed", args.seed)):
        if value < 0:
            parser.error(f"argument {flag}: {value} is not at least 0")
    if not 0 <= args.chang_bound <= CHANG_BOUND_MAX:
        parser.error(
            f"argument --chang-bound: {args.chang_bound} is not in "
            f"0..{CHANG_BOUND_MAX}"
        )
    try:
        return args.fn(args, out)
    except UsageError as exc:
        print(f"mvspectra: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Error as exc:
        print(f"mvspectra: {exc}", file=sys.stderr)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
