"""Workload job lists and the seeded input generator.

Every input is a product of Lukasiewicz chains L_n (n + 1 elements), so the
expected dual space has closed forms the checker can test without mvspectra.
The seed permutes job order and factor order, relabels the carrier of every
`tables` input, places the perturbations and draws verify's --seed.  Shapes
are fixed, so the cost of a pass does not depend on the seed.  Generation
uses only the standard library: the same seed writes byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import os
import random

CHANG = "chang"

# (command, shape, perturbation); a shape is a tuple of chain lengths or CHANG.
WORKLOADS = {
    "spectrum-shapes": [
        ("spectrum", (127,), None),
        ("spectrum", (9, 9), None),
        ("spectrum", (2, 2, 2, 2), None),
        ("spectrum", (7, 7), None),
        ("spectrum", (1,) * 6, None),
        ("spectrum", CHANG, None),
    ],
    "verify-mix": [
        ("verify", (47,), None),
        ("verify", (7, 7), None),
        ("verify", (2, 2, 2), None),
        ("verify", (1,) * 5, None),
        ("verify", CHANG, None),
    ],
    "check-tables": [
        ("check", (15, 15), None),
        ("check", (19, 19), None),
        ("check", (23, 11), None),
        ("check", (11, 11), None),
        ("check", (15, 15), "oplus-symmetric"),
        ("check", (15, 15), "neg-swap"),
    ],
}

# the law the first violation must name, per perturbation
EXPECTED_LAW = {"oplus-symmetric": "associativity", "neg-swap": "involution"}


def chain_product_tables(factors):
    """neg, oplus, zero and labels of L_{n1} x ... x L_{nk}, lexicographic."""
    elems = list(itertools.product(*(range(n + 1) for n in factors)))
    index = {e: i for i, e in enumerate(elems)}
    neg = [index[tuple(n - a for n, a in zip(factors, e))] for e in elems]
    oplus = [
        [
            index[tuple(min(n, a + b) for n, a, b in zip(factors, x, y))]
            for y in elems
        ]
        for x in elems
    ]
    labels = ["(" + ",".join(map(str, e)) + ")" for e in elems]
    return neg, oplus, 0, labels


def relabel(neg, oplus, zero, labels, perm):
    """The same algebra with element a renamed perm[a]."""
    n = len(neg)
    new_neg = [0] * n
    new_oplus = [[0] * n for _ in range(n)]
    new_labels = [None] * n
    for a in range(n):
        pa = perm[a]
        new_neg[pa] = perm[neg[a]]
        new_labels[pa] = labels[a]
        row, new_row = oplus[a], new_oplus[pa]
        for b in range(n):
            new_row[perm[b]] = perm[row[b]]
    return new_neg, new_oplus, perm[zero], new_labels


def _associativity_breaks(oplus, p, q):
    """True if some triple through the edited pair (p, q) breaks associativity."""
    n = len(oplus)
    for x, y in ((p, q), (q, p)):
        for c in range(n):
            if oplus[oplus[x][y]][c] != oplus[x][oplus[y][c]]:
                return True
            if oplus[oplus[c][x]][y] != oplus[c][oplus[x][y]]:
                return True
    return False


def perturb(rng, kind, neg, oplus, zero):
    """Edit the tables in place so the first violated law is EXPECTED_LAW[kind]."""
    n = len(neg)
    one = neg[zero]
    inner = [a for a in range(n) if a not in (zero, one)]
    if kind == "oplus-symmetric":
        # a symmetric edit keeps commutativity, so associativity fails first
        while True:
            p, q = rng.sample(inner, 2)
            v = rng.choice([c for c in range(n) if c != oplus[p][q]])
            old = oplus[p][q]
            oplus[p][q] = oplus[q][p] = v
            if _associativity_breaks(oplus, p, q):
                return {"kind": kind, "at": [p, q], "value": v}
            oplus[p][q] = oplus[q][p] = old
    if kind == "neg-swap":
        # swapping the negations of a non-complementary pair breaks involution
        while True:
            a, b = rng.sample(inner, 2)
            if neg[a] != b:
                neg[a], neg[b] = neg[b], neg[a]
                return {"kind": kind, "at": [a, b]}
    raise ValueError(f"unknown perturbation {kind!r}")


def _description(shape):
    if shape == CHANG:
        return {"kind": "chang"}
    chains = [{"kind": "lukasiewicz", "n": n} for n in shape]
    return chains[0] if len(chains) == 1 else {"kind": "product", "factors": chains}


def generate(workload, seed, directory):
    """Write the workload's inputs for this seed; returns the job list.

    Each job is a dict with the argv tail for mvspectra, the input file, and
    what the checker needs to know about the input.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    specs = list(WORKLOADS[workload])
    rng.shuffle(specs)
    os.makedirs(directory, exist_ok=True)
    jobs = []
    for pos, (command, shape, perturbation) in enumerate(specs):
        factors = None
        if shape != CHANG:
            factors = list(shape)
            rng.shuffle(factors)
        expect = {"factors": factors, "perturbation": None}
        if command == "check":
            neg, oplus, zero, labels = chain_product_tables(factors)
            perm = list(range(len(neg)))
            rng.shuffle(perm)
            neg, oplus, zero, labels = relabel(neg, oplus, zero, labels, perm)
            if perturbation is not None:
                expect["perturbation"] = perturb(rng, perturbation, neg, oplus, zero)
                expect["law"] = EXPECTED_LAW[perturbation]
            data = {"kind": "tables", "zero": zero, "neg": neg, "oplus": oplus,
                    "labels": labels}
        else:
            data = _description(factors if factors is not None else CHANG)
        path = os.path.join(directory, f"{pos:02d}-{command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        args = [command, "--input", path, "--format", "json"]
        if command == "verify":
            args += ["--suite", "all", "--seed", str(rng.randrange(2**31))]
        name = "chang" if shape == CHANG else "x".join(f"L{n}" for n in shape)
        if perturbation:
            name += "+" + perturbation
        jobs.append({"name": f"{command}:{name}", "command": command,
                     "args": args, "input": path, "expect": expect})
    return jobs
