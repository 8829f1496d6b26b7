"""Output checker that does not import mvspectra.

Each check takes a job (from workloads.generate), the exit code and the
decoded stdout, and returns None when the output is right, else a one-line
reason.  The expected answers come from closed forms for products of
Lukasiewicz chains and from the input tables themselves.
"""

from __future__ import annotations

import json

# rows of `verify --suite all` that may skip on the symbolic carrier only
SYMBOLIC_SKIPS = {"sheaf-prime-symbolic", "sheaf-maximal-symbolic", "crt-symbolic"}


def check_job(job, returncode, stdout):
    try:
        data = json.loads(stdout)
    except ValueError:
        return f"exit {returncode}, stdout is not JSON"
    if not isinstance(data, dict):
        return "stdout is not a JSON object"
    command = job["command"]
    if command == "check":
        with open(job["input"], encoding="utf-8") as fh:
            tables = json.load(fh)
        return check_check(job["expect"], tables, returncode, data)
    if returncode != 0:
        return f"exit {returncode}, expected 0"
    factors = job["expect"]["factors"]
    if command == "spectrum":
        return check_spectrum(factors, data)
    if command == "verify":
        return check_verify(factors is None, data)
    return f"unknown command {command!r}"


# -- spectrum -----------------------------------------------------------------


def check_spectrum(factors, data):
    if factors is None:
        return _check_symbolic_space(data)
    return _check_chain_product_space(factors, data)


def _check_symbolic_space(data, bound=32):
    """Chang's chain: points I0..I_bound, I_omega, J_bound..J1; Y = {I0, I_omega}."""
    if data.get("kind") != "dual-space-symbolic" or data.get("bound") != bound:
        return "not a symbolic dual space with the default bound"
    window = data.get("points_window", [])
    if len(window) != 2 * bound + 2 or len(set(window)) != len(window):
        return f"window has {len(window)} points, expected {2 * bound + 2}"
    ys, zs = data.get("Y", []), data.get("Z", [])
    if sorted(ys) != ["I0", "I_omega"] or zs != ["I_omega"]:
        return f"Y={ys} Z={zs}, expected Y={{I0, I_omega}} and Z={{I_omega}}"
    inv = data.get("involution", {})
    for p, q in inv.items():
        if q in inv and inv[q] != p:
            return f"involution is not involutive at {p}"
    if set(data.get("k", {})) != set(window):
        return "k is not defined on the whole window"
    if any(v not in ys for v in data["k"].values()):
        return "k leaves Y"
    if data.get("m") != {y: "I_omega" for y in ys}:
        return "m does not send Y onto Z"
    return None


def _components(npts, pairs):
    parent = list(range(npts))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in pairs:
        parent[find(i)] = find(j)
    groups = {}
    for x in range(npts):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def _check_chain_product_space(factors, data):
    """L_{n1} x ... x L_{nk}: X is k disjoint chains of lengths n_i, |Y| = |Z| = k."""
    if data.get("kind") != "dual-space":
        return "not a finite dual space"
    npts = len(data.get("points", []))
    if npts != sum(factors):
        return f"|X| = {npts}, expected {sum(factors)}"
    ys, zs = data.get("Y", []), data.get("Z", [])
    if len(ys) != len(factors) or len(zs) != len(factors):
        return f"|Y| = {len(ys)}, |Z| = {len(zs)}, expected {len(factors)}"
    if not set(zs) <= set(ys) or not set(ys) <= set(range(npts)):
        return "Z is not inside Y, or Y is not inside X"
    leq = {(i, j) for i, j in data.get("order", [])}
    if any((x, x) not in leq for x in range(npts)):
        return "order is not reflexive"
    if any((j, i) in leq for i, j in leq if i != j):
        return "order is not antisymmetric"
    comps = _components(npts, leq)
    if sorted(len(c) for c in comps) != sorted(factors):
        return f"order components {sorted(len(c) for c in comps)}, expected {sorted(factors)}"
    component_of = {x: ci for ci, comp in enumerate(comps) for x in comp}
    for comp in comps:
        s = len(comp)
        inside = sum(1 for i in comp for j in comp if (i, j) in leq)
        if inside != s * (s + 1) // 2:
            return f"an order component of size {s} is not a chain"
        if sum(1 for y in ys if y in comp) != 1:
            return "a chain holds other than one Y point"
    inv = data.get("involution", [])
    if sorted(inv) != list(range(npts)) or any(inv[inv[x]] != x for x in range(npts)):
        return "involution is not an involutive permutation of X"
    if any((inv[j], inv[i]) not in leq for i, j in leq):
        return "involution does not reverse the order"
    k = data.get("k", [])
    if len(k) != npts or any(component_of[k[x]] != component_of[x] for x in range(npts)):
        return "k does not map each chain into itself"
    if set(k) != set(ys) or any(k[y] != y for y in ys):
        return "k is not a retraction onto Y"
    m = data.get("m", [])
    if sorted(y for y, _ in m) != sorted(ys) or any(z not in zs for _, z in m):
        return "m is not a map from Y to Z"
    plus = data.get("plus", [])
    if len(plus) != npts or any(len(row) != npts for row in plus):
        return "plus is not an |X| x |X| table"
    if any(v != -1 and not 0 <= v < npts for row in plus for v in row):
        return "plus has entries outside X"
    return None


# -- verify -------------------------------------------------------------------


def check_verify(symbolic, data):
    if data.get("skipped") is not None:
        return f"whole suite skipped: {data['skipped']}"
    rows = data.get("results", [])
    if not rows:
        return "verify returned no rows"
    for row in rows:
        status = row.get("status")
        if status == "pass":
            continue
        if status == "skip" and symbolic and row.get("name") in SYMBOLIC_SKIPS:
            continue
        return f"row {row.get('name')} is {status}: {row.get('detail')}"
    if symbolic and not SYMBOLIC_SKIPS <= {r.get("name") for r in rows}:
        return "a finite-only suite did not report its symbolic skip"
    return None


# -- check --------------------------------------------------------------------


def _law_holds(law, tables, w):
    """Evaluate a perturbation's expected law at witness w on the raw tables."""
    neg, oplus = tables["neg"], tables["oplus"]
    if not all(isinstance(v, int) and 0 <= v < len(neg) for v in w):
        return True
    if law == "involution" and len(w) == 1:
        return neg[neg[w[0]]] == w[0]
    if law == "associativity" and len(w) == 3:
        a, b, c = w
        return oplus[oplus[a][b]][c] == oplus[a][oplus[b][c]]
    return True  # a witness of the wrong shape confirms nothing


def check_check(expect, tables, returncode, data):
    violation = data.get("violation")
    law = expect.get("law")
    if law is None:
        if returncode != 0 or data.get("ok") is not True or violation is not None:
            return f"valid tables rejected (exit {returncode}): {violation}"
        return None
    if returncode != 1 or data.get("ok") is not False or not violation:
        return f"perturbed tables accepted (exit {returncode})"
    if violation.get("law") != law:
        return f"violation names {violation.get('law')}, expected {law}"
    witness = violation.get("witness", [])
    if _law_holds(law, tables, witness):
        return f"witness {witness} does not break {law}"
    labels = tables["labels"]
    if violation.get("witness_labels") != [labels[v] for v in witness]:
        return "witness labels do not match the input labels"
    return None
