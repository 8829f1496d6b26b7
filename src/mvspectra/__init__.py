"""Finite MV-algebras, their dual spaces, and sheaf representations.

The package surface is lazy (PEP 562): importing mvspectra loads no
submodule, and each public name is imported from its home module on first
use, so a caller pays only for the layers it touches.
"""

import importlib

# home module -> the public names it provides; each name is listed once
_HOMES = {
    "chang": ("ChangAlgebra", "ChangIdeal", "ChangSpace"),
    "errors": (
        "AlgebraError",
        "CapExceeded",
        "Error",
        "LatticeError",
        "NotDistributiveError",
        "PosetError",
    ),
    "idealarith": ("is_lattice_filter", "is_lattice_ideal", "ominus_bar", "oplus_bar"),
    "lattice": (
        "FiniteDistLattice",
        "FinitePoset",
        "duality_roundtrip",
        "enumerate_prime_ideals",
        "lattice_from_downsets",
        "stone_map",
    ),
    "mv": (
        "MvAlgebra",
        "SUITE_NAMES",
        "algebra_from_json",
        "check_axioms",
        "enumerate_mv_ideals",
        "ideal_generated",
        "is_mv_ideal",
        "lukasiewicz_chain",
        "product",
    ),
    "sheaf": (
        "BASE_MAXIMAL",
        "BASE_PRIME",
        "EtaleInstance",
        "build_etale",
        "check_property_p",
        "crt_solve",
        "crt_term",
        "decomposition_sheaf",
        "eta_check",
        "germinal_ideal",
        "global_sections",
        "tower_sandwich",
    ),
    "spectrum": (
        "MvDualSpace",
        "WQuotient",
        "build_dual_space",
        "interpolate",
        "kaplansky_check",
        "w_quotient",
    ),
    "verify": ("CheckResult", "run_suite"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
