"""Shared exception types."""

from __future__ import annotations


class Error(Exception):
    """Base class for every error this package raises deliberately."""


class PosetError(Error):
    """Input relation is not a partial order."""


class LatticeError(Error):
    """Input tables do not describe a bounded lattice."""


class NotDistributiveError(LatticeError):
    """Distributivity failed; carries a witness triple when one is known.

    witness is (a, b, c) with a∧(b∨c) != (a∧b)∨(a∧c), or None when the
    failure was detected structurally without isolating a triple.
    """

    def __init__(self, witness=None):
        if witness is None:
            msg = "lattice is not distributive"
        else:
            a, b, c = witness
            msg = f"lattice is not distributive: witness a={a}, b={b}, c={c}"
        super().__init__(msg)
        self.witness = witness


class AlgebraError(Error):
    """Operation tables fail an algebra axiom; carries the first violation."""

    def __init__(self, violation):
        super().__init__(str(violation))
        self.violation = violation


class CapExceeded(Error):
    """A configured size cap would be exceeded; raised before doing the work."""
