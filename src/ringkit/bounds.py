"""Truncation bounds: the one place that checks a given bound and
supplies a missing one.

Every number ringkit reports holds through a stated window: a
homological bound N and an internal-degree bound D (aq also has its
simplicial level L).  A bound the caller gives is used as given, once
it is checked to be non-negative; a missing bound is the default
below.  Defaults are generous windows, not certificates: a cut that
could hide a class is reported as a flag by the computation itself.
"""

from __future__ import annotations

from .errors import ValidationError

HOMOLOGICAL = 8  # betti and tor
FROBENIUS_HOMOLOGICAL = 6  # kunz and ghost-trivial
AQ_LEVELS = 5


def check(**bounds):
    """Reject a negative truncation bound; None stands for the default."""
    for name, value in bounds.items():
        if value is not None and value < 0:
            raise ValidationError(f"{name} bound must be non-negative, got {value}")


def _step(R) -> int:
    """One default step of a window: max(2, largest generator degree)."""
    return max(2, R.max_generator_degree())


def resolution_degree(M, N: int, D=None) -> int:
    """D for resolving the presented module M through step N."""
    check(homological=N, degree=D)
    if D is not None:
        return D
    s = M.scale
    return N * _step(M.ring) * s + max(M.gen_degrees, default=0) + 2 * s


def tor_degree(R, unit: int, top: int, D=None) -> int:
    """Tor's window in the common grading unit; top is the largest degree
    of a resolution generator plus that of a coefficient generator."""
    if D is not None:
        return D
    return top + unit * (_step(R) + 2)


def koszul_degree(K, D=None) -> int:
    """D for the homology of the Koszul complex K."""
    check(degree=D)
    if D is not None:
        return D
    return sum(f.degree() for f in K.sequence) + 8 * _step(K.ring) + 2


def aq_degree(D=None) -> int:
    """D for aq's simplicial replacement."""
    check(degree=D)
    return 10 if D is None else D


def aq_certified(R) -> int:
    """AQ of a complete intersection lives in internal degrees at most the
    largest generator degree (and 1, for the variables)."""
    return max(1, R.max_generator_degree())
