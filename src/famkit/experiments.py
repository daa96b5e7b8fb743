"""Exploration harnesses for open questions; nothing here asserts an answer.

The amalgamation search looks for uniformly supported common extensions of
two compatible uniformly supported fams by sampling vertices of the
witness polytope under random rational objectives.  Whether such an
extension always exists is open; the harness only reports findings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .extend import _merged_assignment, _assignment_system
from .fam import Fam, uniformly_supported


@dataclass(frozen=True)
class AmalgamationSearch:
    attempted: int
    witnesses_found: int
    uniformly_supported_found: int
    example: Fam | None


def search_uniformly_supported_amalgamation(
    fam0: Fam, fam1: Fam, rng: Random, trials: int = 50
) -> AmalgamationSearch:
    """Sample amalgamation witnesses and test each for uniform support."""
    from .simplex import optimize

    merged, conflict = _merged_assignment(fam0, fam1)
    if conflict is not None:
        return AmalgamationSearch(0, 0, 0, None)
    algebra, system = _assignment_system(merged)
    objectives = []
    for _ in range(trials):
        objective = [Fraction(rng.randint(-6, 6)) for _ in range(algebra.atom_count)]
        maximize = rng.random() < 0.5
        objectives.append([-c for c in objective] if maximize else objective)
    optima = optimize(system, objectives) or []
    supported = 0
    example = None
    for _, solution in optima:
        witness = Fam(algebra, solution)
        if witness.total > 0 and uniformly_supported(witness) is not None:
            supported += 1
            if example is None:
                example = witness
    return AmalgamationSearch(trials, len(optima), supported, example)
