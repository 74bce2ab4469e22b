"""Finite decision tasks.

A task is (environments, hypotheses, utility matrix in [0,1]) with exact
rational utilities.  Behaviors over a task, kernels q[theta][h] with one
probability row per environment, are the coordinates of the LP deciders in
``plab.feasibility``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .emx import _json_list, as_fraction


class TaskSpec:
    """Environment labels, hypothesis labels, and a utility matrix U[theta][h]
    with entries in [0,1] (stored as exact rationals)."""

    __slots__ = ("thetas", "hyps", "utility")

    def __init__(self, thetas: Sequence[str], hyps: Sequence[str], utility: Sequence[Sequence]):
        self.thetas = tuple(str(t) for t in thetas)
        self.hyps = tuple(str(h) for h in hyps)
        if len(set(self.thetas)) != len(self.thetas) or len(set(self.hyps)) != len(self.hyps):
            raise ValueError("labels must be distinct")
        if not self.thetas or not self.hyps:
            raise ValueError("need at least one environment and one hypothesis")
        rows = []
        for row in utility:
            row = tuple(as_fraction(u) for u in row)
            if len(row) != len(self.hyps):
                raise ValueError("utility row length must match hypothesis count")
            if any(not 0 <= u <= 1 for u in row):
                raise ValueError("utilities must lie in [0,1]")
            rows.append(row)
        if len(rows) != len(self.thetas):
            raise ValueError("utility row count must match environment count")
        self.utility = tuple(rows)

    def opt(self, i: int) -> Fraction:
        """Best utility in environment i (max over the finite hypothesis set)."""
        return max(self.utility[i])

    @classmethod
    def from_json(cls, obj: dict) -> "TaskSpec":
        thetas, hyps, utility = (_json_list(obj, key) for key in ("thetas", "hyps", "utility"))
        return cls(thetas, hyps, [_json_list(utility, i, f"'utility' row {i}") for i in range(len(utility))])

    def __repr__(self) -> str:
        return f"TaskSpec({len(self.thetas)} environments x {len(self.hyps)} hypotheses)"
