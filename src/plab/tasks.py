"""Finite decision tasks.

A task is (environments, hypotheses, utility matrix in [0,1]) with exact
rational utilities.  Behaviors over a task, kernels q[theta][h] with one
probability row per environment, are the coordinates of the LP deciders in
``plab.feasibility``.

Utilities are held in integer form, built once at construction: row i is
``iutility[i]``, its utilities times ``scales[i]`` > 0, the lcm of that
row's denominators (``emx._integer_form``).  The [0,1] check reads 0 <= n <= scale, and
``feasibility.epsilon_optimal_sets`` cuts each row at epsilon in integers.
"""

from __future__ import annotations

from typing import Sequence

from .emx import _integer_form, _json_list, as_fraction


class TaskSpec:
    """Environment labels, hypothesis labels (distinct strings), and a utility
    matrix U[theta][h] with exact rational entries in [0,1], stored in the
    integer form of the module docstring."""

    __slots__ = ("thetas", "hyps", "scales", "iutility")

    def __init__(self, thetas: Sequence[str], hyps: Sequence[str], utility: Sequence[Sequence]):
        self.thetas, self.hyps = tuple(thetas), tuple(hyps)
        for name, labels in (("thetas", self.thetas), ("hyps", self.hyps)):
            bad = [x for x in labels if not isinstance(x, str)]
            if bad:
                raise TypeError(f"'{name}' labels must be strings, not {type(bad[0]).__name__}")
        if len(set(self.thetas)) != len(self.thetas) or len(set(self.hyps)) != len(self.hyps):
            raise ValueError("labels must be distinct")
        if not self.thetas or not self.hyps:
            raise ValueError("need at least one environment and one hypothesis")
        scales, rows = [], []
        for row in utility:
            scale, row = _integer_form([as_fraction(u) for u in row])
            if len(row) != len(self.hyps):
                raise ValueError("utility row length must match hypothesis count")
            if min(row) < 0 or max(row) > scale:
                raise ValueError("utilities must lie in [0,1]")
            scales.append(scale)
            rows.append(row)
        if len(rows) != len(self.thetas):
            raise ValueError("utility row count must match environment count")
        self.scales, self.iutility = tuple(scales), tuple(rows)

    @classmethod
    def from_json(cls, obj: dict) -> "TaskSpec":
        thetas, hyps, utility = (_json_list(obj, key) for key in ("thetas", "hyps", "utility"))
        return cls(thetas, hyps, [_json_list(utility, i, f"'utility' row {i}") for i in range(len(utility))])

    def __repr__(self) -> str:
        return f"TaskSpec({len(self.thetas)} environments x {len(self.hyps)} hypotheses)"
