"""Task specifications, and the text the value types of every layer print as."""

from fractions import Fraction

import numpy as np
import pytest

from plab.coarse import TableMap
from plab.emx import IndexedDomain
from plab.quantum import CorrelationTable, DensityMatrix, Povm
from plab.tasks import TaskSpec


class TestTaskSpec:
    def test_utilities_parsed_exactly(self):
        task = TaskSpec(["t"], ["h0", "h1"], [["0.9", "1/4"]])
        assert task.utility[0] == (Fraction(9, 10), Fraction(1, 4))

    def test_opt_values(self):
        task = TaskSpec(["t0", "t1"], ["a", "b", "c"], [[0, 1, "1/2"], ["1/3", "1/3", "1/4"]])
        assert task.opt(0) == 1
        assert task.opt(1) == Fraction(1, 3)

    def test_utility_and_opt_are_the_parsed_rationals(self):
        rows = [["1/3", "0.25", 0, "999999999999/1000000000000"], [1, "2/6", "0", "1e-3"]]
        task = TaskSpec(["t0", "t1"], ["a", "b", "c", "d"], rows)
        parsed = tuple(tuple(map(Fraction, row)) for row in rows)
        assert task.utility == parsed
        assert all(type(u) is Fraction for row in task.utility for u in row)
        assert [task.opt(i) for i in range(2)] == [max(row) for row in parsed]
        assert all(type(task.opt(i)) is Fraction for i in range(2))

    def test_integer_form_is_each_row_over_its_lcm_denominator(self):
        task = TaskSpec(["t0", "t1"], ["a", "b", "c"], [["1/3", "1/4", "1"], ["0", "1/2", "1/2"]])
        assert task.scales == (12, 2)
        assert task.iutility == ((4, 3, 12), (0, 1, 1))

    def test_utilities_must_lie_in_unit_interval(self):
        with pytest.raises(ValueError):
            TaskSpec(["t"], ["h"], [["3/2"]])
        with pytest.raises(ValueError):
            TaskSpec(["t"], ["h"], [["-1/2"]])

    @pytest.mark.parametrize("ends", [[0, 1], ["0", "1"], ["0.0", "1/1"], [Fraction(0), Fraction(5, 5)]])
    def test_both_ends_of_the_unit_interval_are_utilities(self, ends):
        task = TaskSpec(["t0", "t1"], ["h0", "h1"], [ends, ends[::-1]])
        assert task.utility == ((0, 1), (1, 0))

    @pytest.mark.parametrize("u", ["1." + "0" * 29 + "1", "-0." + "0" * 29 + "1",
                                   Fraction(10**30 + 1, 10**30), Fraction(-1, 10**30)])
    def test_utilities_past_the_ends_by_1e_30_are_refused(self, u):
        with pytest.raises(ValueError, match=r"^utilities must lie in \[0,1\]$"):
            TaskSpec(["t"], ["h0", "h1"], [["1/2", u]])

    @pytest.mark.parametrize("thetas, hyps, message", [
        (["t0", ["t1"]], ["h0", "h1"], "'thetas' labels must be strings, not list"),
        (["t0", "t1"], ["h0", 1], "'hyps' labels must be strings, not int"),
        ([None, "t1"], ["h0", "h1"], "'thetas' labels must be strings, not NoneType"),
    ])
    def test_labels_must_be_strings(self, thetas, hyps, message):
        with pytest.raises(TypeError, match=f"^{message}$"):
            TaskSpec(thetas, hyps, [[1, 0], [0, 1]])

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            TaskSpec(["t", "t"], ["h"], [[1], [1]])
        with pytest.raises(ValueError):
            TaskSpec([], ["h"], [])
        with pytest.raises(ValueError):
            TaskSpec(["t"], ["h"], [[1, 0]])  # row width != |H|

    def test_one_utility_row_per_environment(self):
        with pytest.raises(ValueError, match="row count must match environment count"):
            TaskSpec(["t0", "t1"], ["h"], [[1]])

    def test_json_roundtrip(self):
        obj = {"thetas": ["t0", "t1"], "hyps": ["h0", "h1"], "utility": [["1", "1/3"], ["0", "0.5"]]}
        task = TaskSpec.from_json(obj)
        assert task.utility == ((1, Fraction(1, 3)), (0, Fraction(1, 2)))
        again = {"thetas": list(task.thetas), "hyps": list(task.hyps),
                 "utility": [[str(u) for u in row] for row in task.utility]}
        assert again == {**obj, "utility": [["1", "1/3"], ["0", "1/2"]]}

    @pytest.mark.parametrize("key, value, name", [
        ("thetas", "ab", "'thetas'"),
        ("hyps", "xy", "'hyps'"),
        ("utility", "10", "'utility'"),
        ("utility", [["1", "0"], "01"], "'utility' row 1"),
    ])
    def test_json_string_for_a_list_is_a_type_error(self, key, value, name):
        obj = {"thetas": ["a", "b"], "hyps": ["x", "y"], "utility": [["1", "0"], ["0", "1"]], key: value}
        with pytest.raises(TypeError, match=f"^{name} must be a list, not str$"):
            TaskSpec.from_json(obj)


@pytest.mark.parametrize("make, text", [
    (lambda: TableMap([(1, "a"), (2, "b"), (3, "a")]), "TableMap(3 entries)"),
    (lambda: IndexedDomain("abcde").initial_segment(2), "FiniteHypothesis(segment t=2)"),
    (lambda: DensityMatrix(np.eye(3) / 3), "DensityMatrix(dim=3)"),
    (lambda: Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]), "Povm(2 outcomes, dim=2)"),
    (lambda: CorrelationTable(np.full((2, 2, 3, 1), 0.25)), "CorrelationTable(shape=(2, 2, 3, 1))"),
    (lambda: TaskSpec(["t0", "t1"], ["h0", "h1", "h2"], [[1, 0, 0], [0, 1, 0]]),
     "TaskSpec(2 environments x 3 hypotheses)"),
], ids=["TableMap", "FiniteHypothesis", "DensityMatrix", "Povm", "CorrelationTable", "TaskSpec"])
def test_repr_names_the_class_and_its_size(make, text):
    assert repr(make()) == text
