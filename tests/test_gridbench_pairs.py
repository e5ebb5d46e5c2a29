"""The verdict arithmetic of tools/gridbench_pairs.py, on canned records."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "gb_pairs", Path(__file__).resolve().parent.parent / "tools" / "gridbench_pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _jitter(base, step):
    return [base + step * (i % 5 - 2) for i in range(10)]


class TestVerdict:
    def test_a_count_that_repeats_resolves_as_better(self):
        a = _jitter(3175.0, 1.0)
        v = pairs.verdict(a, _jitter(2234.0, 1.0), _jitter(3175.5, 1.0), "lower", 0.03)
        assert v["verdict"] == "better" and not v["regression"]
        assert (v["wins"], v["losses"], v["pairs"]) == (10, 0, 10)
        assert v["median_a"] == 3175.0 and v["median_b"] == 2234.0
        assert v["quartiles_a"] == (3174.0, 3176.0)
        assert v["aa_shift"] == 0.5 and v["noise"] == 2.0  # A's own IQR is the larger

    def test_a_shift_inside_the_aa_shift_is_not_a_change(self):
        # B reads 2% higher on every pair, but two copies of A differ by 3%
        a = _jitter(100.0, 0.1)
        b = [x * 1.02 for x in a]
        assert pairs.verdict(a, b, [x * 1.03 for x in a], "higher", 0.25)["verdict"] == "within bound"
        # ... and with a spread wider than the bound the pairs cannot tell
        noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
        assert pairs.verdict(noisy, b, a, "higher", 0.25)["verdict"] == "unresolved"

    def test_eight_wins_of_ten_do_not_resolve_and_ties_count_for_neither(self):
        a = [100.0] * 10
        b = [90.0] * 8 + [100.0, 100.0]
        v = pairs.verdict(a, b, a, "lower", 0.25)
        assert (v["wins"], v["losses"]) == (8, 0)
        assert v["verdict"] == "within bound"
        assert pairs.verdict(a, [90.0] * 9 + [100.0], a, "lower", 0.25)["verdict"] == "better"

    def test_worse_beyond_the_bound_is_a_regression(self):
        a = _jitter(2.0, 0.01)
        v = pairs.verdict(a, [x * 1.5 for x in a], a, "lower", 0.25)
        assert v["verdict"] == "worse" and v["regression"]
        v = pairs.verdict(a, [x * 1.1 for x in a], a, "lower", 0.25)
        assert v["verdict"] == "worse" and not v["regression"]  # resolved, but inside the bound

    def test_a_constant_ratio_is_within_bound(self):
        ones = [1.0] * 10
        assert pairs.verdict(ones, ones, ones, "higher", 0.001)["verdict"] == "within bound"


def test_report_prints_one_row_per_metric_and_the_failed_share():
    def run(value):
        return {"correct": True, "attempted": 100, "failed": 0,
                "metrics": {"wal_bytes_per_op": {"value": value, "unit": "B"}}}

    runs = {"a": [run(3000.0)] * 4, "b": [run(2000.0)] * 4, "a2": [run(3000.0)] * 4}
    metric = {"name": "wal_bytes_per_op", "better": "lower", "bound": 0.03}
    lines, regressed = pairs.report("direct_tcp", runs, [metric])
    assert not regressed
    assert pairs.report("direct_tcp", {**runs, "b": [run(4000.0)] * 4}, [metric])[1]
    assert lines[0] == "== direct_tcp: 4 pairs"
    assert "attempted 400  failed 0" in lines[1]
    assert "wal_bytes_per_op" in lines[-1] and "-33.3%" in lines[-1] and lines[-1].endswith("better")
