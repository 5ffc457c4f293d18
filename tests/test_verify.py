"""The verification runner itself: check registry, filtering, and the
progress callback.  The individual checks are exercised one-per-criterion in
test_acceptance.py."""

import json

import numpy as np
import pytest

from fhnlse.verify import CHECK_NAMES, _QUICK_CHECKS, CheckResult, run_checks


class TestRegistry:
    def test_twelve_uniquely_named_checks(self):
        assert len(CHECK_NAMES) == 12
        assert len(set(CHECK_NAMES)) == 12

    def test_quick_subset_is_registered(self):
        assert set(_QUICK_CHECKS) <= set(CHECK_NAMES)


class TestCheckResult:
    def test_numpy_verdict_becomes_a_json_serializable_bool(self):
        result = CheckResult(name="x", passed=np.float64(1.0) < 2.0, detail="")
        assert type(result.passed) is bool
        assert json.loads(json.dumps({"passed": result.passed})) == {"passed": True}


class TestRunChecks:
    def test_invalid_level_raises(self):
        with pytest.raises(ValueError, match="level"):
            run_checks(level="exhaustive")

    def test_unmatched_filter_raises(self):
        with pytest.raises(ValueError, match="no check name"):
            run_checks(level="quick", only="zzz-not-a-check")

    def test_filtered_quick_run_reports_through_the_callback(self):
        seen: list[CheckResult] = []
        results = run_checks(level="quick", only="gradient", progress=seen.append)
        assert [r.name for r in results] == ["gradient-pairing"]
        assert results[0].passed, results[0].detail
        assert results[0].seconds >= 0.0
        assert seen == results
