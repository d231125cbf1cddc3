"""Regression comparator: identical passes, injected slowdowns fail."""

import copy

import pytest

from repro.obs.regression import (
    Regression,
    compare_baselines,
    load_baseline,
    make_baseline,
    new_workloads,
    save_baseline,
)


def _doc(**seconds):
    return make_baseline(
        {
            name: {"simulated_seconds": s, "wall_seconds": 0.1}
            for name, s in seconds.items()
        },
        created="2026-08-06",
        label="test",
    )


class TestMakeBaseline:
    def test_requires_simulated_seconds(self):
        with pytest.raises(ValueError, match="simulated_seconds"):
            make_baseline({"w": {"wall_seconds": 1.0}})

    def test_schema_stamp(self):
        assert _doc(a=1.0)["schema"] == 1


class TestComparator:
    def test_identical_baselines_pass(self):
        doc = _doc(**{"table6/LR": 0.5, "table4/PMult": 1e-4})
        assert compare_baselines(doc, copy.deepcopy(doc)) == []

    def test_detects_injected_20pct_slowdown(self):
        base = _doc(**{"table6/LR": 0.5, "table6/LSTM": 1.9})
        cur = _doc(**{"table6/LR": 0.5 * 1.20, "table6/LSTM": 1.9})
        findings = compare_baselines(base, cur, threshold=0.10)
        assert len(findings) == 1
        f = findings[0]
        assert f.workload == "table6/LR"
        assert f.kind == "slower"
        assert f.ratio == pytest.approx(1.20)
        assert "+20.0%" in f.describe()

    def test_within_threshold_passes(self):
        base = _doc(a=1.0)
        cur = _doc(a=1.09)
        assert compare_baselines(base, cur, threshold=0.10) == []

    def test_speedup_never_fails(self):
        assert compare_baselines(_doc(a=1.0), _doc(a=0.2)) == []

    def test_missing_workload_reported(self):
        base = _doc(a=1.0, b=2.0)
        cur = _doc(a=1.0)
        findings = compare_baselines(base, cur)
        assert [f.kind for f in findings] == ["missing"]
        assert findings[0].workload == "b"
        assert "absent" in findings[0].describe()

    def test_new_workload_listed_not_failed(self):
        base = _doc(a=1.0)
        cur = _doc(a=1.0, c=3.0)
        assert compare_baselines(base, cur) == []
        assert new_workloads(base, cur) == ["c"]

    def test_schema_mismatch_rejected(self):
        bad = _doc(a=1.0)
        bad["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            compare_baselines(bad, _doc(a=1.0))

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_baselines(_doc(a=1.0), _doc(a=1.0), threshold=-0.1)

    def test_findings_sorted_by_workload(self):
        base = _doc(b=1.0, a=1.0)
        cur = _doc(b=2.0, a=2.0)
        findings = compare_baselines(base, cur)
        assert [f.workload for f in findings] == ["a", "b"]


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        doc = _doc(**{"table6/LR": 0.517})
        path = tmp_path / "baseline.json"
        save_baseline(doc, path)
        assert load_baseline(path) == doc


class TestRegressDriver:
    """End-to-end: the benchmarks/regress.py entry point."""

    @pytest.fixture()
    def regress(self):
        import importlib.util
        import pathlib

        path = (
            pathlib.Path(__file__).resolve().parent.parent.parent
            / "benchmarks" / "regress.py"
        )
        spec = importlib.util.spec_from_file_location("regress", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_smoke_suite_names_are_stable(self, regress):
        names = [name for name, _ in regress.build_suite(smoke=True)]
        assert names == [
            "table4/PMult",
            "table4/Keyswitch",
            "table6/LR",
            "table6-passes/LR",
            "table6-passes/Packed Bootstrapping",
            "fig10/k=2",
            "fig10/k=3",
            "serve/keyswitch-r300-b8",
            "serve/saturation-b8",
            "cluster/faultfree",
            "cluster/crash-recovery",
            "microntt/N4096-L8/reference",
            "microntt/N4096-L8/numpy",
        ]
        full = {name for name, _ in regress.build_suite(smoke=False)}
        assert set(names) <= full

    def test_exit_codes(self, regress, tmp_path, capsys):
        baseline_path = tmp_path / "baseline.json"
        out_dir = tmp_path / "out"
        argv = [
            "--smoke",
            "--baseline", str(baseline_path),
            "--out-dir", str(out_dir),
        ]
        # no baseline yet -> exit 2
        assert regress.main(argv) == 2
        # create it -> subsequent identical run passes
        assert regress.main(argv + ["--update-baseline"]) == 0
        assert regress.main(argv) == 0
        # inject a 20% slowdown into the stored baseline's LR entry
        doc = load_baseline(baseline_path)
        doc["workloads"]["table6/LR"]["simulated_seconds"] /= 1.20
        save_baseline(doc, baseline_path)
        assert regress.main(argv) == 1
        err = capsys.readouterr().err
        assert "table6/LR" in err


class TestRegressionDataclass:
    def test_describe_slower(self):
        r = Regression(
            workload="w", kind="slower",
            baseline_seconds=1.0, current_seconds=1.5, ratio=1.5,
        )
        assert "+50.0%" in r.describe()
