"""Integration tests for the experiment harnesses (tiny trial counts).

These exercise the full orchestration path — cached campaigns, model
assembly, table rendering — at scaled-down sizes so the suite stays
fast; ``python -m repro.experiments report`` runs the real
configurations and checks the paper's shapes.
"""

import pytest

from repro.experiments import common, figure3, figure56, motivation, table1
from repro.experiments.cli import main as cli_main
from repro.apps import get_app

TRIALS = 12


class TestCommon:
    def test_default_trials_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "123")
        assert common.default_trials() == 123
        assert common.default_trials(7) == 7

    def test_unique_fraction_cached(self):
        app = get_app("cg")
        a = common.unique_fraction(app, 2)
        b = common.unique_fraction(app, 2)
        assert a == b > 0

    def test_serial_sample_results_keys(self):
        app = get_app("cg")
        out = common.serial_sample_results(app, target_nprocs=8, n_samples=4,
                                           trials=TRIALS, seed=3)
        assert set(out) == {1, 4, 6, 8}

    def test_build_predictor_modes(self):
        pred = common.build_predictor(
            "mg", small_nprocs=4, target_nprocs=8, trials=TRIALS,
            prob2_mode="extrapolate",
        )
        fi = pred.predict(8)
        assert 0.0 <= fi.success <= 1.0
        with pytest.raises(ValueError):
            common.build_predictor(
                "mg", small_nprocs=4, target_nprocs=8, trials=TRIALS,
                prob2_mode="bogus",
            )


class TestHarnesses:
    def test_table1(self, capsys):
        out = table1.run(quiet=False)
        printed = capsys.readouterr().out
        assert "Table 1" in printed
        assert out["fractions"]["mg"] == 0.0
        assert out["fractions"]["ft"] > 0.05
        assert 0 < out["fractions"]["cg"] < 0.2

    def test_motivation(self):
        out = motivation.run(trials=TRIALS, quiet=True)
        assert out["par4_events"] > out["serial_events"]
        assert out["par4_injection_time"] > 0

    def test_figure3_subset(self, monkeypatch):
        # restrict to one cheap app by monkeypatching the roster
        monkeypatch.setattr("repro.experiments.figure3.paper_apps", lambda: ["mg"])
        out = figure3.run(trials=TRIALS, quiet=True)
        assert len(out["mg"]["serial"]) == 8
        assert all(0 <= s <= 1 for s in out["mg"]["serial"])

    def test_figure56_machinery_small_target(self):
        res = figure56.accuracy_for_small_scale(
            4, target_nprocs=8, trials=TRIALS, apps=["mg"]
        )
        assert 0 <= res["mg"]["error"] <= 1

    def test_figure12_small_scales(self, capsys):
        from repro.experiments import figure12

        out = figure12.run(trials=TRIALS, apps=("mg",), small=4, large=8)
        printed = capsys.readouterr().out
        assert "error" in printed and "propagation" in printed
        assert len(out["mg"]["grouped"]) == 4
        assert abs(sum(out["mg"]["small"]) - 1.0) < 1e-9

    def test_table2_small_scales(self):
        from repro.experiments import table2

        out = table2.run(trials=TRIALS, quiet=True, large=8, smalls=(4,),
                         apps=["lu"])
        assert 0.0 <= out["values"]["lu (4V8)"] <= 1.0

    def test_figure8_small_scales(self):
        from repro.experiments import figure8

        out = figure8.run(trials=TRIALS, quiet=True, scales=(2, 4),
                          target=8, apps=["mg"])
        assert set(out) == {2, 4}
        for s in out.values():
            assert s["rmse"] >= 0 and s["normalized_time"] > 0
        assert out[4]["normalized_events"] > out[2]["normalized_events"] > 1

    def test_sensitivity_harness(self):
        from repro.experiments import sensitivity

        out = sensitivity.run(trials=40, quiet=True)
        for rep in out.values():
            assert "mantissa" in rep["bit_field"]

    def test_ablations_small_scales(self, monkeypatch):
        from repro.experiments import ablations

        for name, value in (("paper_apps", lambda: ["mg"]), ("SMALL", 4),
                            ("TARGET", 8), ("TRIAL_COUNTS", (4, 8))):
            monkeypatch.setattr(ablations, name, value)
        out = ablations.run(trials=TRIALS, quiet=True)
        assert set(out["alpha"]) == set(ablations.THRESHOLDS)
        assert out["prob2"]["mg"]["profile"] == out["alpha"][0.20]["mg"]
        assert 0.0 <= out["mapping"]["mg"]["group"] <= 1.0
        assert set(out["trials"]) == {4, 8}

    def test_cli_table1(self, capsys):
        assert cli_main(["table1", "--trials", "4"]) == 0
        assert "Table 1" in capsys.readouterr().out
