"""The paper-shape checks of ``repro.experiments.report`` on synthetic results."""

import copy
import random

import pytest

from repro.experiments import report
from repro.experiments.cli import main as cli_main
from repro.model.result import FaultInjectionResult as FI

APPS = tuple(report.PAPER["table2"])
ACCURACY = {"predicted": FI(0.70, 0.1, 0.2), "measured": FI(0.75, 0.1, 0.15),
            "error": 0.05, "fine_tuned": True}
PROFILE = {"small": [0.6] + [0.0] * 6 + [0.4], "large": [0.6] + [0.0] * 62 + [0.4],
           "grouped": [0.6] + [0.0] * 6 + [0.4], "cosine": 0.99}

#: Results shaped like ``report.collect``'s, meeting every bound.
GOOD = {
    "m": {"serial_events": 10, "par4_events": 70, "instruction_growth": 0.0,
          "event_growth": 6.0, "injection_time_growth": 2.5},
    "t1": {"fractions": dict(report.PAPER["table1"])},
    "f12": {"cg": PROFILE, "ft": PROFILE},
    "t2": {"values": {f"{n} ({s}V64)": 0.95 for n in APPS for s in (4, 8)}},
    "f3": {n: {"serial": [0.8 - 0.08 * x for x in range(8)],
               "parallel": [0.8] + [None] * 6 + [0.5]} for n in APPS},
    "f56": {fig: {n: ACCURACY for n in APPS} for fig in ("figure5", "figure6")},
    "f7": {p: {"cg": ACCURACY, "ft": ACCURACY} for p in ("serial+4procs", "serial+8procs")},
    "f8": {4: {"rmse": 0.10, "normalized_time": 2.0},
           32: {"rmse": 0.02, "normalized_time": 16.0}},
    "sen": {n: {"bit_field": {"mantissa": 0.85, "exponent": 0.20, "sign": 0.75}}
            for n in ("cg", "pennant")},
    "mb": {n: {b: {"predicted": 0.8, "measured": 0.8, "error": 0.01} for b in (1, 2)}
           for n in ("cg", "mg")},
    "abl": {
        "alpha": {t: dict.fromkeys(APPS, e)
                  for t, e in ((0.05, 0.04), (0.20, 0.08), (0.50, 0.2), (float("inf"), 0.4))},
        "mapping": {n: {"group": 0.50, "interpolate": 0.55} for n in APPS},
        "prob2": {n: {"profile": 0.08, "extrapolate": 0.06} for n in APPS},
        "trials": {50: (0.70, 0.25), 100: (0.68, 0.18), 200: (0.69, 0.13), 400: (0.70, 0.09)},
    },
}


def _broken(results: dict) -> list[tuple[str, str]]:
    return [(s.name, measured) for s, measured, holds in report.check_shapes(results)
            if not holds]


def _ft_cg_swapped() -> dict:
    results = copy.deepcopy(GOOD)
    fr = results["t1"]["fractions"]
    fr["ft"], fr["cg"] = fr["cg"], fr["ft"]
    return results


def test_results_meeting_every_bound_break_no_shape():
    assert len(report.check_shapes(GOOD)) == len(report.SHAPES)
    assert _broken(GOOD) == []
    assert "FAIL" not in report.render(GOOD, trials=30)


def test_swapping_ft_and_cg_breaks_table1():
    assert [name for name, _ in _broken(_ft_cg_swapped())] == ["table1"]


def test_unsampled_exponent_field_is_named_and_rendered_as_a_dash():
    results = copy.deepcopy(GOOD)
    del results["sen"]["cg"]["bit_field"]["exponent"]
    assert _broken(results) == [("sensitivity", "missing 'exponent'")]
    text = report.render(results, trials=10)
    assert "| CG | 0.85 | — | 0.75 |" in text
    assert "| PENNANT | 0.85 | 0.20 | 0.75 |" in text


def test_report_writes_the_file_then_exits_nonzero_naming_broken_shapes(
        monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(report, "collect", lambda trials, seed: _ft_cg_swapped())
    assert cli_main(["report", "--trials", "30", "-q"]) == 1
    assert "broken paper shapes: table1 (" in capsys.readouterr().err
    assert "| `table1` |" in (tmp_path / "EXPERIMENTS.md").read_text()
    with pytest.raises(report.ShapeError) as err:
        report.run(trials=30, path=tmp_path / "E.md")
    assert err.value.names == ["table1"]


def _motivation(results: dict) -> tuple[str, bool]:
    [(measured, holds)] = [(m, h) for s, m, h in report.check_shapes(results)
                           if s.name == "motivation"]
    return measured, holds


def _rescaled_clock(results: dict, rng: random.Random) -> dict:
    """``results`` with every injection/profile time scaled at random."""
    out = copy.deepcopy(results)

    def walk(node):
        for key, value in node.items():
            if isinstance(value, dict):
                walk(value)
            elif str(key).endswith(("injection_time", "profile_time")):
                node[key] = value * rng.uniform(0.05, 20.0)

    walk(out)
    m = out["m"]
    m["injection_time_growth"] = m["par4_injection_time"] / m["serial_injection_time"] - 1
    return out


@pytest.mark.parametrize("variant", ["good", "no more events", "fewer instructions"])
def test_motivation_verdict_does_not_read_the_clock(variant):
    results = copy.deepcopy(GOOD)
    m = results["m"]
    m.update(serial_injection_time=1.0, par4_injection_time=3.5, profile_time=0.2)
    if variant == "no more events":
        m["par4_events"] = m["serial_events"]
    elif variant == "fewer instructions":
        m["instruction_growth"] = -0.01
    want = _motivation(results)
    assert want[1] == (variant == "good")
    rng = random.Random(26)
    for _ in range(200):
        assert _motivation(_rescaled_clock(results, rng)) == want
