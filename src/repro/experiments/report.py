"""EXPERIMENTS.md generator and the paper's shape checks.

``python -m repro.experiments report`` runs every harness (hitting the
campaign cache, so a second run is cheap) and writes ``EXPERIMENTS.md``
with the paper's published numbers next to the reproduction's measured
ones, the extension experiments and the ablations.  Absolute rates are
substrate properties; what the reproduction keeps are the paper's
*shapes*, listed once in :data:`SHAPES`.  After writing the file the
report raises :class:`ShapeError` naming every shape that does not hold,
so the CLI exits non-zero.
"""

from __future__ import annotations

import datetime
import os
from pathlib import Path
from statistics import fmean
from typing import Callable, NamedTuple

from repro.errors import ReproError
from repro.experiments import (
    ablations,
    figure12,
    figure3,
    figure56,
    figure7,
    figure8,
    motivation,
    multibit,
    sensitivity,
    table1,
    table2,
)
from repro.experiments.common import default_trials

__all__ = ["run", "collect", "render", "check_shapes", "PAPER", "SHAPES",
           "Shape", "ShapeError"]

#: The paper's published values, for side-by-side comparison.
PAPER = {
    "table1": {
        "cg": 0.016, "cg.classb": 0.0027, "ft": 0.104, "ft.classb": 0.177,
        "mg": 0.0, "lu": 0.0, "minife": 0.0154, "minife.large": 0.0068,
        "pennant": 0.0,
    },
    "table2": {
        "cg": (0.122, 0.999), "ft": (0.905, 0.999), "mg": (0.999, 1.000),
        "lu": (0.638, 1.000), "minife": (0.981, 1.000), "pennant": (0.979, 0.999),
    },
    "figure1_cg": {"one_process": 0.77, "all_processes": 0.22},
    "figure5": {"avg": 0.08, "max": 0.27},
    "figure6": {"avg": 0.07, "max": 0.19},
    "figure7": {"serial+4procs": 0.07, "serial+8procs": 0.06},
    "motivation": {"instructions": 0.745, "injection_time": 0.58},
}


def _fmt_pct(x: float) -> str:
    return f"{100 * x:.1f}%"


def _pp(x: float) -> str:
    return f"{100 * x:.1f} pp"


def _table(headers: list[str], rows: list[list[str]]) -> str:
    out = ["| " + " | ".join(headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    out += ["| " + " | ".join(str(c) for c in row) + " |" for row in rows]
    return "\n".join(out)


# ----------------------------------------------------------------------
# the paper's shapes
# ----------------------------------------------------------------------
class Shape(NamedTuple):
    """One paper shape: it holds when ``holds(values(results))`` is true.

    ``values`` picks the numbers the claim is about out of what
    :func:`collect` returns; the report prints them as the evidence.
    """

    name: str
    claim: str
    values: Callable[[dict], dict[str, float]]
    holds: Callable[[dict[str, float]], bool]


def _f3(r):
    decay = [c["serial"][0] - c["serial"][-1] for c in r["f3"].values()]
    unseen = [all(v is None for v in c["parallel"]) for c in r["f3"].values()]
    return {"smallest decay": min(decay), "apps without a parallel case": sum(unseen)}


def _errors(results: dict) -> dict[str, float]:
    errors = [v["error"] for v in results.values()]
    return {"avg error": fmean(errors), "max error": max(errors)}


def _span(label: str, values) -> dict[str, float]:
    values = list(values)
    return {f"lowest {label}": min(values), f"highest {label}": max(values)}


#: Every shape the reproduction keeps; :func:`run` fails if one breaks.
SHAPES = (
    Shape("motivation", "4 ranks give the injector more runtime events than "
          "serial and no fewer traced instructions (CG)",
          lambda r: {k: r["m"][k] for k in
                     ("serial_events", "par4_events", "instruction_growth")},
          lambda v: v["par4_events"] > v["serial_events"]
          and v["instruction_growth"] >= 0),
    Shape("table1", "FT Class B > FT > CG > CG Class B; MiniFE > MiniFE large "
          "> 0; MG, LU, PENNANT none", lambda r: r["t1"]["fractions"],
          lambda v: v["ft.classb"] > v["ft"] > v["cg"] > max(v["cg.classb"], 0.0)
          and v["minife"] > v["minife.large"] > 0
          and v["mg"] == v["lu"] == v["pennant"] == 0.0),
    Shape("figure1", "CG 8-rank propagation is one-or-all (> 30% at all 8); "
          "grouped 64 -> 8 cosine > 0.9",
          lambda r: {"one rank": r["f12"]["cg"]["small"][0],
                     "all 8": r["f12"]["cg"]["small"][-1],
                     "cosine": r["f12"]["cg"]["cosine"]},
          lambda v: v["one rank"] > 0 and v["all 8"] > 0.3 and v["cosine"] > 0.9),
    Shape("figure2", "FT grouped 64 -> 8 cosine > 0.9",
          lambda r: {"cosine": r["f12"]["ft"]["cosine"]}, lambda v: v["cosine"] > 0.9),
    Shape("table2", "every 8V64 similarity > 0.8",
          lambda r: {n: r["t2"]["values"][f"{n} (8V64)"] for n in PAPER["table2"]},
          lambda v: min(v.values()) > 0.8),
    Shape("figure3", "serial success never rises by > 5 pp from x = 1 to 8; "
          "every app shows a parallel case", _f3,
          lambda v: v["smallest decay"] >= -0.05
          and v["apps without a parallel case"] == 0),
    Shape("figure5", "average 64-rank error from serial + 4 < 30 pp (paper 8%)",
          lambda r: _errors(r["f56"]["figure5"]), lambda v: v["avg error"] < 0.30),
    Shape("figure6", "average 64-rank error from serial + 8 < 25 pp (paper 7%)",
          lambda r: _errors(r["f56"]["figure6"]), lambda v: v["avg error"] < 0.25),
    Shape("figure7", "every 128-rank error < 35 pp",
          lambda r: _errors({(n, p): v for p, res in r["f7"].items()
                             for n, v in res.items()}),
          lambda v: v["max error"] < 0.35),
    Shape("figure8", "FI time grows from smallest to largest S; RMSE does not "
          "grow by > 0.05",
          lambda r: {f"{k} at {end} S": r["f8"][pick(r["f8"])][k]
                     for end, pick in (("smallest", min), ("largest", max))
                     for k in ("normalized_time", "rmse")},
          lambda v: v["normalized_time at largest S"] > v["normalized_time at smallest S"]
          and v["rmse at largest S"] <= v["rmse at smallest S"] + 0.05),
    Shape("sensitivity", "mantissa flips succeed more often than exponent flips "
          "(success-rate margin > 0)",
          lambda r: {n: s["bit_field"]["mantissa"] - s["bit_field"]["exponent"]
                     for n, s in r["sen"].items()},
          lambda v: min(v.values()) > 0),
    Shape("multibit", "1- and 2-bit errors < 35 pp; 2-bit faults no more "
          "benign (+10 pp)",
          lambda r: {"max error": max(v["error"] for res in r["mb"].values()
                                      for v in res.values()),
                     "largest 2-bit gain": max(res[2]["measured"] - res[1]["measured"]
                                               for res in r["mb"].values())},
          lambda v: v["max error"] < 0.35 and v["largest 2-bit gain"] <= 0.1),
    Shape("ablation_alpha", "tuning at the paper's 20% trigger costs <= 5 pp "
          "over never tuning",
          lambda r: {"avg error at 20%": fmean(r["abl"]["alpha"][0.20].values()),
                     "never tuning": fmean(r["abl"]["alpha"][float("inf")].values())},
          lambda v: v["avg error at 20%"] <= v["never tuning"] + 0.05),
    Shape("ablation_mapping", "Eq. 5 cosine in [0.1, 1], within 0.15 of interpolation",
          lambda r: {**_span("cosine", (s["group"] for s in r["abl"]["mapping"].values())),
                     "largest gap": max(abs(s["group"] - s["interpolate"])
                                        for s in r["abl"]["mapping"].values())},
          lambda v: 0.1 <= v["lowest cosine"] and v["highest cosine"] <= 1.0
          and v["largest gap"] < 0.15),
    Shape("ablation_prob2", "both prob2 sources give errors in [0, 1]",
          lambda r: _span("error", (e for s in r["abl"]["prob2"].values()
                                    for e in s.values())),
          lambda v: 0 <= v["lowest error"] and v["highest error"] <= 1),
    Shape("ablation_trials", "LU's success rate moves < 20 pp over 50-400 tests",
          lambda r: _span("success", (s for s, _ in r["abl"]["trials"].values())),
          lambda v: v["highest success"] - v["lowest success"] < 0.2),
)


class ShapeError(ReproError):
    """One or more of the paper's shapes do not hold; ``names`` lists them."""

    def __init__(self, broken: list[tuple[Shape, str]]):
        self.names = [shape.name for shape, _ in broken]
        super().__init__("broken paper shapes: " + "; ".join(
            f"{shape.name} ({shape.claim}: measured {measured})"
            for shape, measured in broken))


def check_shapes(results: dict) -> list[tuple[Shape, str, bool]]:
    """``(shape, measured, holds)`` for every entry of :data:`SHAPES`.

    A value a shape needs but ``results`` lacks (say, no exponent flip
    was sampled) breaks that shape and is named in ``measured``.
    """
    out = []
    for shape in SHAPES:
        try:
            values = shape.values(results)
        except KeyError as exc:
            out.append((shape, f"missing {exc}", False))
            continue
        measured = ", ".join(f"{k} {v:.3g}" for k, v in values.items())
        out.append((shape, measured, bool(shape.holds(values))))
    return out


# ----------------------------------------------------------------------
def collect(trials: int, seed: int = 0) -> dict:
    """Run every harness the report renders, keyed as :data:`SHAPES` reads."""
    kw = dict(trials=trials, seed=seed, quiet=True)
    return {
        "m": motivation.run(**kw), "t1": table1.run(**kw),
        "f12": figure12.run(**kw), "t2": table2.run(**kw),
        "f3": figure3.run(**kw), "f56": figure56.run(**kw),
        "f7": figure7.run(**kw), "f8": figure8.run(**kw),
        "sen": sensitivity.run(**kw), "mb": multibit.run(**kw),
        "abl": ablations.run(**kw),
    }


def render(r: dict, trials: int) -> str:
    """EXPERIMENTS.md for the results of :func:`collect`."""
    sections: list[str] = []
    sections.append(f"""# EXPERIMENTS — paper vs. reproduction

Generated by ``python -m repro.experiments report`` on
{datetime.date.today().isoformat()} with **{trials} fault-injection tests
per deployment** (paper: 4000; rates carry a binomial 95% CI of roughly
±{1.96 * (0.25 / trials) ** 0.5 * 100:.1f} pp at these counts).

Absolute rates are properties of our substrate (simulated MPI, traced FP
layer, scaled-down problems — see DESIGN.md); the reproduction targets the
paper's *shapes*: which benchmarks have parallel-unique computation, how
propagation profiles transfer across scales, who gets predicted well, and
how accuracy trades against small-scale cost.

## Shape checks

Each shape is an entry of `SHAPES` in `repro.experiments.report`; the
report exits non-zero when one fails.

""" + _table(["shape", "claim", "measured", "result"],
             [[f"`{shape.name}`", shape.claim, measured, "pass" if holds else "**FAIL**"]
              for shape, measured, holds in check_shapes(r)]) + "\n")

    # ------------------------------------------------------------ motivation
    m = r["m"]
    sections.append(f"""## §1 motivation — cost of injecting at scale (CG, serial vs 4 ranks)

| metric | paper | measured |
|---|---|---|
| dynamic instructions under instrumentation | +74.5% | {_fmt_pct(m['instruction_growth'])} (application FP instructions; conserved by construction — see note) |
| runtime events the injector processes | n/a | +{_fmt_pct(m['event_growth'])} |
| fault-injection wall time (information only) | +58% | {100 * m['injection_time_growth']:+.1f}% |

Note: the paper's instruction growth includes MPI-library and system code
under QEMU instrumentation, which our substrate does not execute.  The
apples-to-apples cost signal is the runtime events to instrument, which
shape `motivation` checks with the traced instructions; both are
deterministic.  Wall time depends on the host's load when the campaigns
ran, so it is shown for information only.
""")

    # ------------------------------------------------------------ table 1
    label = {
        "cg": "CG (Class S)", "cg.classb": "CG (Class B)",
        "ft": "FT (Class S)", "ft.classb": "FT (Class B)",
        "mg": "MG", "lu": "LU", "minife": "MiniFE (small)",
        "minife.large": "MiniFE (large)", "pennant": "PENNANT",
    }
    rows = [[label[name], *(_fmt_pct(v) if v else "none"
                            for v in (PAPER["table1"][name], frac))]
            for name, frac in r["t1"]["fractions"].items()]
    sections.append("## Table 1 — share of parallel-unique computation (4 ranks)\n\n"
                    + _table(["benchmark", "paper", "measured"], rows)
                    + "\n\nThe ordering is shape `table1`.\n")

    # ------------------------------------------------------------ figs 1-2
    cg, ft = r["f12"]["cg"], r["f12"]["ft"]
    sections.append(f"""## Figures 1-2 — error propagation across processes (CG, FT)

Paper (CG, 8 ranks): 77% of tests contaminate one process, 22% all eight.
Measured (CG, 8 ranks): {_fmt_pct(cg['small'][0])} one process, {_fmt_pct(cg['small'][-1])} all eight.
The balance between the two modes is a substrate property (our CG's
flips survive rounding into the next allreduce more often than on the
paper's testbed).  Grouped 64-rank vs 8-rank cosine similarity: CG
{cg['cosine']:.3f}, FT {ft['cosine']:.3f} (paper: 0.999 both; shapes
`figure1`, `figure2`).
""")

    # ------------------------------------------------------------ table 2
    rows = [[name.upper(), f"{p4:.3f} / {p8:.3f}",
             " / ".join(f"{r['t2']['values'][f'{name} ({s}V64)']:.3f}" for s in (4, 8))]
            for name, (p4, p8) in PAPER["table2"].items()]
    sections.append("## Table 2 — propagation similarity, small vs 64 ranks (4V64 / 8V64)\n\n"
                    + _table(["benchmark", "paper", "measured"], rows)
                    + "\n\nThe paper's headline is high 8V64 similarity (shape "
                      "`table2`).  Its CG/LU 4V64 outliers stem from their "
                      "4-rank runs propagating in nearly every test; on our substrate "
                      "absorption rates are more scale-stable, so 4V64 stays high.\n")

    # ------------------------------------------------------------ fig 3
    rows = [[name.upper(), f"{c['serial'][0]:.2f} -> {c['serial'][-1]:.2f}",
             f"{sum(v is not None for v in c['parallel'])}/8"]
            for name, c in r["f3"].items()]
    sections.append("## Figure 3 — serial multi-error vs parallel contamination (8 ranks)\n\n"
                    + _table(["benchmark", "serial success, x=1 -> x=8",
                              "parallel cases observed"], rows)
                    + "\n\nA missing parallel case means no test contaminated "
                      "exactly x processes (contamination is mostly one-or-all).  "
                      "Where serial multi-error success decays faster than the "
                      "parallel conditional success, the alpha fine-tuning "
                      "corrects the emulation (Observation 4; shape `figure3`).\n")

    # ------------------------------------------------------------ figs 5/6
    tuned = {t: fmean(r["abl"]["alpha"][t].values()) for t in (0.05, 0.20)}
    for fig, small in (("figure5", 4), ("figure6", 8)):
        res = r["f56"][fig]
        rows = [
            [name.upper(), f"{v['predicted'].success:.3f}",
             f"{v['measured'].success:.3f}", _pp(v["error"]),
             "yes" if v["fine_tuned"] else "no"]
            for name, v in res.items()
        ]
        errors = [v["error"] for v in res.values()]
        sdc_error = fmean(abs(v["predicted"].sdc - v["measured"].sdc)
                          for v in res.values())
        sections.append(
            f"## Figure {fig[-1]} — predicting 64 ranks from serial + {small} ranks\n\n"
            + _table(["benchmark", "predicted", "measured", "error", "fine-tuned"], rows)
            + f"\n\nAverage success-rate error {_pp(fmean(errors))} "
              f"(paper {100 * PAPER[fig]['avg']:.0f}%), max {_pp(max(errors))} "
              f"(paper {100 * PAPER[fig]['max']:.0f}%).  The model predicts the "
              f"full outcome triple; the SDC rate comes out with an average "
              f"error of {_pp(sdc_error)}.  A benchmark whose fine-tune trigger "
              f"does not fire is predicted from serial emulation alone; the "
              f"alpha ablation below moves the trigger (serial + 8: average "
              f"error {_pp(tuned[0.20])} at the paper's 20%, "
              f"{_pp(tuned[0.05])} at 5%).\n"
        )

    # ------------------------------------------------------------ fig 7
    rows = [
        [predictor_label, name.upper(), f"{v['predicted'].success:.3f}",
         f"{v['measured'].success:.3f}", _pp(v["error"])]
        for predictor_label, res in r["f7"].items() for name, v in res.items()
    ]
    sections.append("## Figure 7 — predicting 128 ranks (CG, FT)\n\n"
                    + _table(["predictor", "benchmark", "predicted", "measured",
                              "error"], rows)
                    + "\n\nPaper: errors at most 7% (serial+4) and 6% (serial+8).\n")

    # ------------------------------------------------------------ fig 8
    rows = [
        [s, f"{r['f8'][s]['rmse']:.3f}", f"{r['f8'][s]['normalized_time']:.1f}x"]
        for s in sorted(r["f8"])
    ]
    sections.append("## Figure 8 — accuracy vs fault-injection cost\n\n"
                    + _table(["small scale S", "RMSE", "FI time vs serial"], rows)
                    + "\n\nPaper: cost grows steadily with S while accuracy "
                      "improves with diminishing returns, balancing at S = 16.\n")

    # ------------------------------------------------------------ extensions
    # an unsampled bit field has no rate: "—", never a 0.00 that reads as measured
    rows = [[name.upper(), *(f"{rep['bit_field'][f]:.2f}" if f in rep["bit_field"]
                             else "—" for f in ("mantissa", "exponent", "sign"))]
            for name, rep in r["sen"].items()]
    mb_rows = [
        [name.upper(), _pp(res[1]["error"]), _pp(res[2]["error"])]
        for name, res in r["mb"].items()
    ]
    sections.append("## Extensions beyond the paper's figures\n\n"
                    "**Flip-site sensitivity** (success rate by IEEE-754 field; "
                    "the §2 observation behind choosing FP instructions; a "
                    "dash means no flip of that field was sampled):\n\n"
                    + _table(["benchmark", "mantissa", "exponent", "sign"], rows)
                    + "\n\n**Fault-pattern generality** (the model claims no "
                      "single-bit assumption; prediction error at 16 ranks):\n\n"
                    + _table(["benchmark", "1-bit faults", "2-bit faults"], mb_rows)
                    + "\n")

    # ------------------------------------------------------------ ablations
    sections.append("## Ablations\n\nThe design choices of DESIGN.md §5, also "
                    "printed by ``python -m repro.experiments ablations``.\n\n"
                    + "\n\n".join(f"**{title}**\n\n" + _table(headers, rows)
                                  for headers, rows, title in ablations.tables(r["abl"]))
                    + "\n")
    return "\n".join(sections)


def run(trials: int | None = None, seed: int = 0, quiet: bool = False,
        path: str | os.PathLike = "EXPERIMENTS.md") -> str:
    """Regenerate EXPERIMENTS.md and its SVG figures; returns the markdown.

    Raises :class:`ShapeError` after writing both when a shape is broken.
    """
    trials = default_trials(trials)
    r = collect(trials, seed)
    text = render(r, trials)
    Path(path).write_text(text)

    # SVG counterparts of the figures, under results/figures/
    from repro.viz.figures import render_all_figures

    figure_results = {
        "table1": r["t1"], "figure12": r["f12"], "figure3": r["f3"],
        "figure5": r["f56"]["figure5"], "figure6": r["f56"]["figure6"],
        "figure7": r["f7"], "figure8": r["f8"],
    }
    written = render_all_figures(figure_results, Path("results") / "figures")
    if not quiet:
        print(f"wrote {path} ({len(text.splitlines())} lines) and "
              f"{len(written)} SVG figures under results/figures/")
    broken = [(shape, measured) for shape, measured, holds in check_shapes(r)
              if not holds]
    if broken:
        raise ShapeError(broken)
    return text
