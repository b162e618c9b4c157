"""Documentation sanity: the shipped docs reference real APIs."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


class TestDocsExist:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "Makefile", "LICENSE", "CITATION.cff"]
    )
    def test_top_level_files(self, name):
        assert (ROOT / name).is_file()

    @pytest.mark.parametrize(
        "name", ["fault-model.md", "model.md", "substrate.md", "developer.md",
                 "apps.md", "observability.md", "performance.md", "engine.md",
                 "adaptive.md", "scenarios.md", "distributed.md"]
    )
    def test_docs_pages(self, name):
        assert (ROOT / "docs" / name).stat().st_size > 500


class TestDocsReferenceRealCode:
    def test_readme_code_blocks_import(self):
        """Module paths named in the README must exist."""
        text = (ROOT / "README.md").read_text()
        for mod in set(re.findall(r"repro\.[a-z_.]+[a-z_]", text)):
            root = mod.split(".")[:2]
            importlib.import_module(".".join(root))

    def test_design_maps_every_shape(self):
        from repro.experiments.report import SHAPES

        index = (ROOT / "DESIGN.md").read_text().split("## 4.", 1)[1]
        for shape in SHAPES:
            assert f"`{shape.name}`" in index, shape.name

    def test_experiments_cli_names_match_modules(self):
        from repro.experiments import EXPERIMENTS

        for name in EXPERIMENTS:
            module = importlib.import_module(f"repro.experiments.{name}")
            assert callable(module.run)

    def test_observability_doc_covers_live_and_profiler(self):
        text = (ROOT / "docs" / "observability.md").read_text()
        assert "## Live telemetry" in text
        assert "## Profiling the hot path" in text
        # performance.md points profiling-minded readers at both anchors
        perf = (ROOT / "docs" / "performance.md").read_text()
        assert "observability.md#profiling-the-hot-path" in perf
        assert "observability.md#live-telemetry" in perf

    def test_performance_doc_covers_lanes(self):
        perf = (ROOT / "docs" / "performance.md").read_text()
        assert "## Lane vectorization" in perf
        # lane docs are reachable from the engine, adaptive and README pages
        anchor = "performance.md#lane-vectorization---lanes"
        assert anchor in (ROOT / "docs" / "engine.md").read_text()
        assert anchor in (ROOT / "docs" / "adaptive.md").read_text()
        assert "docs/" + anchor in (ROOT / "README.md").read_text()

    def test_observability_doc_covers_tracing_and_timelines(self):
        text = (ROOT / "docs" / "observability.md").read_text()
        assert "## Causal tracing" in text
        assert "## Worker timelines" in text
        # the sink/exporter architecture diagram names the real pieces
        for piece in ("chrome_trace", "otlp_trace", "worker_utilization",
                      "timeline_swimlane_svg", "ObsSnapshot.trace",
                      "*.timeline.jsonl"):
            assert piece in text, piece
        # cross-linked from the performance, engine and README pages
        perf = (ROOT / "docs" / "performance.md").read_text()
        assert "observability.md#worker-timelines" in perf
        assert "observability.md#causal-tracing" in perf
        assert "observability.md#causal-tracing" in (
            ROOT / "docs" / "engine.md"
        ).read_text()
        assert "docs/observability.md#worker-timelines" in (
            ROOT / "README.md"
        ).read_text()

    def test_scenarios_doc_names_every_family_and_is_linked(self):
        from repro.fi.scenarios import SCENARIOS

        text = (ROOT / "docs" / "scenarios.md").read_text()
        for family in SCENARIOS:
            assert f"### `{family}`" in text, family
        # reachable from the README, engine and observability pages
        assert "docs/scenarios.md" in (ROOT / "README.md").read_text()
        assert "scenarios.md" in (ROOT / "docs" / "engine.md").read_text()
        assert "scenarios.md" in (
            ROOT / "docs" / "observability.md"
        ).read_text()

    def test_distributed_doc_covers_protocol_and_is_linked(self):
        text = (ROOT / "docs" / "distributed.md").read_text()
        for piece in ("## Wire protocol", "## Warm worker pools",
                      "## Determinism contract", "## Failure semantics",
                      "ProcessPoolBackend", "REPRO_DIST_CHUNK_TIMEOUT",
                      "REPRO_DIST_WORKER_TIMEOUT", "fork_slots",
                      "ResultStore"):
            assert piece in text, piece
        # reachable from the engine, performance and README pages
        assert "distributed.md" in (ROOT / "docs" / "engine.md").read_text()
        assert "distributed.md" in (
            ROOT / "docs" / "performance.md"
        ).read_text()
        assert "docs/distributed.md" in (ROOT / "README.md").read_text()

    def test_engine_doc_knob_table_lists_every_knob(self):
        from repro.knobs import KNOBS

        text = (ROOT / "docs" / "engine.md").read_text()
        table = text.split("## Knobs", 1)[1].split("\n## ", 1)[0]
        for knob in KNOBS.values():
            assert f"`{knob.env}`" in table, knob.env
            if knob.flag:
                assert f"`{knob.flag}`" in table, knob.flag
        for page in ("adaptive.md", "performance.md"):
            assert "engine.md#knobs" in (ROOT / "docs" / page).read_text()

    def test_cited_ci_jobs_exist(self):
        """Every `name` the docs call a CI job is a job of ci.yml."""
        ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        jobs = set(re.findall(r"^  ([\w-]+):$", ci.split("\njobs:\n", 1)[1],
                              re.M))
        pages = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
                 ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
        cited = {name for page in pages for name in re.findall(
            r"`([\w-]+)`\s+(?:CI\s+)?job\b", page.read_text())}
        assert cited, "no page names a CI job"
        assert cited <= jobs, sorted(cited - jobs)

    def test_documented_cli_flags_exist(self):
        """Flags and subcommands the docs advertise must parse."""
        import io
        from contextlib import redirect_stdout

        from repro.experiments.cli import main

        buf = io.StringIO()
        with redirect_stdout(buf), pytest.raises(SystemExit):
            main(["--help"])
        help_text = buf.getvalue()
        for flag in ("--serve-obs", "--profile", "--trace-out", "--lanes",
                     "--progress", "--metrics-summary", "obs-profile",
                     "--timeline", "obs-timeline", "--scenario"):
            assert flag in help_text, flag
