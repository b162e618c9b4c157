# Convenience targets for the reproduction workflow.

PYTHON ?= python
TRIALS ?= 300

.PHONY: install test test-fast coverage bench experiments report obs-demo clean-cache loc

install:
	$(PYTHON) setup.py develop

test:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m pytest tests/

test-fast:
	REPRO_TRIALS=20 PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m pytest tests/ -x

# Line coverage with the checked-in floor (.coverage-floor); requires
# pytest-cov.  CI runs this and publishes htmlcov/ as an artifact.
coverage:
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m pytest tests/ -q \
		--cov=repro --cov-report=term --cov-report=html \
		--cov-fail-under=$$(cat .coverage-floor)

bench:
	REPRO_TRIALS=$(TRIALS) PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m pytest benchmarks/ --benchmark-only

experiments:
	REPRO_TRIALS=$(TRIALS) PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m repro.experiments all

report:
	REPRO_TRIALS=$(TRIALS) PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m repro.experiments report

# Smoke test for the observability layer: run a tiny uncached campaign
# with a JSONL trace + live progress, render the trace, and build the
# HTML dashboard.  Everything lands under .repro-out/ (git-ignored) so
# demo artifacts never end up in commits.
obs-demo:
	REPRO_CACHE=0 REPRO_TRIALS=20 PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m repro.experiments motivation \
		--trace-out .repro-out/obs-demo.jsonl --progress --metrics-summary
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m repro.experiments obs-report .repro-out/obs-demo.jsonl
	PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) \
		$(PYTHON) -m repro.experiments obs-dashboard .repro-out/obs-demo.jsonl

clean-cache:
	rm -rf .repro-cache .repro-out results

loc:
	find src tests benchmarks examples -name '*.py' | xargs wc -l | tail -1
