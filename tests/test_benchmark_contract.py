"""The benchmark's workloads run on the package as it stands.  The
iPPG workload calls ``extract_features``, ``build_signal(...).samples``,
1-D ``bandpass`` and ``spectrum`` and ``pca.fit``, and writes its result
figures as JSON.  The ``select`` workload writes a config with
``threads = 1``, runs ``sparksel select`` in-process and reads
``evaluations``, ``min_popcount`` and ``importance`` from the report;
``select_wide`` does the same through ``sparksel baseline pso``, and
``swarm_bench`` runs ``sparksel bench`` on two functions with all four
swarms.  A change to those names, keys or return types shows here
before it shows as a failed benchmark run."""

import importlib
import json
from pathlib import Path

import pytest

from sparksel import cli, data, ippg, pca

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_ippg_pca_operation_passes_its_checks(tmp_path, monkeypatch):
    # perfbench/run.py imports its workloads as a top-level module
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS["ippg_pca"]
    mods = {"ippg": ippg, "pca": pca}
    outcome = workload.run(mods, workload.setup(mods, 0, str(tmp_path)))
    assert outcome.failures == []
    assert outcome.work == workload.pairs
    json.dumps(outcome.info)


def test_select_operation_passes_its_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS["select"]
    mods = {"cli": cli, "data": data}
    outcome = workload.run(mods, workload.setup(mods, 0, str(tmp_path)))
    assert outcome.failures == []
    assert outcome.work > 0
    json.dumps(outcome.info)


@pytest.mark.parametrize("name", ["select_wide", "swarm_bench"])
def test_operation_passes_its_checks(tmp_path, monkeypatch, name):
    """The PSO baseline and ``sparksel bench`` paths, one operation each."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workload = importlib.import_module("workloads").WORKLOADS[name]
    mods = {"cli": cli, "data": data}
    outcome = workload.run(mods, workload.setup(mods, 0, str(tmp_path)))
    assert outcome.failures == []
    assert outcome.work > 0
    json.dumps(outcome.info)
