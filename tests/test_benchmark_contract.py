"""The benchmark's iPPG workload runs on the package as it stands: it
calls ``extract_features``, ``build_signal(...).samples``, 1-D
``bandpass`` and ``spectrum`` and ``pca.fit``, and writes its result
figures as JSON, so a change to those names or return types shows here
before it shows as a failed benchmark run."""

import importlib
import json
from pathlib import Path

from sparksel import ippg, pca

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
