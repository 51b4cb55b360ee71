"""scripts/residuals.py: its closing line, and one subject end to end."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "residuals.py"


def load_script():
    spec = importlib.util.spec_from_file_location("residuals", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_line_counts_past_and_unconverged_subjects():
    """Three subjects: the second past on scale only, the third unconverged
    though within tolerance."""
    errors = [(0.1, 0.2, 0.005), (0.3, 0.1, 0.02), (0.2, 0.4, 0.003)]
    evaluations = [[40, 90, 80], [50, 100, 70], [30, 80, 60]]
    line = load_script().summary_line(errors, evaluations, [True, True, False])
    assert line == ("# subjects 3 median 0.2000 0.2000 0.00500 past 0 0 1 1 "
                    "evaluations 120/270/210 unconverged 1")


def test_subject_results_defaces_one_subject(monkeypatch):
    """The first batch-64 subject of seed 21 through the library calls the
    script makes: registered within the benchmark's tolerances, and its
    provenance record has every level the script prints."""
    script = load_script()
    seeds = script.run.subject_seeds
    monkeypatch.setattr(script.run, "subject_seeds", lambda seed, n: seeds(seed, n)[:1])
    [(name, err, reg)] = list(script.subject_results(21))
    assert name == "sub-01"
    checks = script.checks
    assert err[0] <= checks.MAX_TRANSLATION_MM
    assert err[1] <= checks.MAX_ROTATION_DEG
    assert err[2] <= checks.MAX_SCALE
    assert reg["converged"] is True
    assert len(reg["levels"]) == 3
    assert all(lv["samples"] > 0 and lv["evaluations"] > 0 for lv in reg["levels"])
