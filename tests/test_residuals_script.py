"""The closing line of scripts/residuals.py."""

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
