"""The summary of scripts/pairs.py, on hand-made benchmark results."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"
METRICS = [{"name": "cpu_s", "better": "lower"}, {"name": "dice_min", "better": "higher"}]


def load_script():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pairs_of(parent_cpu, change_cpu, parent_dice=None, change_dice=None):
    n = len(parent_cpu)
    parent_dice = parent_dice or [1.0] * n
    change_dice = change_dice or [1.0] * n
    return [({"cpu_s": pc, "dice_min": pd}, {"cpu_s": cc, "dice_min": cd})
            for pc, cc, pd, cd in zip(parent_cpu, change_cpu, parent_dice, change_dice)]


def test_nine_wins_of_ten_and_a_gap_past_the_parents_spread_is_a_gain():
    """The tenth pair ties and counts for neither side; ties on every pair
    of dice_min are no win and no gain."""
    parent = [1.6, 1.5, 1.7, 1.6, 1.5, 1.7, 1.6, 1.5, 1.7, 1.6]
    change = [1.4, 1.3, 1.5, 1.4, 1.3, 1.5, 1.4, 1.3, 1.5, 1.6]
    lines = load_script().summary(pairs_of(parent, change), METRICS)
    assert lines == [
        "cpu_s parent 1.6 [1.525, 1.675] change 1.4 [1.325, 1.5] wins 9/10 gain yes",
        "dice_min parent 1 [1, 1] change 1 [1, 1] wins 0/10 gain no",
    ]


def test_eight_wins_of_ten_is_no_gain():
    parent = [1.6] * 10
    change = [1.2] * 8 + [1.7] * 2
    line = load_script().summary(pairs_of(parent, change), METRICS)[0]
    assert line.endswith("wins 8/10 gain no")


def test_a_gap_within_the_parents_spread_is_no_gain():
    """Every pair won by 0.1, but the parent's quartiles lie 1.0 apart."""
    parent = [1.0, 2.0] * 5
    change = [p - 0.1 for p in parent]
    line = load_script().summary(pairs_of(parent, change), METRICS)[0]
    assert line.endswith("wins 10/10 gain no")


def test_higher_is_better_where_the_benchmark_says_so():
    """dice_min: a higher change wins; a lower cpu_s on every pair is a
    gain too."""
    parent_dice = [0.90, 0.91] * 5
    change_dice = [0.95, 0.96] * 5
    pairs = pairs_of([2.0] * 10, [1.0] * 10, parent_dice, change_dice)
    cpu, dice = load_script().summary(pairs, METRICS)
    assert cpu.endswith("wins 10/10 gain yes")
    assert dice.endswith("wins 10/10 gain yes")
