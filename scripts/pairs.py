"""Alternating benchmark pairs of two checkouts, summed up by the gain rule.

    python3 scripts/pairs.py PARENT CHANGE WORKLOAD SEED...

For each seed, runs ``python3 perfbench/run.py --workload WORKLOAD --seed
SEED --seconds 15 --trace 0`` in the checkout PARENT and in the checkout
CHANGE, one after the other: the first seed's pair runs the parent first,
the next one the change first, and so on. A run that does not end
``"correct": true`` with ``"failed": 0`` stops the script with exit code 1.

Prints one line per pair, each end-to-end metric of this checkout's
``BENCHMARK.json`` as parent -> change:

    seed SEED first parent|change METRIC PARENT -> CHANGE ...

then one line per metric:

    METRIC parent MEDIAN [Q1, Q3] change MEDIAN [Q1, Q3] wins W/N gain yes|no

where W counts the pairs in which the change reads better than the parent
(a tie counts for neither side), and the gain holds when the change wins
at least nine tenths of the N pairs and its median is better than the
parent's by more than the parent's interquartile range.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SECONDS = 15


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """The end-to-end metrics of one benchmark run in checkout, by name;
    exits 1 if the run fails or reports a failure."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct") or result.get("failed") != 0:
        sys.exit(f"error: {checkout} seed {seed}: run is not correct or has failures "
                 f"(exit {proc.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def pair_line(seed: int, first: str, parent: dict, change: dict, metrics) -> str:
    cells = " ".join(f"{m['name']} {parent[m['name']]:.6g} -> {change[m['name']]:.6g}"
                     for m in metrics)
    return f"seed {seed} first {first} {cells}"


def summary(pairs, metrics) -> list[str]:
    """One line per metric of the BENCHMARK.json ``end_to_end`` entries
    metrics, over pairs of (parent, change) metric dicts."""
    lines = []
    for m in metrics:
        name = m["name"]
        sign = 1.0 if m["better"] == "lower" else -1.0
        parent = np.array([p[name] for p, _ in pairs])
        change = np.array([c[name] for _, c in pairs])
        p1, pmed, p3 = np.percentile(parent, [25, 50, 75])
        c1, cmed, c3 = np.percentile(change, [25, 50, 75])
        wins = int(np.sum(sign * (parent - change) > 0))
        gain = wins >= 0.9 * len(pairs) and sign * (pmed - cmed) > p3 - p1
        lines.append(
            f"{name} parent {pmed:.6g} [{p1:.6g}, {p3:.6g}] "
            f"change {cmed:.6g} [{c1:.6g}, {c3:.6g}] "
            f"wins {wins}/{len(pairs)} gain {'yes' if gain else 'no'}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) < 4 or not all(a.isdigit() for a in argv[3:]):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent_dir, change_dir = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    workload, seeds = argv[2], [int(a) for a in argv[3:]]
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    pairs = []
    for k, seed in enumerate(seeds):
        sides = {"parent": parent_dir, "change": change_dir}
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        result = {side: run_once(sides[side], workload, seed) for side in order}
        pairs.append((result["parent"], result["change"]))
        print(pair_line(seed, order[0], *pairs[-1], metrics), flush=True)
    print("\n".join(summary(pairs, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
