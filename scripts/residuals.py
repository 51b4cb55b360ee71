"""Registration residuals of the benchmark's batch-64 subjects, per subject.

    python3 scripts/residuals.py SEED...

For each seed, builds the subject set that ``perfbench/run.py --workload
batch-64 --seed SEED`` builds (12 random subjects of the nominal 64^3 head,
the head itself as template) and defaces each subject in process as
``defacepipe deface`` does by default. Prints one line per subject:

    seed subject mm deg scale level... converged

where mm, deg and scale are the residual of the recovered transform against
the true one as the benchmark measures it (at the template brain's
centroid), each level column, coarse to fine, is that pyramid level's
samples and cost evaluations as "samples/evaluations", and converged is
the provenance's top-level ``converged``. The last line sums up all
seeds:

    # subjects N median MM DEG SCALE past MM DEG SCALE ANY evaluations E... unconverged U

the subject count, the median of each residual, how many subjects are past
the benchmark's 0.5 mm, 0.5 degree and 0.01 scale tolerance on each
measure and on any of them, each level's cost evaluations summed over the
subjects, and how many subjects did not converge. Run it at two commits
and compare the lines.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from defacepipe import synthetic  # noqa: E402
from defacepipe.defacing import deface, make_template_pack  # noqa: E402


def subject_results(seed: int):
    """Per subject of the batch-64 set of seed: (name, (mm, deg, scale),
    the provenance's registration record)."""
    w = run.WORKLOADS["batch-64"]
    head = synthetic.nominal_head(size=w.size)
    pack = make_template_pack(head.volume)
    brain = head.brain_mask
    centroid = brain.affine[:3, :3] @ np.argwhere(brain.data).mean(axis=0) + brain.affine[:3, 3]
    for k, s in enumerate(run.subject_seeds(seed, w.subjects), start=1):
        phantom = synthetic.random_subject(head, seed=s)
        result = deface(phantom.volume, pack)
        err = checks.transform_error(result.transform, phantom.true_transform, centroid)
        yield f"sub-{k:02d}", err, result.provenance["registration"]


def summary_line(errors, evaluations, converged) -> str:
    """The closing line over every subject: errors (m, 3) residuals,
    evaluations (m, levels) cost evaluations, and converged (m,) flags."""
    errors = np.asarray(errors)
    past = errors > [checks.MAX_TRANSLATION_MM, checks.MAX_ROTATION_DEG, checks.MAX_SCALE]
    mm, deg, scale = np.median(errors, axis=0)
    counts = " ".join(str(int(c)) for c in [*past.sum(axis=0), past.any(axis=1).sum()])
    sums = "/".join(str(int(e)) for e in np.sum(evaluations, axis=0))
    return (f"# subjects {len(errors)} median {mm:.4f} {deg:.4f} {scale:.5f} "
            f"past {counts} evaluations {sums} unconverged {sum(not c for c in converged)}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or not all(a.isdigit() for a in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print("# seed subject mm deg scale level... converged")
    errors, evaluations, converged = [], [], []
    for seed in map(int, argv):
        for name, (mm, deg, scale), reg in subject_results(seed):
            levels = " ".join(f"{lv['samples']}/{lv['evaluations']}" for lv in reg["levels"])
            print(f"{seed} {name} {mm:.4f} {deg:.4f} {scale:.5f} {levels} "
                  f"{str(reg['converged']).lower()}", flush=True)
            errors.append((mm, deg, scale))
            evaluations.append([lv["evaluations"] for lv in reg["levels"]])
            converged.append(reg["converged"])
    print(summary_line(errors, evaluations, converged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
