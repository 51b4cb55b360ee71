"""Registration residuals of the benchmark's batch-64 subjects, per subject.

    python3 scripts/residuals.py SEED...

For each seed, builds the subject set that ``perfbench/run.py --workload
batch-64 --seed SEED`` builds (12 random subjects of the nominal 64^3 head,
the head itself as template) and defaces each subject in process with the
settings of ``defacepipe deface``'s defaults. Prints one line per subject:

    seed subject mm deg scale level... converged

where mm, deg and scale are the residual of the recovered transform against
the true one as the benchmark measures it (at the template brain's
centroid), each level column, coarse to fine, is that pyramid level's
samples and cost evaluations as "samples/evaluations", and converged is
the provenance's top-level ``converged``. Run it at two commits and
compare the lines.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from defacepipe import synthetic  # noqa: E402
from defacepipe.brain_extraction import BrainMaskSource  # noqa: E402
from defacepipe.defacing import deface, make_template_pack  # noqa: E402
from defacepipe.registration import RegistrationConfig, prepare  # noqa: E402


def subject_lines(seed: int):
    """One printed line per subject of the batch-64 set of seed."""
    w = run.WORKLOADS["batch-64"]
    head = synthetic.nominal_head(size=w.size)
    pack = make_template_pack(head.volume)
    fixed = prepare(pack.template, RegistrationConfig())
    brain = head.brain_mask
    centroid = brain.affine[:3, :3] @ np.argwhere(brain.data).mean(axis=0) + brain.affine[:3, 3]
    source = BrainMaskSource("fallback")
    for k, s in enumerate(run.subject_seeds(seed, w.subjects), start=1):
        phantom = synthetic.random_subject(head, seed=s)
        result = deface(phantom.volume, pack, fixed, source)
        mm, deg, scale = checks.transform_error(result.transform, phantom.true_transform, centroid)
        reg = result.provenance["registration"]
        levels = " ".join(f"{lv['samples']}/{lv['evaluations']}" for lv in reg["levels"])
        yield (f"{seed} sub-{k:02d} {mm:.4f} {deg:.4f} {scale:.5f} {levels} "
               f"{str(reg['converged']).lower()}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or not all(a.isdigit() for a in argv):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print("# seed subject mm deg scale level... converged")
    for seed in map(int, argv):
        for line in subject_lines(seed):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
