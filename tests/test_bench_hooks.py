"""The benchmark's traced mode (``perfbench/run.py --trace 1``) wraps
module attributes of defacepipe by name. Each name it patches must exist,
be replaced while the tracer is installed, and be back afterwards; a
refactor that removes or renames one of them fails here rather than in the
benchmark.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "perfbench"))

import numpy as np  # noqa: E402
import spans  # noqa: E402
from defacepipe import (  # noqa: E402
    brain_extraction,
    cli,
    defacing,
    evaluation,
    geometry,
    nifti,
    registration,
    synthetic,
)

PATCHED = {
    cli: ("nifti", "geometry", "concurrent", "_load_pack", "_deface_one", "deface",
          "quickshear", "make_template_pack", "qc_report"),
    defacing: ("geometry", "extract_brain", "fallback_extract", "dilate", "register_affine"),
    brain_extraction: ("morphology", "nifti", "reorient_to_canonical", "fallback_extract"),
    evaluation: ("reorient_to_canonical", "extract_brain", "dice"),
    registration: ("optimize",),
}


def _originals():
    return {(m, name): getattr(m, name) for m, names in PATCHED.items() for name in names}


def test_tracer_replaces_and_restores_every_patched_name():
    """Every patched name is replaced while the tracer is installed, and
    afterwards each patched module holds the same names bound to the same
    objects as before."""
    originals = _originals()
    before = {m: dict(vars(m)) for m in PATCHED}
    tracer = spans.Tracer()
    tracer.install()
    try:
        kept = [f"{m.__name__}.{name}" for (m, name), obj in originals.items()
                if getattr(m, name) is obj]
    finally:
        tracer.uninstall()
    assert kept == []
    for m, names in before.items():
        assert vars(m).keys() == names.keys()
        moved = [name for name, obj in names.items() if vars(m)[name] is not obj]
        assert moved == [], m.__name__


def test_traced_fallback_paths_record_their_spans():
    """The template pack and the QC Dice reach the fallback extractor through
    the patched names, so the tracer sees them."""
    head = synthetic.nominal_head(size=24).volume
    tracer = spans.Tracer()
    tracer.install()
    try:
        defacing.make_template_pack(head)
        evaluation.qc_report([("a", head, head)])
    finally:
        tracer.uninstall()
    names = [sp["name"] for sp in tracer.take()]
    assert names.count("brain_extraction.fallback_extract") == 3
    assert names.count("brain_extraction.extract_brain") == 2
    assert names.count("evaluation.dice") == 1


def test_names_the_benchmark_calls_exist_and_work(tmp_path):
    """``perfbench/run.py`` calls these names directly, traced or not: it
    makes and writes the phantoms, runs the CLI, reads the outputs back,
    extracts their brains, reads the transforms, and passes the
    registration's gradient tolerance to its per-layer metrics. A refactor
    that removes or renames one fails every benchmark run, so it fails
    here first."""
    assert cli.main(["phantom", "--size", "16", "--output-dir", str(tmp_path)]) == 0
    head = synthetic.nominal_head(size=16)
    phantom = synthetic.random_subject(head, seed=1)
    sc = nifti.sidecar_for_dtype(np.float32)
    nifti.write_nifti(phantom.volume, sc, tmp_path / "subject.nii.gz")
    nifti.write_mask(phantom.brain_mask, tmp_path / "brain.nii.gz")
    volume, _ = nifti.read_nifti(tmp_path / "subject.nii.gz")
    np.testing.assert_array_equal(volume.data, phantom.volume.data)
    mask, _ = nifti.read_nifti(tmp_path / "brain.nii.gz")
    np.testing.assert_array_equal(mask.data > 0, phantom.brain_mask.data)
    canon, perm = geometry.reorient_to_canonical(volume)
    assert perm.undo(brain_extraction.fallback_extract(canon).data).any()
    geometry.save_transform(phantom.true_transform, tmp_path / "xfm.txt")
    np.testing.assert_allclose(geometry.load_transform(tmp_path / "xfm.txt"),
                               phantom.true_transform, rtol=0, atol=1e-9)
    tol = registration.RegistrationConfig().convergence_tol
    assert isinstance(tol, float) and tol > 0
