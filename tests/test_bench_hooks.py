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

import spans  # noqa: E402
from defacepipe import (  # noqa: E402
    brain_extraction,
    cli,
    defacing,
    evaluation,
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
    originals = _originals()
    tracer = spans.Tracer()
    tracer.install()
    try:
        kept = [f"{m.__name__}.{name}" for (m, name), obj in originals.items()
                if getattr(m, name) is obj]
    finally:
        tracer.uninstall()
    assert kept == []
    moved = [f"{m.__name__}.{name}" for (m, name), obj in originals.items()
             if getattr(m, name) is not obj]
    assert moved == []


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
