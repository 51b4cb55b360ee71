"""Self-test of the benchmark's checks: each one is handed a deliberately
broken output and must reject it, and must pass the unbroken one.

    python3 -m pytest -q perfbench/test_checks.py
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from defacepipe import synthetic  # noqa: E402


@pytest.fixture(scope="module")
def phantom():
    head = synthetic.nominal_head(size=32)
    return synthetic.random_subject(head, seed=5)


@pytest.fixture
def defaced(phantom):
    """A correct defacing: face blobs zeroed, everything else untouched."""
    out = phantom.volume.data.copy()
    out[phantom.face_mask.data] = 0
    return out


def test_brain_voxel_zeroed_is_rejected(phantom, defaced):
    brain = phantom.brain_mask.data
    assert checks.brain_changed(phantom.volume.data, defaced, brain) == []
    idx = tuple(np.argwhere(brain)[len(np.argwhere(brain)) // 2])
    defaced[idx] = 0
    assert checks.brain_changed(phantom.volume.data, defaced, brain)


def test_brain_voxel_bit_flip_is_rejected(phantom, defaced):
    """Bit-identical means bit-identical: a change in the last place fails."""
    brain = phantom.brain_mask.data
    idx = tuple(np.argwhere(brain)[0])
    defaced[idx] = np.nextafter(defaced[idx], np.float32(np.inf))
    assert checks.brain_changed(phantom.volume.data, defaced, brain)


def test_face_blob_voxel_kept_is_rejected(phantom, defaced):
    face = phantom.face_mask.data
    assert checks.face_kept(defaced, face) == []
    idx = tuple(np.argwhere(face)[0])
    defaced[idx] = phantom.volume.data[idx]
    assert checks.face_kept(defaced, face)


def test_transform_moved_by_1mm_is_rejected(phantom, tmp_path):
    center = np.array([15.5, 15.5, 15.5])
    truth = phantom.true_transform
    good = tmp_path / "good_xfm.txt"
    np.savetxt(good, truth, fmt="%.12g")
    assert checks.transform_problems(
        checks.transform_error(np.loadtxt(good), truth, center)) == []

    moved = truth.copy()
    moved[0, 3] += 1.0
    bad = tmp_path / "moved_xfm.txt"
    np.savetxt(bad, moved, fmt="%.12g")
    err = checks.transform_error(np.loadtxt(bad), truth, center)
    assert err[0] == pytest.approx(1.0)
    assert checks.transform_problems(err)


def test_qc_dice_disagreeing_with_own_count_is_rejected(phantom):
    a = phantom.brain_mask.data
    b = a.copy()
    b[tuple(np.argwhere(a)[0])] = False
    own = checks.dice(a, b)
    assert 0.999 < own < 1.0
    expected = {"sub-01.nii.gz": own, "sub-02.nii.gz": 1.0}

    def report(values):
        return json.dumps({"items": [
            {"id": i, "dice": d, "flagged": False, "error": None}
            for i, d in values.items()]})

    assert checks.qc_problems(report(expected), expected) == []
    assert checks.qc_problems(report({**expected, "sub-01.nii.gz": 1.0}), expected)
    assert checks.qc_problems(report({"sub-01.nii.gz": own}), expected)
    assert checks.qc_problems("not json", expected)


def test_dice_below_floor_is_rejected():
    assert checks.dice_problems(0.999) == []
    assert checks.dice_problems(0.9989)


def test_missing_artifact_is_rejected(tmp_path):
    (tmp_path / "a.nii.gz").write_bytes(b"x")
    assert checks.missing([tmp_path / "a.nii.gz"]) == []
    assert checks.missing([tmp_path / "a.nii.gz", tmp_path / "b_xfm.txt"])


def _span(i, name, start, end, parent=None, subject="sub-01"):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "subject": subject}


def test_subject_accounting_rejects_overlapping_children():
    good = [
        _span(1, "cli._deface_one", 0.0, 10.0),
        _span(2, "defacing.deface", 1.0, 9.0, parent=1),
        _span(3, "nifti.write_nifti", 9.0, 9.5, parent=1),
    ]
    assert spans.accounting_errors(good) == []
    assert spans.self_times(good)[1] == pytest.approx(1.5)
    overlapping = good + [_span(4, "nifti.write_mask", 8.5, 9.8, parent=1)]
    assert spans.accounting_errors(overlapping)
    outside = good + [_span(5, "nifti.write_mask", 9.6, 10.5, parent=1)]
    assert spans.accounting_errors(outside)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
