"""Dice, multilabel propagation, and the batch QC report."""

import functools
import json
import weakref

import numpy as np
import pytest

from defacepipe import evaluation, synthetic
from defacepipe.errors import BothEmpty, FileError, GridMismatch
from defacepipe.evaluation import (
    DiceReport,
    dice,
    multilabel_dice,
    propagate_labels,
    qc_report,
)
from defacepipe.geometry import translation
from defacepipe.volume import BinaryMask, Volume


def _mask(bits):
    return BinaryMask(np.asarray(bits, bool), np.eye(4))


def test_dice_identical():
    m = _mask(np.random.default_rng(0).random((4, 4, 4)) > 0.5)
    assert dice(m, m) == 1.0


def test_dice_disjoint():
    a = np.zeros((4, 4, 4), bool)
    b = np.zeros((4, 4, 4), bool)
    a[0], b[3] = True, True
    assert dice(_mask(a), _mask(b)) == 0.0


def test_dice_direct_formula():
    a = np.zeros((4, 4, 4), bool)
    b = np.zeros((4, 4, 4), bool)
    a.flat[:6] = True
    b.flat[3:7] = True  # |A|=6, |B|=4, |A∩B|=3
    assert dice(_mask(a), _mask(b)) == pytest.approx(0.6)


def test_dice_symmetric(rng):
    a = _mask(rng.random((5, 5, 5)) > 0.4)
    b = _mask(rng.random((5, 5, 5)) > 0.4)
    assert dice(a, b) == dice(b, a)


def test_dice_both_empty():
    with pytest.raises(BothEmpty):
        dice(_mask(np.zeros((3, 3, 3))), _mask(np.zeros((3, 3, 3))))


def test_dice_grid_mismatch():
    a = _mask(np.ones((3, 3, 3)))
    b = BinaryMask(np.ones((3, 3, 3), bool), np.diag([2.0, 1.0, 1.0, 1.0]))
    with pytest.raises(GridMismatch):
        dice(a, b)


def test_multilabel_identical():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 4, size=(5, 5, 5))
    lv = Volume(labels, np.eye(4))
    out = multilabel_dice(lv, lv)
    assert set(out) == set(np.unique(labels)) - {0}
    assert all(v == 1.0 for v in out.values())


def test_multilabel_shifted_out():
    a = np.zeros((6, 6, 6), dtype=np.int32)
    a[:2, :, :] = 3
    b = np.zeros((6, 6, 6), dtype=np.int32)
    b[4:, :, :] = 3
    out = multilabel_dice(Volume(a, np.eye(4)), Volume(b, np.eye(4)))
    assert out[3] == 0.0


def test_multilabel_matches_brute_force():
    rng = np.random.default_rng(2)
    a = rng.integers(0, 4, size=(6, 6, 6))
    b = rng.integers(0, 4, size=(6, 6, 6))
    out = multilabel_dice(Volume(a, np.eye(4)), Volume(b, np.eye(4)))
    for lab in (1, 2, 3):
        inter = int(((a == lab) & (b == lab)).sum())
        denom = int((a == lab).sum() + (b == lab).sum())
        assert out[lab] == pytest.approx(2 * inter / denom)


def test_multilabel_binary_equals_dice(rng):
    bits = rng.random((5, 5, 5)) > 0.5
    other = rng.random((5, 5, 5)) > 0.5
    ml = multilabel_dice(
        Volume(bits.astype(int), np.eye(4)),
        Volume(other.astype(int), np.eye(4)),
    )
    assert ml[1] == pytest.approx(dice(_mask(bits), _mask(other)))


def test_propagate_identity():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 5, size=(6, 6, 6))
    lv = Volume(labels, np.eye(4))
    out = propagate_labels(lv, np.eye(4), (6, 6, 6), np.eye(4))
    np.testing.assert_array_equal(out.data, labels)


def test_propagate_integer_shift():
    labels = np.zeros((6, 6, 6), dtype=np.int32)
    labels[2, 3, 1] = 7
    lv = Volume(labels, np.eye(4))
    # atlas-to-subject moves everything +2 along x in world mm
    out = propagate_labels(lv, translation((2.0, 0, 0)), (6, 6, 6), np.eye(4))
    expected = np.zeros_like(labels)
    expected[4, 3, 1] = 7
    np.testing.assert_array_equal(out.data, expected)


def _read(original, defaced):
    """A qc_report reader of a pair already in memory."""
    return lambda: (original, defaced)


def test_qc_identical_pairs(head):
    items = [(f"s{i}", _read(head.volume, head.volume)) for i in range(3)]
    report = qc_report(items)
    assert report.mean == 1.0
    assert report.std == 0.0
    assert report.n == 3
    assert not report.flagged and not report.failed


def test_qc_flags_corrupted_brain(head):
    corrupted = Volume(head.volume.data.copy(), head.volume.affine)
    # zero a brain octant: Dice drops well below 0.99
    corrupted.data[32:, 30:, 38:] = 0.0
    report = qc_report([("good", _read(head.volume, head.volume)),
                        ("bad", _read(head.volume, corrupted))])
    assert "bad" in report.flagged
    assert "good" not in report.flagged


def test_qc_mixed_batch_aggregation(head):
    corrupted = Volume(head.volume.data.copy(), head.volume.affine)
    corrupted.data[32:, 30:, 38:] = 0.0
    report = qc_report([("a", _read(head.volume, head.volume)),
                        ("b", _read(head.volume, corrupted))])
    values = [d for _i, d, _f, _e in report.per_item]
    assert report.mean == pytest.approx(np.mean(values), abs=1e-12)
    assert report.std == pytest.approx(np.std(values), abs=1e-12)


def test_qc_per_item_error_recorded(head):
    """A pair that fails to score, or whose read() raises, is a failed item
    carrying that error's message; the other pairs are scored."""
    zero = Volume(np.zeros_like(head.volume.data), head.volume.affine)

    def unreadable():
        raise FileError("c.nii: not a NIfTI-1 file")

    report = qc_report([("ok", _read(head.volume, head.volume)),
                        ("broken", _read(head.volume, zero)),
                        ("unreadable", unreadable)])
    assert report.failed == ["broken", "unreadable"]
    assert report.n == 1
    assert [item[3] for item in report.per_item] == [
        None, "no foreground above Otsu threshold", "c.nii: not a NIfTI-1 file"]


def test_qc_empty_items():
    with pytest.raises(ValueError):
        qc_report([])


def test_report_serialization():
    report = DiceReport(
        per_item=[("a", 1.0, False, None), ("b", 0.5, True, None)],
        mean=0.75, std=0.25, n=2, threshold=0.99,
    )
    payload = json.loads(report.to_json())
    assert payload["std_kind"] == "population"
    assert payload["items"][1]["flagged"] is True
    table = report.to_table()
    assert "FLAGGED" in table and "0.750000" in table


def test_qc_report_releases_each_pair_before_reading_the_next(monkeypatch):
    """When qc_report asks for pair k + 1, pair k's volumes and the brain
    masks made from them are gone, also when pair k failed: qc holds one
    pair at a time."""
    head = synthetic.nominal_head(32).volume
    alive = []
    real_extract = evaluation.extract_brain

    def extract_brain(volume, path=None):
        mask = real_extract(volume, path)
        alive.extend(weakref.ref(obj) for obj in (volume, mask, mask.data))
        return mask

    monkeypatch.setattr(evaluation, "extract_brain", extract_brain)
    shifted = head.affine @ translation((1.0, 0.0, 0.0))

    def read(k):
        # pair 1's volumes lie on different grids, so its Dice fails
        pair = (Volume(head.data.copy(), head.affine),
                Volume(head.data.copy(), shifted if k == 1 else head.affine))
        alive.extend(weakref.ref(obj) for v in pair for obj in (v, v.data))
        return pair

    def pairs():
        for k in range(3):
            assert not any(ref() is not None for ref in alive), f"pair {k - 1} alive"
            yield (f"p{k}", functools.partial(read, k))

    report = qc_report(pairs())
    assert report.n == 2 and report.failed == ["p1"]
