"""Quantitative QC: Dice overlap, single-atlas label propagation, batch reports."""

import json
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .brain_extraction import BrainMaskSource, extract_brain
from .errors import BothEmpty, FileError
from .geometry import reorient_to_canonical
from .volume import BinaryMask, Volume, check_same_grid


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.6f}"


@dataclass
class DiceReport:
    per_item: list  # (id, dsc or None, flagged, error)
    mean: float | None  # None when no pair yields a Dice value (n = 0)
    std: float | None
    n: int
    threshold: float
    failed: list = field(default_factory=list)

    @property
    def flagged(self) -> list:
        return [item[0] for item in self.per_item if item[2]]

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "mean": self.mean,
                "std": self.std,
                "std_kind": "population",
                "threshold": self.threshold,
                "items": [
                    {"id": i, "dice": d, "flagged": f, "error": e}
                    for i, d, f, e in self.per_item
                ],
                "failed": self.failed,
            },
            indent=2,
        )

    def to_table(self) -> str:
        rows = [("id", "dice", "status")]
        for i, d, f, e in self.per_item:
            status = "FAILED" if e else ("FLAGGED" if f else "ok")
            rows.append((str(i), _cell(d), status))
        rows.append(("mean", _cell(self.mean), f"n={self.n}"))
        rows.append(("std", _cell(self.std), ""))
        widths = [max(len(r[c]) for r in rows) for c in range(3)]
        return "\n".join(
            "  ".join(cell.ljust(w) for cell, w in zip(r, widths)) for r in rows
        )


def dice(a: BinaryMask, b: BinaryMask) -> float:
    check_same_grid(a, b)
    na, nb = a.count(), b.count()
    if na == 0 and nb == 0:
        raise BothEmpty("dice undefined for two empty masks")
    inter = int((a.data & b.data).sum())
    return 2.0 * inter / (na + nb)


def multilabel_dice(a: Volume, b: Volume) -> dict[int, float]:
    """Per-label binary Dice over nonzero integer labels present in either
    volume; 0 is background."""
    check_same_grid(a, b)
    labels = np.union1d(np.unique(a.data), np.unique(b.data))
    out = {}
    for lab in labels:
        if lab == 0:
            continue
        am = a.data == lab
        bm = b.data == lab
        denom = int(am.sum()) + int(bm.sum())
        out[int(lab)] = 2.0 * int((am & bm).sum()) / denom
    return out


def propagate_labels(
    atlas_labels: Volume,
    atlas_to_subject: np.ndarray,
    subject_dims,
    subject_affine,
) -> Volume:
    """Nearest-neighbor propagation of atlas labels onto the subject grid."""
    return geometry.resample(
        atlas_labels,
        tuple(subject_dims),
        subject_affine,
        geometry.invert(np.asarray(atlas_to_subject)),
        interp="nearest",
    )


def qc_report(items, threshold: float = 0.99) -> DiceReport:
    """For each (id, original Volume, defaced Volume) of items, an iterable
    taken one item at a time, re-extract brain masks on both with the
    fallback extractor and Dice them. Per-item errors are recorded, not
    fatal; a pair whose original or defaced volume is None (it could not be
    read) is recorded as failed in its place."""
    source = BrainMaskSource("fallback")
    per_item = []
    failed = []
    values = []
    for item_id, original, defaced in items:
        try:
            if original is None or defaced is None:
                raise FileError("unreadable input")
            ca, _ = reorient_to_canonical(original)
            cb, _ = reorient_to_canonical(defaced)
            ma = extract_brain(ca, source)
            mb = extract_brain(cb, source)
            d = dice(ma, mb)
            per_item.append((item_id, d, d < threshold, None))
            values.append(d)
        except Exception as e:
            per_item.append((item_id, None, True, str(e)))
            failed.append(item_id)
    if not per_item:
        raise ValueError("qc_report requires at least one item")
    mean = std = None
    if values:
        mean = float(np.mean(values))
        std = float(np.std(values))  # population std (divisor n)
    return DiceReport(per_item, mean, std, len(values), threshold, failed)
