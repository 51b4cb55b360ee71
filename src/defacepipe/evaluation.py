"""Quantitative QC: Dice overlap, single-atlas label propagation, batch reports."""

import json
from dataclasses import dataclass

import numpy as np

from . import geometry
from .brain_extraction import extract_brain
from .errors import BothEmpty
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

    @property
    def flagged(self) -> list:
        return [item[0] for item in self.per_item if item[2]]

    @property
    def failed(self) -> list:
        return [i for i, _, _, e in self.per_item if e is not None]

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
            status = "FAILED" if e is not None else ("FLAGGED" if f else "ok")
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
    # each sorted in its memory order, which the set of labels ignores
    labels = np.union1d(np.unique(a.data.ravel("K")), np.unique(b.data.ravel("K")))
    return {int(lab): dice(BinaryMask(a.data == lab, a.affine),
                           BinaryMask(b.data == lab, b.affine))
            for lab in labels if lab != 0}


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
    )


def _pair_dice(volumes) -> float:
    """Dice of the fallback brain masks of the two volumes of the iterable
    volumes, (original, defaced), taken one at a time. Each volume is
    dropped once it is reoriented and its canonical copy once its mask is
    made, so when volumes reads lazily, the original is gone before the
    defaced volume is read."""
    masks = []
    for v in volumes:
        canon = reorient_to_canonical(v)[0]
        del v
        masks.append(extract_brain(canon))
        del canon
    return dice(*masks)


def qc_report(items, threshold: float = 0.99) -> DiceReport:
    """For each (id, read) of items, an iterable taken one item at a time,
    read() returns an iterable of the original and the defaced Volume; the
    fallback extractor re-extracts a brain mask from each and the two masks
    are Dice-scored. The volumes are taken one at a time, and each is freed
    once its mask is made, so a read() that reads its files lazily (a
    generator) holds one volume and one mask at a time; a tuple works too.
    Reading and scoring a pair is one step: an error in either is recorded
    as the item's error, not fatal, so when a pair has two faults the first
    one met is recorded, an unscorable original before an unreadable
    defaced file. The pair is freed before the next item is taken."""
    per_item = []
    values = []
    for item_id, read in items:
        try:
            d = _pair_dice(read())
            per_item.append((item_id, d, d < threshold, None))
            values.append(d)
        except Exception as e:
            per_item.append((item_id, None, True, str(e) or type(e).__name__))
    if not per_item:
        raise ValueError("qc_report requires at least one item")
    mean = std = None
    if values:
        mean = float(np.mean(values))
        std = float(np.std(values))  # population std (divisor n)
    return DiceReport(per_item, mean, std, len(values), threshold)
