"""Correctness checks the benchmark applies to every output it times.

Each check compares an output with ground truth known by construction (the
phantom's analytic masks and true transform), never with a saved copy of an
earlier output. Each returns the problems it found; an empty list passes.
"""

import json
import math

import numpy as np

MAX_TRANSLATION_MM = 0.5
MAX_ROTATION_DEG = 0.5
MAX_SCALE = 0.01
DICE_MIN = 0.999
DICE_TOL = 1e-12


def missing(paths):
    return [f"missing artifact {p.name}" for p in paths if not p.is_file()]


def brain_changed(original, output, brain):
    """Brain voxels whose stored bits differ between input and output."""
    if original.dtype != output.dtype or original.shape != output.shape:
        return [f"output is {output.dtype}{output.shape}, "
                f"input {original.dtype}{original.shape}"]
    a = np.ascontiguousarray(original[brain]).view(np.uint8)
    b = np.ascontiguousarray(output[brain]).view(np.uint8)
    width = original.dtype.itemsize
    changed = int((a.reshape(-1, width) != b.reshape(-1, width)).any(axis=1).sum())
    return [f"{changed} brain voxels changed"] if changed else []


def face_kept(output, face):
    kept = int(np.count_nonzero(output[face]))
    return [f"{kept} face-blob voxels kept"] if kept else []


def transform_error(recovered, truth, center):
    """(translation mm, rotation deg, scale) residual of recovered against
    truth, both subject world -> template world, measured at center."""
    d = np.asarray(recovered, float) @ np.linalg.inv(np.asarray(truth, float))
    lin = d[:3, :3]
    u, _s, vt = np.linalg.svd(lin)
    rot = u @ vt  # orthogonal factor of the polar decomposition
    angle = math.degrees(math.acos(float(np.clip((np.trace(rot) - 1) / 2, -1, 1))))
    scale = abs(abs(np.linalg.det(lin)) ** (1 / 3) - 1)
    c = np.append(np.asarray(center, float), 1.0)
    trans = float(np.linalg.norm((d @ c)[:3] - c[:3]))
    return trans, angle, scale


def transform_problems(err):
    trans, angle, scale = err
    if trans > MAX_TRANSLATION_MM or angle > MAX_ROTATION_DEG or scale > MAX_SCALE:
        return [f"transform residual {trans:.3f} mm / {angle:.3f} deg / "
                f"{scale:.4f} scale"]
    return []


def dice(a, b):
    """Dice of two boolean masks, counted here rather than by the program."""
    na, nb = int(a.sum()), int(b.sum())
    return 2.0 * int((a & b).sum()) / (na + nb)


def dice_problems(value):
    return [] if value >= DICE_MIN else [f"brain-mask Dice {value:.6f} < {DICE_MIN}"]


def qc_problems(report_text, expected):
    """The qc JSON must hold one Dice per pair, each equal to the benchmark's
    own count in ``expected`` (item id -> Dice)."""
    try:
        report = json.loads(report_text)
        items = {item["id"]: item for item in report["items"]}
        count = len(report["items"])
    except (ValueError, KeyError, TypeError) as e:
        return [f"unreadable qc report: {e}"]
    problems = []
    if count != len(expected) or set(items) != set(expected):
        problems.append(f"qc reports {count} items for {len(expected)} pairs")
    for item_id, want in expected.items():
        got = items.get(item_id, {}).get("dice")
        if not isinstance(got, (int, float)) or abs(got - want) > DICE_TOL:
            problems.append(f"qc Dice {got} for {item_id}, counted {want!r}")
    return problems
