"""Batch command-line front end.

Subcommands: deface, quickshear, qc, make-template-pack, phantom.
deface prepares the template side of registration once, then processes
its files on a pool of --jobs worker processes forked from this one, so
the workers inherit the pack and the prepared template. A Python exception
fails only its own file; a worker that dies fails the files still pending
in the pool. Each failure is reported on stderr as ``error: <path>: ...``.
"""

import argparse
import concurrent.futures
import json
import logging
import math
import multiprocessing
import sys
from pathlib import Path

import numpy as np

from . import __version__, geometry, nifti
from .brain_extraction import BrainMaskSource
from .defacing import (
    TemplatePack,
    deface,
    make_template_pack,
    quickshear,
)
from .errors import DefacepipeError, StageError
from .evaluation import qc_report
from .registration import RegistrationConfig, prepare
from .synthetic import nominal_head, random_subject
from .volume import BinaryMask

log = logging.getLogger("defacepipe")


def _out_path(input_path: Path, output_dir: Path | None, suffix: str, ext=None) -> Path:
    stem = input_path.name
    for e in (".nii.gz", ".nii"):
        if stem.endswith(e):
            stem = stem[: -len(e)]
            if ext is None:
                ext = e
            break
    if ext is None:
        ext = ".nii.gz"
    directory = output_dir or input_path.parent
    return directory / f"{stem}{suffix}{ext}"


def _load_pack(template_path: Path, face_mask_path: Path) -> TemplatePack:
    template, _ = nifti.read_nifti(template_path)
    mask_vol, _ = nifti.read_nifti(face_mask_path)
    return TemplatePack(template=template, keep_mask=BinaryMask.from_volume(mask_vol))


def _brain_source(args) -> BrainMaskSource:
    if args.brain_mask:
        return BrainMaskSource("external_file", Path(args.brain_mask))
    return BrainMaskSource("fallback")


def _artifacts(input_path: Path, output_dir: Path | None) -> list[Path]:
    """deface's outputs for one input: defaced volume, brain-safe mask, transform, provenance."""
    return [_out_path(input_path, output_dir, suffix, ext) for suffix, ext in (
        ("_defaced", None), ("_brainsafe", None), ("_xfm", ".txt"), ("_prov", ".json"))]


def _deface_one(input_path: Path, pack: TemplatePack, fixed, source, margin_mm, output_dir):
    try:
        volume, sidecar = nifti.read_nifti(input_path)
    except Exception as e:
        raise StageError(0, e) from e  # stage 0 = ingestion
    result = deface(volume, pack, fixed, source, margin_mm)
    result.provenance["input"] = str(input_path)
    result.provenance["header_warnings"] = sidecar.warnings

    # Provenance is written last, as the mark of a complete set; one left by
    # an earlier run would mark a partly replaced set as complete.
    out, brainsafe_path, xfm_path, prov_path = _artifacts(input_path, output_dir)
    prov_path.unlink(missing_ok=True)
    nifti.write_nifti(result.defaced, sidecar, out)
    nifti.write_mask(result.brain_safe_mask, brainsafe_path)
    geometry.save_transform(result.transform, xfm_path)
    with nifti.atomic_file(prov_path) as f:
        f.write(json.dumps(result.provenance, indent=2, sort_keys=True).encode())
    return out


# What every worker of cmd_deface's pool needs besides the input path: the
# arguments of _deface_one after it. The pool forks, so they are inherited,
# never pickled.
_batch: tuple = ()


def _start_worker(*batch):
    global _batch
    _batch = batch


def _deface_in_worker(input_path: Path):
    return _deface_one(input_path, *_batch)


def cmd_deface(args) -> int:
    inputs = [Path(p) for p in args.inputs]
    if args.brain_mask and len(inputs) != 1:
        print("error: --brain-mask applies to exactly one input", file=sys.stderr)
        return 2
    output_dir = Path(args.output_dir) if args.output_dir else None
    # Two inputs with one set of output paths would overwrite each other.
    claimed = {}
    for p in inputs:
        first = claimed.setdefault(_artifacts(p, output_dir)[3].resolve(), p)
        if first is not p:
            print(f"error: {first} and {p} would write the same output files", file=sys.stderr)
            return 2
    pack = _load_pack(Path(args.template), Path(args.face_mask))
    if output_dir:
        output_dir.mkdir(parents=True, exist_ok=True)
    fixed = prepare(pack.template, RegistrationConfig(seed=args.seed, bins=args.bins))

    failures = []
    # fork, not spawn: the workers inherit the pack and the prepared template
    # instead of re-reading and re-preparing them, and this process starts
    # no thread before the pool forks. The pool's exit joins every worker.
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=min(args.jobs, len(inputs)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(pack, fixed, _brain_source(args), args.margin_mm, output_dir),
    ) as pool:
        futures = {pool.submit(_deface_in_worker, p): p for p in inputs}
        for fut in concurrent.futures.as_completed(futures):
            p = futures[fut]
            try:
                out = fut.result()
                log.info("defaced %s -> %s", p, out)
            except Exception as e:
                failures.append(p)
                print(f"error: {p}: {e}", file=sys.stderr)
    for p in failures:  # a worker killed mid-write leaves its temporary file
        for path in _artifacts(p, output_dir):
            nifti.remove_temporary_files(path)
    return 1 if failures else 0


def cmd_quickshear(args) -> int:
    volume, sidecar = nifti.read_nifti(Path(args.input))
    mask_vol, _ = nifti.read_nifti(Path(args.brain_mask))
    sheared = quickshear(volume, BinaryMask.from_volume(mask_vol), args.buffer_mm)
    output_dir = Path(args.output_dir) if args.output_dir else None
    if output_dir:
        output_dir.mkdir(parents=True, exist_ok=True)
    out = _out_path(Path(args.input), output_dir, "_quickshear")
    nifti.write_nifti(sheared, sidecar, out)
    log.info("quickshear %s -> %s", args.input, out)
    return 0


def _parse_manifest(path: Path) -> list[tuple[str, Path, Path]]:
    items = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected two paths per line")
        items.append((Path(parts[0]).name, Path(parts[0]), Path(parts[1])))
    if not items:
        raise ValueError(f"{path}: empty manifest")
    return items


def cmd_qc(args) -> int:
    try:
        entries = _parse_manifest(Path(args.manifest))
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    def pairs():  # read as qc_report asks, one pair at a time
        for item_id, orig_path, defaced_path in entries:
            try:
                orig, _ = nifti.read_nifti(orig_path)
                defaced, _ = nifti.read_nifti(defaced_path)
            except DefacepipeError as e:
                print(f"error: {orig_path}: {e}", file=sys.stderr)
                orig = defaced = None  # qc_report records the pair as failed
            yield item_id, orig, defaced

    report = qc_report(pairs(), threshold=args.threshold)
    print(report.to_table())
    if args.json:
        Path(args.json).write_text(report.to_json())
    return 1 if (report.flagged or report.failed) else 0


def cmd_make_template_pack(args) -> int:
    try:
        head, sidecar = nifti.read_nifti(Path(args.template))
    except DefacepipeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    pack = make_template_pack(
        head,
        brain_source=_brain_source(args),
        buffer_mm=args.buffer_mm,
        face_dilate_mm=args.face_dilate_mm,
    )
    output_dir = Path(args.output_dir) if args.output_dir else Path(args.template).parent
    output_dir.mkdir(parents=True, exist_ok=True)
    tpath = _out_path(Path(args.template), output_dir, "_stripped")
    mpath = _out_path(Path(args.template), output_dir, "_keepmask")
    nifti.write_nifti(pack.template, sidecar, tpath)
    nifti.write_mask(pack.keep_mask, mpath)
    print(f"wrote {tpath}\nwrote {mpath}")
    return 0


def cmd_phantom(args) -> int:
    head = nominal_head(size=args.size)
    subject = random_subject(head, seed=args.seed) if args.seed else head
    output_dir = Path(args.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    sc = nifti.sidecar_for_dtype(np.float32)
    nifti.write_nifti(subject.volume, sc, output_dir / "phantom.nii.gz")
    nifti.write_mask(subject.brain_mask, output_dir / "phantom_brainmask.nii.gz")
    nifti.write_mask(subject.face_mask, output_dir / "phantom_facemask.nii.gz")
    print(f"wrote phantom files to {output_dir}")
    return 0


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _finite_float(low: float, high: float = math.inf):
    """argparse type: a finite number in [low, high]."""
    wanted = f"in [{low:g}, {high:g}]" if math.isfinite(high) else f">= {low:g}"

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and low <= value <= high):
            raise argparse.ArgumentTypeError(f"expected a finite number {wanted}, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defacepipe",
        description="Brain-safe MRI defacing (atlas registration + brain masking)",
    )
    parser.add_argument("--version", action="version", version=__version__)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deface", help="run the nine-stage defacing pipeline")
    p.add_argument("inputs", nargs="+", help="input NIfTI file(s)")
    p.add_argument("--template", required=True, help="skull-stripped template NIfTI")
    p.add_argument("--face-mask", required=True, help="template keep-mask (1=keep)")
    p.add_argument(
        "--brain-mask",
        help="external brain mask or skull-stripped volume NIfTI (voxels above 0)",
    )
    p.add_argument("--margin-mm", type=_finite_float(0.0), default=7.0)
    p.add_argument(
        "--bins", type=_int_at_least(2), default=32, help="MI histogram bins (>= 2)"
    )
    p.add_argument("--output-dir")
    p.add_argument(
        "--jobs", type=_int_at_least(1), default=1, help="worker processes (>= 1)"
    )
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="registration RNG seed")
    p.set_defaults(func=cmd_deface)

    p = sub.add_parser("quickshear", help="geometric baseline defacing")
    p.add_argument("input")
    p.add_argument("--brain-mask", required=True)
    p.add_argument("--buffer-mm", type=_finite_float(0.0), default=5.0)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_quickshear)

    p = sub.add_parser("qc", help="Dice QC over (original, defaced) pairs")
    p.add_argument("manifest", help="two whitespace-separated paths per line")
    p.add_argument(
        "--threshold", type=_finite_float(0.0, 1.0), default=0.99,
        help="flag a pair whose Dice is below this (in [0, 1])",
    )
    p.add_argument("--json", help="also write the report as JSON here")
    p.set_defaults(func=cmd_qc)

    p = sub.add_parser(
        "make-template-pack", help="derive a keep-mask + stripped template"
    )
    p.add_argument("template")
    p.add_argument("--brain-mask")
    p.add_argument("--buffer-mm", type=_finite_float(0.0), default=5.0)
    p.add_argument("--face-dilate-mm", type=_finite_float(0.0), default=3.0)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_make_template_pack)

    p = sub.add_parser("phantom", help="write a synthetic head phantom")
    p.add_argument("--size", type=_int_at_least(2), default=64, help="edge in voxels (>= 2)")
    p.add_argument("--output-dir", default=".")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="0 = the nominal head")
    p.set_defaults(func=cmd_phantom)

    for p in sub.choices.values():
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except DefacepipeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
