"""Seeded CLI parity run: hash every output of a fixed phantom flow.

    python3 scripts/parity.py OUTDIR

Runs, through ``defacepipe.cli.main`` from this checkout's ``src/``:
``phantom`` with seeds 0-3 (one directory each), ``make-template-pack`` on
seed 0, once with the fallback extractor and once with ``--brain-mask`` on
seed 0's brain mask (into ``pack-external/``), ``quickshear --brain-mask``
on each subject (seeds 1-3), one ``deface --jobs 1`` over the three
subjects, and one ``qc --json`` for each (original, defaced) and each
(original, sheared) pair. Then it writes seed 1's
phantom and brain mask once more, in ``noncanonical/``, stored with permuted
and flipped voxel axes and the affine that keeps every voxel's world
position, and runs ``quickshear --brain-mask``, ``deface --jobs 1`` and
``deface --brain-mask`` (into ``noncanonical/external/``) on it: the RAS
phantoms skip the reorientation copies, this subject and its external
brain mask do not.
Last it writes seed 1's phantom once more, in ``nonfinite/``, with a NaN
and an inf voxel in the brain and in the face, and runs ``deface --jobs 1``
and ``qc --json`` on it, so the flow also covers the non-finite voxels
that registration reads as background. Then it samples seed 1's phantom
(synthetic.sample_trilinear) and resamples its brain mask (the nearest
geometry.resample) onto a 1 x 1 x 2.5 mm grid, in
``anisotropic/``, and runs ``quickshear --brain-mask``, ``deface --jobs 1``
and ``qc --json`` on it, so the flow also covers morphology with a
non-cubic ball, on both sides of ``morphology.dilate``'s switch between the
ball and the distance transform. Prints one
``sha256  path`` line per output file, paths relative to OUTDIR. It also
hashes, in process, the volume and both masks of
``synthetic.random_subject(nominal_head(n), seed)`` for n = 64 (seeds 1-5)
and n = 128 (seeds 1-2), the benchmark's phantoms at both of its sizes,
each as its dtype, shape and bytes, under the path
``random_subject/N/seed-S/NAME``. A
``.nii.gz`` is hashed by its decompressed stream, so a change to the
compression alone (level, deflate stream, gzip header) leaves its hash
unchanged. A ``_prov.json`` is hashed without its ``timing`` and
``input`` keys, which hold wall times and the absolute input path; the qc
manifests, inputs holding absolute paths, are not hashed. Run it at two
commits and diff the output: an empty diff means the seeded outputs are
byte-identical once decompressed. To check a change against a commit whose
script lacks part of this flow, copy this script into that commit's
checkout and run it there too.
"""

import contextlib
import gzip
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SUBJECT_SEEDS = (1, 2, 3)
MANIFEST = "qc_manifest.txt"
# Stored axis j of the non-canonical subject is RAS axis STORED_AXES[j],
# reversed where STORED_FLIPS[j] is set.
STORED_AXES = (2, 0, 1)
STORED_FLIPS = (True, True, False)
# Voxel spacing (mm) of the anisotropic subject; the phantoms are 1 mm.
ANISOTROPIC_SPACING = (1.0, 1.0, 2.5)
# Seeds of the random_subject phantoms hashed in process, by grid size.
PHANTOM_SEEDS = {64: (1, 2, 3, 4, 5), 128: (1, 2)}


def _run(argv):
    from defacepipe.cli import main

    with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the hashes
        code = main(argv)
    if code != 0:
        sys.exit(f"error: defacepipe {' '.join(argv)} exited {code}")


def _qc_each(original: Path) -> None:
    """One ``qc --json`` of original against its defaced and one against its
    sheared volume, into ``qc_defaced.json`` and ``qc_quickshear.json``
    beside it: qc refuses a manifest that lists one original twice."""
    for suffix in ("_defaced", "_quickshear"):
        manifest = original.parent / MANIFEST
        manifest.write_text(f"{original} {original.parent / f'phantom{suffix}.nii.gz'}\n")
        _run(["qc", str(manifest), "--json", str(original.parent / f"qc{suffix}.json")])


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name.endswith(".gz"):
        data = gzip.decompress(data)
    if path.name.endswith("_prov.json"):
        prov = json.loads(data)
        prov.pop("timing", None)
        prov.pop("input", None)
        data = json.dumps(prov, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def _stored(data, affine):
    """data with its axes stored as STORED_AXES and STORED_FLIPS say, and
    the affine that gives each voxel its old world position."""
    rev = tuple(j for j in range(3) if STORED_FLIPS[j])
    stored = np.flip(np.transpose(data, STORED_AXES), rev)
    to_ras = np.zeros((4, 4))  # stored voxel index -> RAS voxel index
    to_ras[3, 3] = 1.0
    for j, (axis, flip) in enumerate(zip(STORED_AXES, STORED_FLIPS)):
        to_ras[axis, j] = -1.0 if flip else 1.0
        to_ras[axis, 3] = stored.shape[j] - 1 if flip else 0.0
    return stored, affine @ to_ras


def write_noncanonical(ras: Path, out: Path) -> Path:
    """Write the phantom in directory ras, and its brain mask, to directory
    out with their voxel axes stored as _stored says; return the phantom's
    path."""
    from defacepipe import nifti
    from defacepipe.volume import BinaryMask, Volume

    out.mkdir()
    volume, sidecar = nifti.read_nifti(ras / "phantom.nii.gz")
    nifti.write_nifti(Volume(*_stored(volume.data, volume.affine)), sidecar,
                      out / "phantom.nii.gz")
    mask, _ = nifti.read_nifti(ras / "phantom_brainmask.nii.gz")
    nifti.write_mask(BinaryMask(*_stored(mask.data, mask.affine)),
                     out / "phantom_brainmask.nii.gz")
    return out / "phantom.nii.gz"


def write_nonfinite(ras: Path, out: Path) -> Path:
    """Write the phantom in directory ras to directory out with a NaN and
    an inf voxel each in its brain and in its face; return its path."""
    from defacepipe import nifti
    from defacepipe.volume import Volume

    out.mkdir()
    volume, sidecar = nifti.read_nifti(ras / "phantom.nii.gz")
    data = volume.data.copy()
    brain = np.argwhere(nifti.read_nifti(ras / "phantom_brainmask.nii.gz")[0].data)
    face = np.argwhere(nifti.read_nifti(ras / "phantom_facemask.nii.gz")[0].data)
    for voxel, value in zip((brain[0], brain[len(brain) // 2], face[0], face[-1]),
                            (np.nan, np.inf, np.nan, np.inf)):
        data[tuple(voxel)] = value
    nifti.write_nifti(Volume(data, volume.affine), sidecar, out / "phantom.nii.gz")
    return out / "phantom.nii.gz"


def write_anisotropic(ras: Path, out: Path) -> Path:
    """Write the phantom in directory ras, sampled onto an
    ANISOTROPIC_SPACING grid over the same field of view by
    synthetic.sample_trilinear, and its brain mask resampled by the nearest
    geometry.resample, to directory out; return the phantom's path."""
    from defacepipe import geometry, nifti, synthetic
    from defacepipe.volume import BinaryMask

    out.mkdir()
    volume, sidecar = nifti.read_nifti(ras / "phantom.nii.gz")
    mask, _ = nifti.read_nifti(ras / "phantom_brainmask.nii.gz")
    affine = volume.affine @ np.diag([*ANISOTROPIC_SPACING, 1.0])
    dims = tuple(int(np.ceil(n / s)) for n, s in zip(volume.dims, ANISOTROPIC_SPACING))
    nifti.write_nifti(synthetic.sample_trilinear(volume, dims, affine, np.eye(4)), sidecar,
                      out / "phantom.nii.gz")
    nifti.write_mask(geometry.resample(BinaryMask.from_volume(mask), dims, affine, np.eye(4)),
                     out / "phantom_brainmask.nii.gz")
    return out / "phantom.nii.gz"


def phantom_digests() -> dict:
    """sha256 of the dtype, shape and bytes of each random_subject phantom's
    volume and masks, by pseudo-path."""
    from defacepipe import synthetic

    digests = {}
    for size, seeds in PHANTOM_SEEDS.items():
        head = synthetic.nominal_head(size)
        for seed in seeds:
            phantom = synthetic.random_subject(head, seed)
            for name, grid in (("volume", phantom.volume), ("brain_mask", phantom.brain_mask),
                               ("face_mask", phantom.face_mask)):
                data = np.ascontiguousarray(grid.data)
                h = hashlib.sha256(f"{data.dtype.str} {data.shape}\n".encode())
                h.update(data.tobytes())
                digests[f"random_subject/{size}/seed-{seed}/{name}"] = h.hexdigest()
    return digests


def run_flow(out: Path) -> None:
    for seed in (0, *SUBJECT_SEEDS):
        _run(["phantom", "--seed", str(seed), "--output-dir", str(out / f"seed-{seed}")])
    template = out / "seed-0" / "phantom.nii.gz"
    _run(["make-template-pack", str(template), "--output-dir", str(out / "pack")])
    _run(["make-template-pack", str(template),
          "--brain-mask", str(template.parent / "phantom_brainmask.nii.gz"),
          "--output-dir", str(out / "pack-external")])
    subjects = [out / f"seed-{s}" / "phantom.nii.gz" for s in SUBJECT_SEEDS]
    for subject in subjects:
        _run(["quickshear", str(subject),
              "--brain-mask", str(subject.parent / "phantom_brainmask.nii.gz")])
    _run(["deface", *map(str, subjects), "--jobs", "1",
          "--template", str(out / "pack" / "phantom_stripped.nii.gz"),
          "--face-mask", str(out / "pack" / "phantom_keepmask.nii.gz")])
    for subject in subjects:
        _qc_each(subject)

    stored = write_noncanonical(out / f"seed-{SUBJECT_SEEDS[0]}", out / "noncanonical")
    _run(["quickshear", str(stored),
          "--brain-mask", str(stored.parent / "phantom_brainmask.nii.gz")])
    _run(["deface", str(stored), "--jobs", "1",
          "--template", str(out / "pack" / "phantom_stripped.nii.gz"),
          "--face-mask", str(out / "pack" / "phantom_keepmask.nii.gz")])
    _run(["deface", str(stored), "--jobs", "1",
          "--brain-mask", str(stored.parent / "phantom_brainmask.nii.gz"),
          "--output-dir", str(stored.parent / "external"),
          "--template", str(out / "pack" / "phantom_stripped.nii.gz"),
          "--face-mask", str(out / "pack" / "phantom_keepmask.nii.gz")])

    spoiled = write_nonfinite(out / f"seed-{SUBJECT_SEEDS[0]}", out / "nonfinite")
    _run(["deface", str(spoiled), "--jobs", "1",
          "--template", str(out / "pack" / "phantom_stripped.nii.gz"),
          "--face-mask", str(out / "pack" / "phantom_keepmask.nii.gz")])
    manifest = spoiled.parent / MANIFEST
    manifest.write_text(f"{spoiled} {spoiled.parent / 'phantom_defaced.nii.gz'}\n")
    _run(["qc", str(manifest), "--json", str(spoiled.parent / "qc.json")])

    coarse = write_anisotropic(out / f"seed-{SUBJECT_SEEDS[0]}", out / "anisotropic")
    _run(["quickshear", str(coarse),
          "--brain-mask", str(coarse.parent / "phantom_brainmask.nii.gz")])
    _run(["deface", str(coarse), "--jobs", "1",
          "--template", str(out / "pack" / "phantom_stripped.nii.gz"),
          "--face-mask", str(out / "pack" / "phantom_keepmask.nii.gz")])
    _qc_each(coarse)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run_flow(out)
    digests = phantom_digests()
    for path in out.rglob("*"):
        if path.is_file() and path.name != MANIFEST:
            digests[str(path.relative_to(out))] = _digest(path)
    for name in sorted(digests):
        print(f"{digests[name]}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
