"""Seeded CLI parity run: hash every output of a fixed phantom flow.

    python3 scripts/parity.py OUTDIR

Runs, through ``defacepipe.cli.main`` from this checkout's ``src/``:
``phantom`` with seeds 0-3 (one directory each), ``make-template-pack`` on
seed 0, ``quickshear --brain-mask`` on each subject (seeds 1-3), one
``deface --jobs 1`` over the three subjects, and one ``qc --json`` over the
(original, defaced) and (original, sheared) pairs. Prints one
``sha256  path`` line per output file, paths relative to OUTDIR. A
``.nii.gz`` is hashed by its decompressed stream, so a change to the
compression alone (level, deflate stream, gzip header) leaves its hash
unchanged. A ``_prov.json`` is hashed without its ``timing`` and
``input`` keys, which hold wall times and the absolute input path; the qc
manifest, an input holding absolute paths, is not hashed. Run it at two
commits and diff the output: an empty diff means the seeded outputs are
byte-identical once decompressed.
"""

import contextlib
import gzip
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SUBJECT_SEEDS = (1, 2, 3)
MANIFEST = "qc_manifest.txt"


def _run(argv):
    from defacepipe.cli import main

    with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the hashes
        code = main(argv)
    if code != 0:
        sys.exit(f"error: defacepipe {' '.join(argv)} exited {code}")


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


def run_flow(out: Path) -> None:
    for seed in (0, *SUBJECT_SEEDS):
        _run(["phantom", "--seed", str(seed), "--output-dir", str(out / f"seed-{seed}")])
    template = out / "seed-0" / "phantom.nii.gz"
    _run(["make-template-pack", str(template), "--output-dir", str(out / "pack")])
    subjects = [out / f"seed-{s}" / "phantom.nii.gz" for s in SUBJECT_SEEDS]
    for subject in subjects:
        _run(["quickshear", str(subject),
              "--brain-mask", str(subject.parent / "phantom_brainmask.nii.gz")])
    _run(["deface", *map(str, subjects), "--jobs", "1",
          "--template", str(out / "pack" / "phantom_stripped.nii.gz"),
          "--face-mask", str(out / "pack" / "phantom_keepmask.nii.gz")])
    manifest = out / MANIFEST
    manifest.write_text("".join(
        f"{s} {s.parent / ('phantom' + suffix + '.nii.gz')}\n"
        for s in subjects for suffix in ("_defaced", "_quickshear")))
    _run(["qc", str(manifest), "--json", str(out / "qc.json")])


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
    outputs = [p for p in out.rglob("*") if p.is_file() and p.name != MANIFEST]
    for path in sorted(outputs):
        print(f"{_digest(path)}  {path.relative_to(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
