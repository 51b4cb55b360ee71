"""Exit codes, output artifacts, and batch behavior of the command line."""

import gzip
import json
import multiprocessing
import os
import shutil
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest

from defacepipe import (
    cli,
    defacing,
    evaluation,
    geometry,
    nifti,
    synthetic,
)
from defacepipe.brain_extraction import extract_brain
from defacepipe.cli import build_parser, main
from defacepipe.defacing import quickshear
from defacepipe.errors import DefacepipeError
from defacepipe.morphology import apply_mask
from defacepipe.volume import Volume


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Phantom subject plus template pack files on disk."""
    root = tmp_path_factory.mktemp("cli")
    head = synthetic.nominal_head()
    from defacepipe.defacing import make_template_pack

    pack = make_template_pack(head.volume)
    sc = nifti.sidecar_for_dtype(np.float32)
    nifti.write_nifti(pack.template, sc, root / "template.nii.gz")
    nifti.write_mask(pack.keep_mask, root / "template_keep.nii.gz")

    subject = synthetic.random_subject(head, seed=4)
    nifti.write_nifti(subject.volume, sc, root / "subj.nii.gz")
    nifti.write_mask(subject.brain_mask, root / "subj_brain.nii.gz")
    nifti.write_mask(subject.face_mask, root / "subj_face.nii.gz")
    return root, head, subject


def _deface_args(root, out, inputs, extra=()):
    return [
        "deface",
        *inputs,
        "--template", str(root / "template.nii.gz"),
        "--face-mask", str(root / "template_keep.nii.gz"),
        "--output-dir", str(out),
        *extra,
    ]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_no_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_deface_writes_four_artifacts(workspace, tmp_path):
    root, head, subject = workspace
    out = tmp_path / "out"
    code = main(_deface_args(
        root, out, [str(root / "subj.nii.gz")],
        extra=["--brain-mask", str(root / "subj_brain.nii.gz")],
    ))
    assert code == 0
    for suffix in ("_defaced.nii.gz", "_brainsafe.nii.gz", "_xfm.txt", "_prov.json"):
        assert (out / f"subj{suffix}").exists()

    defaced, _ = nifti.read_nifti(out / "subj_defaced.nii.gz")
    assert np.all(defaced.data[subject.face_mask.data] == 0)
    np.testing.assert_array_equal(
        defaced.data[subject.brain_mask.data],
        subject.volume.data[subject.brain_mask.data],
    )
    prov = json.loads((out / "subj_prov.json").read_text())
    assert prov["brain_source"] == "external_file"
    assert prov["registration"]["levels"]


def test_nonfinite_voxels_are_background_and_kept(workspace, tmp_path):
    """A NaN and an inf voxel in the brain and in the face: deface and qc
    succeed on the fallback extractor, the face is zeroed and the brain,
    non-finite voxels included, is unchanged."""
    root, _head, subject = workspace
    data = subject.volume.data.copy()
    brain_vox = np.argwhere(subject.brain_mask.data)
    face_vox = np.argwhere(subject.face_mask.data)
    for vox, value in zip((brain_vox[0], brain_vox[len(brain_vox) // 2],
                           face_vox[0], face_vox[-1]),
                          (np.nan, np.inf, np.nan, np.inf)):
        data[tuple(vox)] = value
    src = tmp_path / "nonfinite.nii.gz"
    nifti.write_nifti(Volume(data, subject.volume.affine),
                      nifti.sidecar_for_dtype(np.float32), src)

    out = tmp_path / "out"
    assert main(_deface_args(root, out, [str(src)])) == 0
    defaced, _ = nifti.read_nifti(out / "nonfinite_defaced.nii.gz")
    assert np.all(defaced.data[subject.face_mask.data] == 0)
    brain = subject.brain_mask.data
    np.testing.assert_array_equal(defaced.data[brain], data[brain])  # NaN equals NaN
    assert np.isnan(defaced.data[tuple(brain_vox[0])])

    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{src} {out / 'nonfinite_defaced.nii.gz'}\n")
    assert main(["qc", str(manifest), "--json", str(tmp_path / "report.json")]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["n"] == 1 and payload["failed"] == []


def test_deface_brain_mask_with_many_inputs_exits_2(workspace, tmp_path, capsys):
    root, _head, _subject = workspace
    code = main(_deface_args(
        root, tmp_path,
        [str(root / "subj.nii.gz"), str(root / "subj.nii.gz")],
        extra=["--brain-mask", str(root / "subj_brain.nii.gz")],
    ))
    assert code == 2
    assert "exactly one input" in capsys.readouterr().err


def test_deface_unreadable_input_continues_batch(workspace, tmp_path, capsys):
    root, _head, _subject = workspace
    bogus = tmp_path / "bogus.nii"
    bogus.write_bytes(b"nope")
    out = tmp_path / "out"
    code = main(_deface_args(
        root, out, [str(root / "subj.nii.gz"), str(bogus)]
    ))
    assert code == 1
    assert (out / "subj_defaced.nii.gz").exists()  # good file still processed
    err = capsys.readouterr().err
    assert "bogus.nii" in err and "stage 0" in err


def test_quickshear_command(workspace, tmp_path):
    root, _head, subject = workspace
    out = tmp_path / "qs"
    code = main([
        "quickshear", str(root / "subj.nii.gz"),
        "--brain-mask", str(root / "subj_brain.nii.gz"),
        "--output-dir", str(out),
    ])
    assert code == 0
    sheared, _ = nifti.read_nifti(out / "subj_quickshear.nii.gz")
    np.testing.assert_array_equal(
        sheared.data[subject.brain_mask.data],
        subject.volume.data[subject.brain_mask.data],
    )


def test_quickshear_missing_mask_exits_2(workspace):
    root, _head, _subject = workspace
    with pytest.raises(SystemExit) as exc:
        main(["quickshear", str(root / "subj.nii.gz")])
    assert exc.value.code == 2


def test_quickshear_degenerate_mask_exits_1(workspace, tmp_path, capsys):
    root, _head, subject = workspace
    from defacepipe.volume import BinaryMask

    line = np.zeros(subject.volume.dims, bool)
    line[30, 30, :] = True
    nifti.write_mask(BinaryMask(line, subject.volume.affine), tmp_path / "line.nii")
    code = main([
        "quickshear", str(root / "subj.nii.gz"),
        "--brain-mask", str(tmp_path / "line.nii"),
        "--output-dir", str(tmp_path),
    ])
    assert code == 1
    assert "collinear" in capsys.readouterr().err


def test_probabilistic_mask_file_reads_alike_everywhere(workspace, tmp_path):
    """A mask file marks every voxel above 0, whichever command reads it; a
    probabilistic mask and a skull-stripped volume both give the brain."""
    root, head, subject = workspace
    prob = Volume(subject.brain_mask.data * np.float32(0.3), subject.volume.affine)
    stripped = apply_mask(subject.volume, subject.brain_mask)
    for name, brain in (("prob", prob), ("stripped", stripped)):
        path = tmp_path / f"{name}_brain.nii.gz"
        nifti.write_nifti(brain, nifti.sidecar_for_dtype(np.float32), path)

        mask = extract_brain(subject.volume, path)
        np.testing.assert_array_equal(mask.data, subject.brain_mask.data)

        out = tmp_path / name
        code = main([
            "quickshear", str(root / "subj.nii.gz"),
            "--brain-mask", str(path), "--output-dir", str(out),
        ])
        assert code == 0
        sheared, _ = nifti.read_nifti(out / "subj_quickshear.nii.gz")
        np.testing.assert_array_equal(sheared.data, quickshear(subject.volume, mask).data)


def test_qc_identical_pairs_exit_0(workspace, tmp_path, capsys):
    root, _head, _subject = workspace
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"# original  defaced\n{root / 'subj.nii.gz'}  {root / 'subj.nii.gz'}\n"
    )
    code = main(["qc", str(manifest), "--json", str(tmp_path / "report.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.000000" in out
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["mean"] == 1.0


def test_qc_json_into_missing_directory_is_an_error_line(workspace, tmp_path, capsys):
    """A report that cannot be written prints the table, then one error
    line naming the path, with exit 1 and no traceback."""
    root, _head, _subject = workspace
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{root / 'subj.nii.gz'} {root / 'subj.nii.gz'}\n")
    report = tmp_path / "missing" / "report.json"
    assert main(["qc", str(manifest), "--json", str(report)]) == 1
    captured = capsys.readouterr()
    assert "1.000000" in captured.out
    assert captured.err.startswith(f"error: {report}: ")
    assert not report.parent.exists()


@pytest.mark.parametrize("report", ["", "."])
def test_qc_json_naming_a_directory_is_an_error_line(workspace, tmp_path, capsys, report):
    """--json "" reads as ".", a directory: the table, then one error line
    naming it, with exit 1 and no traceback."""
    root, _head, _subject = workspace
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{root / 'subj.nii.gz'} {root / 'subj.nii.gz'}\n")
    assert main(["qc", str(manifest), "--json", report]) == 1
    captured = capsys.readouterr()
    assert "1.000000" in captured.out
    assert captured.err.startswith("error: .: ")


def test_qc_corrupted_pair_exit_1(workspace, tmp_path):
    root, head, _subject = workspace
    corrupted = Volume(head.volume.data.copy(), head.volume.affine)
    corrupted.data[32:, 30:, 38:] = 0.0
    nifti.write_nifti(
        corrupted, nifti.sidecar_for_dtype(np.float32), tmp_path / "bad.nii.gz"
    )
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{root / 'subj.nii.gz'} {tmp_path / 'bad.nii.gz'}\n")
    assert main(["qc", str(manifest)]) == 1


def test_qc_unreadable_pair_keeps_manifest_position(workspace, tmp_path, capsys):
    root, _head, _subject = workspace
    subj = root / "subj.nii.gz"
    later = tmp_path / "later.nii.gz"
    shutil.copy(subj, later)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        f"{subj} {subj}\n{tmp_path / 'missing.nii.gz'} {subj}\n{later} {subj}\n"
    )
    code = main(["qc", str(manifest), "--json", str(tmp_path / "report.json")])
    assert code == 1
    ids = ["subj.nii.gz", "missing.nii.gz", "later.nii.gz"]
    captured = capsys.readouterr()
    rows = [r.split() for r in captured.out.splitlines()[1:4]]
    assert [r[0] for r in rows] == ids
    assert [r[2] for r in rows] == ["ok", "FAILED", "ok"]
    assert "missing.nii.gz" in captured.err and "no such file" in captured.err
    payload = json.loads((tmp_path / "report.json").read_text())
    assert [i["id"] for i in payload["items"]] == ids
    assert payload["items"][1]["error"] == f"no such file: {tmp_path / 'missing.nii.gz'}"
    assert payload["failed"] == ["missing.nii.gz"]
    assert payload["n"] == 2


def test_qc_corrupt_header_is_a_failed_row(workspace, tmp_path, capsys):
    """A file whose header cannot be read fails its own pair only."""
    root, _head, _subject = workspace
    subj = root / "subj.nii.gz"
    corrupt = tmp_path / "corrupt.nii"
    raw = bytearray(gzip.decompress(subj.read_bytes()))
    struct.pack_into("<f", raw, 108, float("inf"))  # vox_offset
    corrupt.write_bytes(raw)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{corrupt} {subj}\n{subj} {subj}\n")
    assert main(["qc", str(manifest)]) == 1
    captured = capsys.readouterr()
    rows = [r.split() for r in captured.out.splitlines()[1:3]]
    assert [r[2] for r in rows] == ["FAILED", "ok"]
    assert "vox_offset" in captured.err and "Traceback" not in captured.err


def test_qc_failed_pairs_record_their_reason_in_json_and_on_stderr(workspace, tmp_path, capsys):
    """Every FAILED pair prints one line, error: <original path>: <reason>,
    and its --json error is that reason: the reader's message for a corrupt
    defaced file, the extractor's for an all-zero defaced volume."""
    root, head, _subject = workspace
    subj = root / "subj.nii.gz"
    originals = [shutil.copy(subj, tmp_path / f"{name}.nii.gz")
                 for name in ("good", "corrupt", "blank")]
    corrupt = tmp_path / "corrupt_defaced.nii"
    raw = bytearray(gzip.decompress(subj.read_bytes()))
    struct.pack_into("<f", raw, 108, float("inf"))  # vox_offset
    corrupt.write_bytes(raw)
    with pytest.raises(DefacepipeError) as unreadable:
        nifti.read_nifti(corrupt)
    blank = tmp_path / "blank_defaced.nii.gz"
    zeros = Volume(np.zeros_like(head.volume.data), head.volume.affine)
    nifti.write_nifti(zeros, nifti.sidecar_for_dtype(np.float32), blank)
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(
        f"{o} {d}\n" for o, d in zip(originals, (subj, corrupt, blank))))
    report = tmp_path / "report.json"
    assert main(["qc", str(manifest), "--json", str(report)]) == 1
    errors = [item["error"] for item in json.loads(report.read_text())["items"]]
    assert errors == [None, str(unreadable.value), "no foreground above Otsu threshold"]
    assert capsys.readouterr().err.splitlines() == [
        f"error: {originals[1]}: {errors[1]}",
        f"error: {originals[2]}: {errors[2]}",
    ]


def test_qc_all_pairs_unreadable_exit_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"{tmp_path / 'a.nii'} {tmp_path / 'b.nii'}\n")
    report = tmp_path / "report.json"
    assert main(["qc", str(manifest), "--json", str(report)]) == 1
    out = capsys.readouterr().out
    assert "a.nii" in out and "FAILED" in out
    assert [r.split()[:2] for r in out.splitlines()[-2:]] == [["mean", "-"], ["std", "-"]]

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    payload = json.loads(report.read_text(), parse_constant=reject)
    assert payload["n"] == 0
    assert payload["mean"] is None and payload["std"] is None


def test_qc_reads_each_pair_after_scoring_the_last(workspace, tmp_path, monkeypatch):
    """qc holds one pair at a time: pair k + 1 is read after pair k's Dice."""
    root, _head, _subject = workspace
    subj = root / "subj.nii.gz"
    copies = [shutil.copy(subj, tmp_path / f"s{k}.nii.gz") for k in range(3)]
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"{c} {subj}\n" for c in copies))
    events = []
    real_read, real_dice = nifti.read_nifti, evaluation.dice

    def read_nifti(path):
        events.append(("read", Path(path).name))
        return real_read(path)

    def dice(a, b):
        events.append(("dice", None))
        return real_dice(a, b)

    monkeypatch.setattr(nifti, "read_nifti", read_nifti)
    monkeypatch.setattr(evaluation, "dice", dice)
    assert main(["qc", str(manifest)]) == 0
    assert events == [
        event
        for k in range(3)
        for event in (("read", f"s{k}.nii.gz"), ("read", "subj.nii.gz"), ("dice", None))
    ]


def test_qc_reads_each_pair_after_freeing_the_last(workspace, tmp_path, monkeypatch):
    """The manifest reader keeps no reference to a pair it handed out: when
    pair k + 1's original is read, pair k's volumes are gone."""
    root, _head, _subject = workspace
    subj = root / "subj.nii.gz"
    copies = [shutil.copy(subj, tmp_path / f"s{k}.nii.gz") for k in range(3)]
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("".join(f"{c} {subj}\n" for c in copies))
    volumes, alive_at_read = [], []
    real_read = nifti.read_nifti

    def read_nifti(path):
        if Path(path) != subj:  # the original, first of its pair
            alive_at_read.append(sum(ref() is not None for ref in volumes))
        volume, sidecar = real_read(path)
        volumes.append(weakref.ref(volume))
        return volume, sidecar

    monkeypatch.setattr(nifti, "read_nifti", read_nifti)
    assert main(["qc", str(manifest)]) == 0
    assert alive_at_read == [0, 0, 0]


def test_qc_empty_manifest_exit_2(tmp_path, capsys):
    manifest = tmp_path / "empty.txt"
    manifest.write_text("# nothing but comments\n\n")
    assert main(["qc", str(manifest)]) == 2
    assert "empty manifest" in capsys.readouterr().err


def test_qc_malformed_manifest_exit_2(tmp_path):
    manifest = tmp_path / "bad.txt"
    manifest.write_text("only_one_path\n")
    assert main(["qc", str(manifest)]) == 2


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_below_one_is_usage_error(workspace, tmp_path, capsys, jobs):
    root, _head, _subject = workspace
    with pytest.raises(SystemExit) as exc:
        main(_deface_args(root, tmp_path, [str(root / "subj.nii.gz")],
                          extra=["--jobs", jobs]))
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_deface_inputs_sharing_outputs_fail_before_any_work(workspace, tmp_path, capsys):
    """Two inputs whose outputs would land on the same paths, from two
    directories into one --output-dir or one input listed twice, are a
    usage error that names both, and nothing is written."""
    root, _head, _subject = workspace
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        shutil.copy(root / "subj.nii.gz", tmp_path / d / "subj.nii.gz")
    a, b = str(tmp_path / "a" / "subj.nii.gz"), str(tmp_path / "b" / "subj.nii.gz")
    for inputs in ([a, b], [a, a]):
        argv = _deface_args(root, tmp_path / "out", inputs, extra=["--jobs", "2"])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {inputs[0]} and {inputs[1]} would write" in err
    assert not (tmp_path / "out").exists()


def _small_pack(root, size):
    """A template pack of the nominal head at size^3, written into root, and
    that head's volume as a subject file."""
    head = synthetic.nominal_head(size)
    pack = defacing.make_template_pack(head.volume)
    sc = nifti.sidecar_for_dtype(np.float32)
    nifti.write_nifti(pack.template, sc, root / "template.nii.gz")
    nifti.write_mask(pack.keep_mask, root / "template_keep.nii.gz")
    nifti.write_nifti(head.volume, sc, root / "subj.nii.gz")
    return root / "subj.nii.gz"


def test_deface_provenance_records_bins_and_samples(tmp_path):
    """Provenance records the histogram bins and the sampling seed, both
    constants, and each level's sample count, that of the pack's prepared
    template's level."""
    subj = _small_pack(tmp_path, 32)
    out = tmp_path / "out"
    assert main(_deface_args(tmp_path, out, [str(subj)])) == 0
    reg = json.loads((out / "subj_prov.json").read_text())["registration"]
    assert reg["bins"] == 32 and reg["seed"] == 0
    pack = cli._load_pack(tmp_path / "template.nii.gz", tmp_path / "template_keep.nii.gz")
    assert [lv["samples"] for lv in reg["levels"]] == [lv.fgT.shape[1] for lv in pack.fixed.levels]


def test_deface_template_too_small_to_sample_exits_1(tmp_path, capsys):
    """A 16^3 template has no sample on the coarsest pyramid grid: deface
    reports it as one error line, with no traceback, and writes nothing."""
    subj = _small_pack(tmp_path, 16)
    out = tmp_path / "out"
    assert main(_deface_args(tmp_path, out, [str(subj)])) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "factor 4" in err
    assert "Traceback" not in err
    assert not out.exists()


_MINIMAL_ARGV = {
    "deface": ["deface", "in.nii", "--template", "t.nii", "--face-mask", "k.nii"],
    "quickshear": ["quickshear", "in.nii", "--brain-mask", "m.nii"],
    "qc": ["qc", "manifest.txt"],
    "make-template-pack": ["make-template-pack", "t.nii"],
    "phantom": ["phantom"],
}


@pytest.mark.parametrize("command, flag, value", [
    *(("deface", "--margin-mm", v) for v in ("-5", "nan", "inf")),
    *(("quickshear", "--buffer-mm", v) for v in ("-5", "nan", "-inf")),
    *(("make-template-pack", "--buffer-mm", v) for v in ("-0.5", "nan", "inf")),
    *(("make-template-pack", "--face-dilate-mm", v) for v in ("-3", "nan", "inf")),
    *(("qc", "--threshold", v) for v in ("-0.1", "1.5", "nan", "inf")),
    ("phantom", "--seed", "-1"),
    *(("phantom", "--size", v) for v in ("0", "-3", "1")),
])
def test_unsafe_geometry_value_is_usage_error(capsys, command, flag, value):
    """A negative or non-finite distance, a Dice threshold outside [0, 1],
    a negative seed or a phantom edge below 2 voxels exits 2 before any
    file is read or written."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*_MINIMAL_ARGV[command], f"{flag}={value}"])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("deface", "--margin-mm", 0.0),
    ("quickshear", "--buffer-mm", 0.0),
    ("make-template-pack", "--face-dilate-mm", 0.0),
    ("qc", "--threshold", 0.0),
    ("qc", "--threshold", 1.0),
    ("phantom", "--seed", 0),
    ("phantom", "--size", 2),
])
def test_geometry_value_at_its_limit_parses(command, flag, value):
    args = build_parser().parse_args([*_MINIMAL_ARGV[command], flag, str(value)])
    assert getattr(args, flag[2:].replace("-", "_")) == value


@pytest.mark.parametrize("command, flag, parses", [
    ("quickshear", "--jobs", False),
    ("quickshear", "--seed", False),
    ("qc", "--jobs", False),
    ("qc", "--seed", False),
    ("qc", "--brain-mask", False),
    ("qc", "--stripped", False),
    ("deface", "--threshold", False),
    ("deface", "--stripped", False),
    ("make-template-pack", "--stripped", False),
    ("make-template-pack", "--jobs", False),
    ("make-template-pack", "--seed", False),
    ("phantom", "--jobs", False),
    ("deface", "--bins", False),
    ("deface", "--seed", False),
    ("deface", "--jobs", True),
    ("phantom", "--seed", True),
    *((command, "--verbose", True) for command in _MINIMAL_ARGV),
])
def test_flags_exist_only_where_read(capsys, command, flag, parses):
    value = [] if flag == "--verbose" else ["2"]
    argv = [*_MINIMAL_ARGV[command], flag, *value]
    if parses:
        args = build_parser().parse_args(argv)
        assert getattr(args, flag[2:]) == (2 if value else True)
        return
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


def test_make_template_pack_brain_only_all_ones(workspace, tmp_path):
    root, head, _subject = workspace
    from defacepipe.brain_extraction import fallback_extract

    stripped = apply_mask(head.volume, fallback_extract(head.volume))
    nifti.write_nifti(
        stripped, nifti.sidecar_for_dtype(np.float32), tmp_path / "brainonly.nii.gz"
    )
    code = main([
        "make-template-pack", str(tmp_path / "brainonly.nii.gz"),
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    keep, _ = nifti.read_nifti(tmp_path / "brainonly_keepmask.nii.gz")
    assert np.all(keep.data == 1)


def test_make_template_pack_head_removes_face(workspace, tmp_path):
    root, head, _subject = workspace
    nifti.write_nifti(
        head.volume, nifti.sidecar_for_dtype(np.float32), tmp_path / "head.nii.gz"
    )
    code = main([
        "make-template-pack", str(tmp_path / "head.nii.gz"),
        "--output-dir", str(tmp_path),
    ])
    assert code == 0
    keep, _ = nifti.read_nifti(tmp_path / "head_keepmask.nii.gz")
    assert (keep.data == 0).sum() > 0
    assert np.all(keep.data[head.brain_mask.data] == 1)


def test_make_template_pack_2d_input_exit_2(tmp_path, capsys):
    import struct

    from test_nifti import build_nifti_bytes

    raw = bytearray(build_nifti_bytes(np.zeros((4, 4, 1), dtype=np.float32)))
    struct.pack_into("<8h", raw, 40, 2, 4, 4, 1, 1, 1, 1, 1)
    path = tmp_path / "flat.nii"
    path.write_bytes(raw)
    assert main(["make-template-pack", str(path)]) == 2


def test_phantom_command(tmp_path):
    code = main(["phantom", "--size", "32", "--output-dir", str(tmp_path)])
    assert code == 0
    vol, _ = nifti.read_nifti(tmp_path / "phantom.nii.gz")
    assert vol.dims == (32, 32, 32)
    mask, _ = nifti.read_nifti(tmp_path / "phantom_brainmask.nii.gz")
    assert set(np.unique(mask.data)).issubset({0, 1})


ARTIFACTS = ("_defaced.nii.gz", "_brainsafe.nii.gz", "_xfm.txt", "_prov.json")


def _subjects(head, directory, seeds):
    sc = nifti.sidecar_for_dtype(np.float32)
    paths = []
    for seed in seeds:
        p = directory / f"s{seed}.nii.gz"
        nifti.write_nifti(synthetic.random_subject(head, seed=seed).volume, sc, p)
        paths.append(p)
    return paths


def _artifact(path):
    if path.name.endswith("_prov.json"):
        prov = json.loads(path.read_text())
        prov.pop("timing")
        prov.pop("input")
        return prov
    return path.read_bytes()


def test_jobs_parallel_matches_serial(workspace, tmp_path):
    """Three inputs on two workers: one worker defaces two subjects against
    the template prepared once, and every artifact matches the serial run."""
    root, head, _subject = workspace
    inputs = [str(p) for p in _subjects(head, tmp_path, (11, 12, 13))]
    out1 = tmp_path / "serial"
    out2 = tmp_path / "parallel"
    assert main(_deface_args(root, out1, inputs, extra=["--jobs", "1"])) == 0
    assert main(_deface_args(root, out2, inputs, extra=["--jobs", "2"])) == 0
    assert multiprocessing.active_children() == []  # workers joined on return
    for seed in (11, 12, 13):
        for suffix in ARTIFACTS:
            name = f"s{seed}{suffix}"
            assert _artifact(out1 / name) == _artifact(out2 / name), name


def test_deface_jobs_prepares_the_template_once_in_the_parent(workspace, tmp_path, monkeypatch):
    """Two inputs on two workers: the pack's template is prepared once, in
    this process before the pool forks, and no worker prepares it again."""
    root, head, _subject = workspace
    inputs = [str(p) for p in _subjects(head, tmp_path, (51, 52))]
    pids = tmp_path / "prepared_by.txt"
    real_prepare = defacing.prepare

    def prepare(template):
        with pids.open("a") as f:
            f.write(f"{os.getpid()}\n")
        return real_prepare(template)

    monkeypatch.setattr(defacing, "prepare", prepare)
    assert main(_deface_args(root, tmp_path / "out", inputs, extra=["--jobs", "2"])) == 0
    assert pids.read_text().splitlines() == [str(os.getpid())]


def test_deface_dead_worker_fails_pending_files(workspace, tmp_path, monkeypatch, capsys):
    root, head, _subject = workspace
    paths = _subjects(head, tmp_path, (21, 22, 23))
    doomed, _ = nifti.read_nifti(paths[1])
    real_deface = cli.deface

    def deface(volume, *args):
        if np.array_equal(volume.data, doomed.data):
            os._exit(3)
        return real_deface(volume, *args)

    monkeypatch.setattr(cli, "deface", deface)
    out = tmp_path / "out"
    code = main(_deface_args(root, out, [str(p) for p in paths], extra=["--jobs", "2"]))
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: {paths[1]}:" in err
    for p in paths:
        finished = (out / f"{p.name[:-7]}_prov.json").exists()
        assert finished != (f"error: {p}:" in err), p


def test_deface_worker_killed_mid_write_leaves_no_temporary_file(
    workspace, tmp_path, monkeypatch, capsys
):
    """A worker that dies inside atomic_file fails its input, and the
    hidden temporary file it was writing is removed after the pool joins."""
    root, head, _subject = workspace
    good, doomed = _subjects(head, tmp_path, (41, 42))
    out = tmp_path / "out"
    real_save = geometry.save_transform

    def save_transform(t, path):
        if Path(path).name == "s42_xfm.txt":
            with nifti.atomic_file(Path(path)) as f:
                f.write(b"half a transform")
                os._exit(3)
        real_save(t, path)

    monkeypatch.setattr(geometry, "save_transform", save_transform)
    code = main(_deface_args(root, out, [str(good), str(doomed)], extra=["--jobs", "1"]))
    assert code == 1
    assert f"error: {doomed}:" in capsys.readouterr().err
    assert not [f for f in os.listdir(out) if f.startswith(".")]


def test_deface_failed_subject_leaves_no_provenance(workspace, tmp_path, monkeypatch, capsys):
    """Provenance is written last, so a subject that fails while writing its
    artifacts has none, not even one left from an earlier run."""
    root, head, _subject = workspace
    good, bad = _subjects(head, tmp_path, (31, 32))
    out = tmp_path / "out"
    out.mkdir()
    (out / "s32_prov.json").write_text("{}")  # an earlier run's marker
    real_save = geometry.save_transform

    def save_transform(t, path):
        if Path(path).name == "s32_xfm.txt":
            raise OSError("disk full")
        real_save(t, path)

    monkeypatch.setattr(geometry, "save_transform", save_transform)
    code = main(_deface_args(root, out, [str(good), str(bad)], extra=["--jobs", "2"]))
    assert code == 1
    assert f"error: {bad}: disk full" in capsys.readouterr().err
    assert not (out / "s32_prov.json").exists()
    for suffix in ARTIFACTS:
        assert (out / f"s31{suffix}").exists()
    assert not [f for f in os.listdir(out) if f.startswith(".")]
