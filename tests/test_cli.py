"""File formats, exit codes, and the generate/fit/eval/sweep/scree commands
driven in-process through main()."""

import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tensortopics import GenSpec, estimator, generate, spectral
from tensortopics.cli import (
    derive_seed,
    main,
    read_count_tensor,
    read_model,
    write_count_tensor,
    write_model,
)
from tensortopics.errors import DataFormatError

from helpers import planted, run_fresh, run_python


# ------------------------------------------------------------ file formats


def test_count_tensor_round_trip_omits_zeros(tmp_path):
    inst = planted((4, 3, 12), (2, 2, 2), doc_length=9, seed=80)
    path = tmp_path / "toy.counts.txt"
    write_count_tensor(path, inst.counts, 9)
    text = path.read_text().splitlines()
    assert text[0] == "4 3 12 9"
    assert len(text) == 1 + int((inst.counts > 0).sum())
    back, m = read_count_tensor(path)
    assert m == 9
    np.testing.assert_array_equal(back, inst.counts)


def test_count_tensor_duplicates_accumulate(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("2 2 2 5\n1 1 1 2\n1 1 1 3\n")
    counts, m = read_count_tensor(path)
    assert counts[0, 0, 0] == 5
    assert m == 5


def _count_file_reference(counts, doc_length):
    """The count file formatted record by record, the writer's reference."""
    return "".join([" ".join(map(str, (*counts.shape, doc_length))) + "\n"]
                   + [f"{i + 1} {j + 1} {r + 1} {counts[i, j, r]}\n"
                      for i, j, r in np.argwhere(counts)])


@given(arrays(np.int64, array_shapes(min_dims=3, max_dims=3, max_side=4),
              elements=st.integers(0, 2 ** 63 - 1) | st.integers(0, 3)),
       st.integers(1, 10 ** 6))
@example(np.zeros((1, 1, 1), dtype=np.int64), 1)
@example(np.zeros((3, 1, 2), dtype=np.int64), 7)
@settings(max_examples=60, deadline=None, database=None)
def test_count_tensor_round_trip_property(counts, doc_length):
    """Writing then reading any int tensor gives it back exactly; the file
    matches the per-record reference formatting byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.txt"
        write_count_tensor(path, counts, doc_length)
        assert path.read_text() == _count_file_reference(counts, doc_length)
        back, m = read_count_tensor(path)
    assert m == doc_length
    assert back.dtype == np.int64
    np.testing.assert_array_equal(back, counts)


@pytest.mark.parametrize("shape", [(11, 200, 300), (3, 600, 500)],
                         ids=["ragged-blocks", "one-row-blocks"])
def test_blocked_count_writer_matches_the_whole_tensor_formatting(tmp_path, shape):
    """Blocks of mode-1 rows choose their own field widths, and the bytes stay
    those of the per-record formatting.  11 rows of 200 x 300 cells run
    as blocks of 4, 4 and 3 rows, where row indices reach two digits; a row of
    600 x 500 cells exceeds 2**18 and is a block of its own."""
    rng = np.random.default_rng(84)
    counts = rng.integers(0, 30, size=shape) * (rng.uniform(size=shape) < 0.1)
    counts[1, 5, 7] = 10 ** 15
    path = tmp_path / "counts.txt"
    write_count_tensor(path, counts, 40)
    assert path.read_bytes() == _count_file_reference(counts, 40).encode()


@pytest.mark.parametrize("value", [2.5, np.inf, np.nan])
def test_count_writer_refuses_counts_that_are_not_integers(tmp_path, value):
    counts = np.ones((2, 2, 3))
    counts[1, 0, 2] = value
    with pytest.raises(DataFormatError, match="^counts must have an integer dtype, got float64$"):
        write_count_tensor(tmp_path / "counts.txt", counts, 5)


def test_count_writer_memory_does_not_grow_with_the_tensor(tmp_path):
    """A dense tensor is written by blocks of 2**18 cells: three times the
    rows take no more memory (formatting them at once took about 120 bytes a
    cell, 260 MB for the larger tensor)."""
    rng = np.random.default_rng(85)
    peaks = []
    for rows in (12, 36):
        counts = rng.integers(1, 40, size=(rows, 150, 400))
        tracemalloc.start()
        try:
            write_count_tensor(tmp_path / "counts.txt", counts, 2000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.05 * peaks[0]
    assert peaks[1] < 48e6


def test_count_tensor_reads_shuffled_split_records(tmp_path):
    """Shuffled records, counts split over duplicates, blank lines and CRLF
    read back to the tensor of the canonical file."""
    inst = planted((6, 5, 14), (2, 2, 2), doc_length=25, seed=83)
    canonical = tmp_path / "canonical.txt"
    write_count_tensor(canonical, inst.counts, 25)
    rng = np.random.default_rng(83)
    records = []
    for i, j, r in np.argwhere(inst.counts):
        count = int(inst.counts[i, j, r])
        part = int(rng.integers(0, count + 1))
        records += [f"{i + 1} {j + 1} {r + 1} {part}",
                    f" {i + 1}\t{j + 1} {r + 1} {count - part} "]
    records = [records[k] for k in rng.permutation(len(records))]
    for k in sorted(rng.choice(len(records), size=10, replace=False), reverse=True):
        records.insert(k, " " * int(k % 3))
    messy = tmp_path / "messy.txt"
    messy.write_bytes(("\r\n".join(["", "6 5 14 25"] + records) + "\r\n\r\n").encode())
    back, m = read_count_tensor(messy)
    canonical_back, _ = read_count_tensor(canonical)
    assert m == 25
    np.testing.assert_array_equal(back, canonical_back)
    np.testing.assert_array_equal(back, inst.counts)


@pytest.mark.parametrize("body,fragment", [
    ("2 2 2\n", "line 1"),
    ("2 2 2 5\n1 1 1 x\n", "line 2"),
    ("2 2 2 5\n3 1 1 4\n", "line 2"),
    ("2 2 2 5\n1 1 1 -4\n", "line 2"),
    ("0 2 2 5\n", "line 1"),
    ("", "empty"),
    ("2 2 2 5\n1.0 1 1 1\n", "line 2: all fields must be integers"),
    ("2 2 2 5\n# 1 1 1\n", "line 2: all fields must be integers"),
    ("2 2 2 5\n1_0 1 1 1\n", "line 2: all fields must be integers"),
    ("2 2 2 5\n1 1 \uff14 1\n", "line 2: all fields must be integers"),
    ("2 2 2 5\n1 1 1 2\n2 2 2 1\n2 1 2\n", "line 4: expected 4 fields, found 3"),
    ("\n2 2 2 5\n\n \n1 1 1 2\n\n1 1 1 -1\n", "line 7: negative count"),
])
def test_count_tensor_parse_errors_name_the_line(tmp_path, body, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataFormatError) as err:
        read_count_tensor(path)
    assert fragment in str(err.value)


@pytest.mark.parametrize("body,fragment", [
    ("2 2 2 5\n1 1 1 99999999999999999999\n", "line 2: a field lies outside"),
    ("100000 100000 100000 5\n", "line 1: a 100000 x 100000 x 100000 count tensor is too big"),
    ("2 2 2 5\n1 1 1 9223372036854775807\n2 1 1 1\n\n1 1 1 1\n",
     "line 5: accumulated count exceeds"),
    ("2 2 2 5\n" + "1 1 1 9223372036854775807\n" * 3, "line 3: accumulated count exceeds"),
])
def test_count_file_beyond_limits_is_exit_3_naming_the_line(tmp_path, capsys, body, fragment):
    path = tmp_path / "huge.txt"
    path.write_text(body)
    assert main(["fit", "--data", str(path), "--ranks", "2,2,2",
                 "--out", str(tmp_path / "f")]) == 3
    assert f"{path}: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["4\u01ff", "\u0903", "\U000983bc"])
def test_count_file_with_a_non_ascii_letter_names_the_line(tmp_path, field):
    """numpy's integer parser takes some non-ASCII letters for digits ("4" then
    U+01FF reads as 503) and can crash on others, so none reaches it."""
    path = tmp_path / "letters.txt"
    path.write_text(f"2 2 2 5\n1 1 1 2\n2 1 1 {field}\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: line 3: all fields must be "
                                                        "integers")):
        read_count_tensor(path)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_count_file_named_like_a_compressed_file_is_exit_3(tmp_path, capsys, suffix):
    """numpy's parser opens these names through a decompressor."""
    path = tmp_path / f"counts{suffix}"
    path.write_text("2 2 2 5\n1 1 1 2\n")
    assert main(["fit", "--data", str(path), "--ranks", "1,1,2", "--out", str(tmp_path / "f")]) == 3
    assert f"{path}: a count file name must not end in {suffix}" in capsys.readouterr().err


def test_count_file_may_separate_fields_by_unicode_whitespace(tmp_path):
    path = tmp_path / "spaces.txt"
    path.write_text("2 2 2 5\n1\u30001 1\u00a02\n\u2003\n2 1 1 3\n", encoding="utf-8")
    counts, doc_length = read_count_tensor(path)
    assert (counts[0, 0, 0], counts[1, 0, 0], counts.sum(), doc_length) == (2, 3, 5, 5)


_FIELDS = st.one_of(st.integers(-1, 4).map(str), st.sampled_from(
    ["x", "1.0", "+2", "-0", "", "#", "1_0", "4\u01ff", "\uff14", "\U000983bc",
     "9223372036854775807", "9223372036854775808"]))
_LINES = st.one_of(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
              st.integers(-1, 2 ** 63 - 1)).map(lambda fields: " ".join(map(str, fields))),
    st.lists(st.tuples(_FIELDS, st.sampled_from([" ", "\t", "\u3000", "\x0b"])),
             max_size=5).map(lambda pairs: "".join(f + sep for f, sep in pairs)))
_NEAR_VALID = st.tuples(
    st.tuples(st.integers(0, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 9)),
    st.lists(st.tuples(_LINES, st.sampled_from(["\n", "\r\n", "\r", "\n\n"])), max_size=6),
    st.sampled_from([b"", b"\xff", b"\xc3"]),
).map(lambda parts: (" ".join(map(str, parts[0])) + "\n"
                     + "".join(line + end for line, end in parts[1])).encode() + parts[2])


@given(st.binary(max_size=48) | _NEAR_VALID)
@example(b"")
@example(b"\xff")
@example(b"2 2 2 5\n1 1 1 \xf2\x98\x83\xbc\n")
@settings(max_examples=300, deadline=None, database=None)
def test_count_file_fuzz_reads_or_names_the_file(data):
    """Any bytes give back counts or a ``DataFormatError`` that starts with
    the path: no other exception and no warning."""
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        path = Path(tmp) / "fuzz.txt"
        path.write_bytes(data)
        try:
            counts, doc_length = read_count_tensor(path)
        except DataFormatError as err:
            assert str(err).startswith(f"{path}: ")
        else:
            assert counts.dtype == np.int64 and counts.ndim == 3 and counts.min() >= 0
            assert doc_length >= 1


def test_model_json_round_trip_is_bit_faithful(tmp_path):
    inst = planted((5, 4, 11), (2, 2, 3), doc_length=20, seed=81)
    path = tmp_path / "truth.json"
    write_model(path, inst.model)
    back = read_model(path)
    np.testing.assert_array_equal(back.a1, inst.model.a1)
    np.testing.assert_array_equal(back.a2, inst.model.a2)
    np.testing.assert_array_equal(back.a3, inst.model.a3)
    np.testing.assert_array_equal(back.g, inst.model.g)


def test_model_json_shape_mismatch(tmp_path):
    inst = planted((5, 4, 11), (2, 2, 3), doc_length=20, seed=81)
    path = tmp_path / "truth.json"
    write_model(path, inst.model)
    payload = json.loads(path.read_text())
    payload["dims"] = [5, 4, 10]
    path.write_text(json.dumps(payload))
    with pytest.raises(DataFormatError):
        read_model(path)


def test_derive_seed_is_stable_and_distinct():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(8, 1, 2) != derive_seed(7, 1, 2)


# ------------------------------------------------------------- subcommands


def _spec_file(tmp_path, **overrides):
    spec = {"dims": [20, 10, 40], "ranks": [2, 2, 3], "doc_length": 200,
            "seed": 11}
    spec.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_generate_fit_eval_pipeline(tmp_path, capsys):
    spec = _spec_file(tmp_path)
    out = tmp_path / "run"
    assert main(["generate", "--spec", str(spec), "--out", str(out)]) == 0
    for suffix in ("counts.txt", "truth.json", "manifest.json"):
        assert (tmp_path / f"run.{suffix}").exists()

    fit_out = tmp_path / "fitted"
    assert main(["fit", "--data", f"{out}.counts.txt", "--ranks", "2,2,3",
                 "--out", str(fit_out)]) == 0
    diag = json.loads((tmp_path / "fitted.diagnostics.json").read_text())
    assert set(diag) == {"vocab", "q0", "vertices", "eigvals"}
    assert min(diag["vocab"]) >= 1  # reported 1-based
    assert len(diag["q0"]) == 3

    assert main(["eval", "--model", f"{fit_out}.model.json",
                 "--truth", f"{out}.truth.json",
                 "--out", str(tmp_path / "scores")]) == 0
    lines = (tmp_path / "scores.losses.csv").read_text().splitlines()
    assert lines[0] == "loss_a1,loss_a2,loss_a3,loss_g,recon_l1"
    values = [float(v) for v in lines[1].split(",")]
    assert all(np.isfinite(values)) and len(values) == 5

    # eval without --out prints the same CSV to stdout
    capsys.readouterr()
    assert main(["eval", "--model", f"{fit_out}.model.json",
                 "--truth", f"{out}.truth.json"]) == 0
    stdout = capsys.readouterr().out.splitlines()
    assert stdout[0] == "loss_a1,loss_a2,loss_a3,loss_g,recon_l1"
    assert stdout[1] == lines[1]


def test_pipeline_outputs_are_reproducible(tmp_path):
    spec = _spec_file(tmp_path)
    for name in ("one", "two"):
        out = tmp_path / name
        main(["generate", "--spec", str(spec), "--out", str(out)])
        main(["fit", "--data", f"{out}.counts.txt", "--ranks", "2,2,3",
              "--out", str(tmp_path / f"{name}F")])
    assert (tmp_path / "one.counts.txt").read_bytes() == \
        (tmp_path / "two.counts.txt").read_bytes()
    assert (tmp_path / "oneF.model.json").read_bytes() == \
        (tmp_path / "twoF.model.json").read_bytes()


def test_generate_seed_flag_overrides_spec(tmp_path):
    spec = _spec_file(tmp_path)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "a")])
    main(["generate", "--spec", str(spec), "--seed", "99",
          "--out", str(tmp_path / "b")])
    assert (tmp_path / "a.counts.txt").read_text() != \
        (tmp_path / "b.counts.txt").read_text()
    direct = generate(GenSpec(dims=(20, 10, 40), ranks=(2, 2, 3),
                              doc_length=200, seed=99))
    counts, _ = read_count_tensor(tmp_path / "b.counts.txt")
    np.testing.assert_array_equal(counts, direct.counts)


def test_fit_config_file_with_flag_override(tmp_path):
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    cfg = tmp_path / "fit.json"
    cfg.write_text(json.dumps({"ranks": [2, 2, 3], "sparse_c_prime": 0.0}))
    assert main(["fit", "--data", str(tmp_path / "g.counts.txt"),
                 "--config", str(cfg), "--out", str(tmp_path / "f1")]) == 0
    manifest = json.loads((tmp_path / "f1.manifest.json").read_text())
    assert manifest["parameters"]["sparse_c_prime"] == 0.0
    assert main(["fit", "--data", str(tmp_path / "g.counts.txt"),
                 "--config", str(cfg), "--sparse", "0.01",
                 "--out", str(tmp_path / "f2")]) == 0
    manifest = json.loads((tmp_path / "f2.manifest.json").read_text())
    assert manifest["parameters"]["sparse_c_prime"] == 0.01


def test_sweep_writes_deterministic_tables(tmp_path):
    grid = {
        "seed": 3,
        "trials": 2,
        "cells": [
            {"label": "tiny", "dims": [12, 8, 25], "ranks": [2, 2, 2],
             "doc_length": 80},
            {"label": "hooi", "dims": [12, 8, 25], "ranks": [2, 2, 2],
             "doc_length": 80, "fit": {"use_hooi": True, "hooi_iters": 2}},
        ],
    }
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["sweep", "--grid", str(grid_path),
                 "--out", str(tmp_path / "s1")]) == 0
    assert main(["sweep", "--grid", str(grid_path),
                 "--out", str(tmp_path / "s2")]) == 0
    assert (tmp_path / "s1.trials.csv").read_bytes() == \
        (tmp_path / "s2.trials.csv").read_bytes()
    assert (tmp_path / "s1.summary.csv").read_bytes() == \
        (tmp_path / "s2.summary.csv").read_bytes()
    trials = (tmp_path / "s1.trials.csv").read_text().splitlines()
    assert trials[0].startswith("label,cell,trial,seed,loss_a1")
    assert len(trials) == 1 + 4
    summary = (tmp_path / "s1.summary.csv").read_text().splitlines()
    assert len(summary) == 1 + 2
    # trial seeds come from the documented derivation
    row = trials[1].split(",")
    assert int(row[3]) == derive_seed(3, 0, 0)


def test_sweep_summary_is_the_median_and_iqr_of_the_trials(tmp_path):
    grid = {"seed": 5, "trials": 4, "cells": [
        {"label": "a", "dims": [12, 8, 25], "ranks": [2, 2, 2], "doc_length": 80},
        {"label": "b", "dims": [10, 8, 20], "ranks": [2, 2, 2], "doc_length": 40},
        {"dims": [12, 8, 25], "ranks": [2, 2, 2], "doc_length": 80, "fit": {"use_hooi": True}},
    ]}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["sweep", "--grid", str(grid_path), "--out", str(tmp_path / "s")]) == 0
    trials = [line.split(",") for line in (tmp_path / "s.trials.csv").read_text().splitlines()]
    summary = [line.split(",") for line in (tmp_path / "s.summary.csv").read_text().splitlines()]
    assert [row[:3] for row in trials[1:]] == [[label, str(ci), str(ti)] for ci, label in
                                               enumerate(["a", "b", "cell2"]) for ti in range(4)]
    assert [row[0] for row in summary[1:]] == ["a", "b", "cell2"]
    for ci, row in enumerate(summary[1:]):
        losses = np.array([[float(v) for v in t[4:]] for t in trials[1:] if t[1] == str(ci)])
        q25, q75 = np.percentile(losses, [25.0, 75.0], axis=0)
        expected = np.stack([np.median(losses, axis=0), q75 - q25], axis=-1).ravel()
        assert [float(v) for v in row[9:]] == expected.tolist()


def test_sweep_parallel_matches_serial(tmp_path):
    grid = {"seed": 3, "trials": 2, "cells": [
        {"label": "tiny", "dims": [12, 8, 25], "ranks": [2, 2, 2],
         "doc_length": 80}]}
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(grid))
    assert main(["sweep", "--grid", str(grid_path),
                 "--out", str(tmp_path / "w1")]) == 0
    assert main(["sweep", "--grid", str(grid_path), "--workers", "2",
                 "--out", str(tmp_path / "w2")]) == 0
    assert (tmp_path / "w1.trials.csv").read_bytes() == \
        (tmp_path / "w2.trials.csv").read_bytes()


def test_cli_commands_leave_scipy_unloaded(tmp_path):
    """The program needs only numpy at run time: generate, fit, eval, scree
    and a one-cell sweep, run in turn in a fresh process, import no scipy."""
    spec = _spec_file(tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"trials": 1, "cells": [
        {"dims": [12, 8, 25], "ranks": [2, 2, 2], "doc_length": 80}]}))
    g, f = tmp_path / "g", tmp_path / "f"
    commands = {
        "generate": ["generate", "--spec", str(spec), "--out", str(g)],
        "fit": ["fit", "--data", f"{g}.counts.txt", "--ranks", "2,2,3", "--out", str(f)],
        "eval": ["eval", "--model", f"{f}.model.json", "--truth", f"{g}.truth.json",
                 "--out", str(tmp_path / "e")],
        "scree": ["scree", "--data", f"{g}.counts.txt", "--mode", "3", "--kmax", "5",
                  "--out", str(tmp_path / "sc")],
        "sweep": ["sweep", "--grid", str(grid), "--out", str(tmp_path / "sw")],
    }
    code = ("import sys; from tensortopics.cli import main\n"
            f"for name, argv in {commands!r}.items():\n"
            "    print(name, main(argv), 'scipy' in sys.modules)")
    lines = run_fresh(code).splitlines()
    assert [line for line in lines if line.split()[0] in commands] == \
        [f"{name} 0 False" for name in commands]


def test_scree_csv(tmp_path):
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    assert main(["scree", "--data", str(tmp_path / "g.counts.txt"),
                 "--mode", "3", "--kmax", "6",
                 "--out", str(tmp_path / "sc")]) == 0
    lines = (tmp_path / "sc.scree.csv").read_text().splitlines()
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 7
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)


# -------------------------------------------------------------- exit codes


def test_usage_exit_codes(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fit"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # an integer flag out of its range is refused when parsed, before any file is read
    missing = str(tmp_path / "missing.json")
    for argv, flag, low in [
        (["scree", "--data", missing, "--mode", "3", "--kmax", "0"], "--kmax", 1),
        (["sweep", "--grid", missing, "--workers", "0"], "--workers", 1),
        (["sweep", "--grid", missing, "--workers", "-3"], "--workers", 1),
        (["sweep", "--grid", missing, "--trials", "0"], "--trials", 1),
        (["sweep", "--grid", missing, "--seed", "-1"], "--seed", 0),
        (["generate", "--spec", missing, "--seed", "-1"], "--seed", 0),
        (["fit", "--data", missing, "--ranks", "2,2,2", "--hooi", "-1"], "--hooi", 0),
    ]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert f"argument {flag}: must be at least {low}, got" in capsys.readouterr().err


def test_missing_ranks_is_usage_error(tmp_path):
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    assert main(["fit", "--data", str(tmp_path / "g.counts.txt"),
                 "--out", str(tmp_path / "f")]) == 2


def test_malformed_data_is_exit_3(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n")
    assert main(["fit", "--data", str(bad), "--ranks", "2,2,2",
                 "--out", str(tmp_path / "f")]) == 3
    assert main(["eval", "--model", str(tmp_path / "missing.json"),
                 "--truth", str(tmp_path / "missing.json")]) == 3


def test_eval_of_models_that_disagree_names_both_files(tmp_path, capsys):
    paths = []
    for dims, ranks in (((8, 6, 20), (2, 2, 2)), ((8, 6, 20), (2, 2, 3))):
        paths.append(tmp_path / f"model-{len(paths)}.json")
        write_model(paths[-1], planted(dims, ranks, doc_length=30, seed=83).model)
    assert main(["eval", "--model", str(paths[0]), "--truth", str(paths[1])]) == 3
    assert capsys.readouterr().err == (
        f"data error: {paths[0]} (dims (8, 6, 20), ranks (2, 2, 2)) and {paths[1]} "
        "(dims (8, 6, 20), ranks (2, 2, 3)) disagree on dims or ranks\n")


def test_degenerate_fit_is_exit_4(tmp_path):
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    assert main(["fit", "--data", str(tmp_path / "g.counts.txt"),
                 "--ranks", "2,2,3", "--sparse", "1e9",
                 "--out", str(tmp_path / "f")]) == 4


def test_empty_corpus_is_exit_4(tmp_path, capsys):
    """A count file of only a header holds no mass: with the threshold off
    every word is kept, and the fit is refused instead of solving zero grams."""
    data = tmp_path / "empty.counts.txt"
    data.write_text("4 4 6 10\n")
    assert main(["fit", "--data", str(data), "--ranks", "2,2,2", "--sparse", "0",
                 "--out", str(tmp_path / "f")]) == 4
    assert "vocabulary threshold: the data tensor holds no mass" in capsys.readouterr().err
    assert not (tmp_path / "f.model.json").exists()


def test_hooi_rank_beyond_projected_span_is_exit_3(tmp_path, capsys):
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    assert main(["fit", "--data", str(tmp_path / "g.counts.txt"),
                 "--ranks", "5,2,2", "--hooi", "1",
                 "--out", str(tmp_path / "f")]) == 3
    assert "exceeds the projected span" in capsys.readouterr().err
    assert not (tmp_path / "f.model.json").exists()


@pytest.mark.parametrize("flags", [["--ranks", "5,2,2"], ["--ranks", "2,2,5", "--hooi", "0"]])
def test_rank_beyond_projected_span_is_exit_3_with_or_without_hooi(tmp_path, capsys, flags):
    code = main(["fit", "--data", str(_tiny_counts(tmp_path)), *flags,
                 "--out", str(tmp_path / "f")])
    assert code == 3
    assert "rank 5 exceeds the projected span 4" in capsys.readouterr().err
    assert not (tmp_path / "f.model.json").exists()


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("ranks, mode, dim", [((9, 2, 3), 1, 8), ((2, 7, 3), 2, 6),
                                              ((2, 2, 21), 3, 20)])
def test_rank_above_the_dimension_is_usage_error_naming_the_file(tmp_path, capsys, via,
                                                                  ranks, mode, dim):
    data = _tiny_counts(tmp_path)
    if via == "flag":
        request = ["--ranks", ",".join(map(str, ranks))]
    else:
        config = tmp_path / "fit.json"
        config.write_text(json.dumps({"ranks": list(ranks)}))
        request = ["--config", str(config)]
    assert main(["fit", "--data", str(data), *request, "--out", str(tmp_path / "f")]) == 2
    value = ranks[mode - 1]
    assert capsys.readouterr().err == \
        f"usage error: {data}: mode {mode} rank {value} exceeds dimension {dim}\n"
    assert not (tmp_path / "f.model.json").exists()


@pytest.mark.parametrize("mode, dim", [(1, 8), (2, 6), (3, 20)])
def test_scree_kmax_above_the_dimension_is_usage_error_naming_the_file(tmp_path, capsys,
                                                                        mode, dim):
    data = _tiny_counts(tmp_path)
    assert main(["scree", "--data", str(data), "--mode", str(mode), "--kmax", str(dim + 1),
                 "--out", str(tmp_path / "s")]) == 2
    assert capsys.readouterr().err == \
        f"usage error: {data}: mode {mode} --kmax {dim + 1} exceeds dimension {dim}\n"
    assert main(["scree", "--data", str(data), "--mode", str(mode), "--kmax", str(dim),
                 "--out", str(tmp_path / "s")]) == 0


def _set_entry(name, value):
    def edit(payload):
        payload[name][0][0] = value
    return edit


@pytest.mark.parametrize("edit", [
    _set_entry("a1", float("nan")),
    _set_entry("a1", -5.0),
    _set_entry("a1", "0.5"),
    lambda payload: payload.update(dims=[8.7, 6, 20]),
], ids=["nan-entry", "negative-entry", "string-entry", "float-dims"])
def test_bad_model_file_is_exit_3_naming_the_file(tmp_path, capsys, edit):
    truth = tmp_path / "truth.json"
    write_model(truth, planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82).model)
    payload = json.loads(truth.read_text())
    edit(payload)
    bad = tmp_path / "bad.model.json"
    bad.write_text(json.dumps(payload))
    assert main(["eval", "--model", str(bad), "--truth", str(truth)]) == 3
    assert f"{bad}: malformed model payload" in capsys.readouterr().err


def _tiny_counts(tmp_path):
    inst = planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82)
    path = tmp_path / "tiny.counts.txt"
    write_count_tensor(path, inst.counts, 30)
    return path


@pytest.mark.parametrize("config", [
    {"ranks": 5},
    {"ranks": [2, 2, 2], "sparse_c_prime": None},
    {"ranks": [2, 2, 2], "use_hooi": "false"},
    {"ranks": [2, 2, 2], "use_hoi": True},
    {"ranks": [2, 2, 2], "sparse_c_prime": 10 ** 400},
    {"ranks": [2, 2, 2], "use_hooi": True, "hooi_iters": -1},
])
def test_bad_fit_config_is_exit_3_naming_the_file(tmp_path, capsys, config):
    data = _tiny_counts(tmp_path)
    cfg = tmp_path / "bad-fit.json"
    cfg.write_text(json.dumps(config))
    code = main(["fit", "--data", str(data), "--config", str(cfg),
                 "--out", str(tmp_path / "f")])
    assert code == 3
    assert str(cfg) in capsys.readouterr().err
    assert not (tmp_path / "f.model.json").exists()


@pytest.mark.parametrize("bad_cell", [
    {"label": "bad", "dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30,
     "fit": {"bogus": 1}},
    [1, 2],
    {"dims": [8, 6, 20], "ranks": [5, 2, 2], "doc_length": 30},
    {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30, "fit": {"ranks": [2, 2, 5]}},
])
def test_bad_sweep_cell_is_exit_3_naming_file_and_cell(tmp_path, capsys, bad_cell):
    good = {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30}
    grid = tmp_path / "bad-grid.json"
    grid.write_text(json.dumps({"cells": [good, bad_cell]}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert str(grid) in err and "cell 1" in err
    assert not (tmp_path / "s.trials.csv").exists()


@pytest.mark.parametrize("override", [
    {"dims": [8.9, 6, 20]},
    {"ranks": [2, 2, 2.5]},
    {"doc_length": 30.5},
    {"seed": "1"},
    {"ranks": [5, 2, 2]},
])
def test_bad_generator_spec_is_exit_3_naming_the_file(tmp_path, capsys, override):
    spec = _spec_file(tmp_path, **override)
    assert main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")]) == 3
    assert str(spec) in capsys.readouterr().err
    assert not (tmp_path / "g.counts.txt").exists()


def test_generate_with_an_underflowing_alpha_is_exit_3_naming_the_file(tmp_path):
    """At alpha 1e-20 every Gamma draw of a row underflows; the command
    stops within seconds instead of drawing for ever."""
    spec = _spec_file(tmp_path, dims=[3, 3, 4], ranks=[2, 2, 2], dirichlet_alpha=1e-20)
    out = run_python("-m", "tensortopics.cli", "generate", "--spec", spec,
                     "--out", tmp_path / "g", timeout=30)
    assert out.returncode == 3
    assert out.stderr == f"data error: {spec}: dirichlet_alpha 1e-20 is too small: " \
        "1000 Gamma draws of one row all underflowed to 0\n"
    assert not (tmp_path / "g.counts.txt").exists()


def test_sweep_with_an_underflowing_alpha_names_grid_cell_and_trial(tmp_path, capsys):
    cell = {"dims": [3, 3, 4], "ranks": [2, 2, 2], "doc_length": 30, "dirichlet_alpha": 1e-20}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [cell]}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == 3
    assert f"data error: {grid}: cell 0, trial 0: dirichlet_alpha 1e-20" in \
        capsys.readouterr().err


@pytest.mark.parametrize("setting", [{"trials": 1.9}, {"trials": "two"}, {"seed": -1},
                                     {"seed": True}])
def test_bad_sweep_settings_are_exit_3_naming_the_file(tmp_path, capsys, setting):
    cell = {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30}
    grid = tmp_path / "bad-grid.json"
    grid.write_text(json.dumps({"cells": [cell], **setting}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == 3
    assert str(grid) in capsys.readouterr().err
    assert not (tmp_path / "s.trials.csv").exists()


def _not_utf8(path):
    path.write_bytes(b'{"dims": [8, 6, 20],\n "seed": "\xff"}\n')
    return path


@pytest.mark.parametrize("kind", ["count file", "model file", "generator spec", "fit config",
                                  "sweep grid"])
def test_file_that_is_not_utf8_is_exit_3_naming_the_file(tmp_path, capsys, kind):
    data = _tiny_counts(tmp_path)
    truth = tmp_path / "truth.json"
    write_model(truth, planted((8, 6, 20), (2, 2, 2), doc_length=30, seed=82).model)
    bad = _not_utf8(tmp_path / "bad.txt")
    out = str(tmp_path / "o")
    argv = {
        "count file": ["fit", "--data", bad, "--ranks", "2,2,2", "--out", out],
        "model file": ["eval", "--model", bad, "--truth", truth],
        "generator spec": ["generate", "--spec", bad, "--out", out],
        "fit config": ["fit", "--data", data, "--config", bad, "--out", out],
        "sweep grid": ["sweep", "--grid", bad, "--out", out],
    }[kind]
    assert main([str(arg) for arg in argv]) == 3
    err = capsys.readouterr().err
    where = f"{bad}: line 2: not UTF-8 text" if kind == "count file" else f"{bad}: cannot read"
    assert err.startswith(f"data error: {where}") and "can't decode byte 0xff" in err


_FIT_KEYS = ["ranks", "use_hooi", "hooi_iters", "sparse_c_prime", "oracle",
             "doc_length", "use_hoi"]
_SMALL_INTS = st.integers(min_value=-2, max_value=9)
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), _SMALL_INTS, st.floats(), st.text(max_size=4),
    st.lists(st.one_of(_SMALL_INTS, st.floats(), st.booleans()), max_size=4))


def test_fit_config_fuzz_exits_cleanly(tmp_path):
    """Any JSON object as a fit config ends in a documented exit code."""
    data = _tiny_counts(tmp_path)
    cfg = tmp_path / "fuzz.json"

    @settings(max_examples=50, deadline=None, database=None)
    @given(st.dictionaries(st.sampled_from(_FIT_KEYS), _JSON_VALUES, max_size=5))
    def run(config):
        cfg.write_text(json.dumps(config))
        code = main(["fit", "--data", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "fz")])
        assert code in (0, 2, 3, 4)

    run()


def test_linalg_failure_is_degenerate_exit_4(tmp_path, capsys, monkeypatch):
    """Lanczos allowed no restart fails on the 40-word gram, where its 20
    basis vectors span less than the whole space; the modes of 20 and 10
    rows fill their space in the first sweep."""
    spec = _spec_file(tmp_path)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    monkeypatch.setattr(spectral, "_MAX_RESTARTS", 0)
    assert main(["fit", "--data", str(tmp_path / "g.counts.txt"), "--ranks", "2,2,3",
                 "--out", str(tmp_path / "f")]) == 4
    err = capsys.readouterr().err
    assert "degenerate fit" in err and "did not converge" in err
    assert "mode 3 eigensolve" in err and "eigenpairs converged in 0 restarts" in err
    assert not (tmp_path / "f.model.json").exists()


def test_full_eigh_failure_is_degenerate_exit_4(tmp_path, capsys, monkeypatch):
    """Mode 2 has 6 rows and rank 5, so its k + 1 pairs take the full eigh.
    Only that 6 x 6 eigh fails: the Lanczos solves of modes 1 and 3 also call
    ``eigh``, on their 8 x 8 and 20 x 20 projected matrices."""
    data = _tiny_counts(tmp_path)
    real_eigh = np.linalg.eigh

    def no_convergence(a, *args, **kwargs):
        if a.shape == (6, 6):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    assert main(["fit", "--data", str(data), "--ranks", "2,5,3",
                 "--out", str(tmp_path / "f")]) == 4
    err = capsys.readouterr().err
    assert "degenerate fit: mode 2 eigensolve did not converge" in err


def test_gram_allocation_failure_is_exit_3_naming_mode_and_size(tmp_path, capsys, monkeypatch):
    data = _tiny_counts(tmp_path)
    real_build_q = estimator.build_q

    def no_memory_for_words(y_mat, mode, *args, **kwargs):
        if mode == 3:
            raise MemoryError
        return real_build_q(y_mat, mode, *args, **kwargs)

    monkeypatch.setattr(estimator, "build_q", no_memory_for_words)
    assert main(["fit", "--data", str(data), "--ranks", "2,2,2",
                 "--out", str(tmp_path / "f")]) == 3
    err = capsys.readouterr().err
    assert re.search(r"data error: mode 3 gram: a (\d+) x \1 matrix is too big to allocate", err)
    assert not (tmp_path / "f.model.json").exists()
    # scree runs the fit's gram stage, so it names the mode and size too
    assert main(["scree", "--data", str(data), "--mode", "3", "--kmax", "2",
                 "--out", str(tmp_path / "s")]) == 3
    assert capsys.readouterr().err == \
        "data error: mode 3 gram: a 20 x 20 matrix is too big to allocate\n"
    assert not (tmp_path / "s.scree.csv").exists()


def test_sweep_trial_failure_names_grid_cell_and_trial(tmp_path, capsys):
    cell = {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30}
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"cells": [cell, {**cell, "fit": {"sparse_c_prime": 1e9}}]}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == 4
    assert f"degenerate fit: {grid}: cell 1, trial 0: vocabulary threshold" in \
        capsys.readouterr().err
