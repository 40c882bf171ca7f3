"""File formats, exit codes, and the generate/fit/eval/sweep/scree commands
driven in-process through main()."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortopics import GenSpec, generate
from tensortopics.cli import (
    derive_seed,
    main,
    read_count_tensor,
    read_model,
    write_count_tensor,
    write_model,
)
from tensortopics.errors import DataFormatError

from helpers import planted


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


@pytest.mark.parametrize("body,fragment", [
    ("2 2 2\n", "line 1"),
    ("2 2 2 5\n1 1 1 x\n", "line 2"),
    ("2 2 2 5\n3 1 1 4\n", "line 2"),
    ("2 2 2 5\n1 1 1 -4\n", "line 2"),
    ("0 2 2 5\n", "line 1"),
    ("", "empty"),
])
def test_count_tensor_parse_errors_name_the_line(tmp_path, body, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(DataFormatError) as err:
        read_count_tensor(path)
    assert fragment in str(err.value)


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


def test_usage_exit_codes(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fit"])  # missing required arguments
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


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


def test_degenerate_fit_is_exit_4(tmp_path):
    spec = _spec_file(tmp_path, dims=[15, 8, 30], doc_length=100)
    main(["generate", "--spec", str(spec), "--out", str(tmp_path / "g")])
    assert main(["fit", "--data", str(tmp_path / "g.counts.txt"),
                 "--ranks", "2,2,3", "--sparse", "1e9",
                 "--out", str(tmp_path / "f")]) == 4


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
])
def test_bad_sweep_cell_is_exit_3_naming_file_and_cell(tmp_path, capsys, bad_cell):
    good = {"dims": [8, 6, 20], "ranks": [2, 2, 2], "doc_length": 30}
    grid = tmp_path / "bad-grid.json"
    grid.write_text(json.dumps({"cells": [good, bad_cell]}))
    assert main(["sweep", "--grid", str(grid), "--out", str(tmp_path / "s")]) == 3
    err = capsys.readouterr().err
    assert str(grid) in err and "cell 1" in err
    assert not (tmp_path / "s.trials.csv").exists()


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
    data = _tiny_counts(tmp_path)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    assert main(["fit", "--data", str(data), "--ranks", "2,2,2",
                 "--out", str(tmp_path / "f")]) == 4
    err = capsys.readouterr().err
    assert "degenerate fit" in err and "did not converge" in err
