"""CLI subcommands, exit codes, and artifact determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orthoadapt
from orthoadapt.cli import main
from orthoadapt.emx import read_emx, write_emx

TINY_CONFIG = {
    "spec": {"dim": 16, "clusters": 4, "samples_per_split": 128, "seed": 0},
    "backbone": {"kind": "attention", "dim": 16, "depth": 1, "seq_len": 4},
    "pretrain": {"max_iters": 300, "seed": 0},
    "train": {"iters": 40, "regime": "svd", "rank": 2, "seed": 0},
    "sweep": {"residual_ranks": [1, 2], "lora_ranks": [], "seeds": [0]},
}


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


@pytest.fixture()
def checkpoint(tmp_path, config_path):
    out = tmp_path / "pre"
    assert main(["pretrain", "--config", str(config_path), "--out", str(out)]) == 0
    return out


def cut_emx(path, rows, cols):
    """Rewrite an EMX file with only its first ``rows`` rows and ``cols``
    columns (None keeps them all)."""
    write_emx(path, read_emx(path)[:rows, :cols])


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestPretrain:
    def test_writes_checkpoint(self, checkpoint):
        assert (checkpoint / "manifest.json").exists()
        assert (checkpoint / "pretrain_trace.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path, config_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert main(["pretrain", "--config", str(config_path), "--out", str(a)]) == 0
        assert main(["pretrain", "--config", str(config_path), "--out", str(b)]) == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"spec": {"dim": 16, "typo_field": 3}}))
        assert main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    def test_refuses_overwrite(self, tmp_path, config_path, checkpoint):
        rc = main(["pretrain", "--config", str(config_path), "--out", str(checkpoint)])
        assert rc == 1
        rc = main(["pretrain", "--config", str(config_path), "--out", str(checkpoint), "--force"])
        assert rc == 0


class TestFinetune:
    def test_end_to_end(self, tmp_path, config_path, checkpoint, capsys):
        out = tmp_path / "ft"
        rc = main(["finetune", "--config", str(config_path), "--checkpoint", str(checkpoint),
                   "--out", str(out), "--regime", "svd", "--rank", "1"])
        assert rc == 0
        printed = capsys.readouterr().out
        # 4 attention matrices at residual rank 1 plus the binary head
        expected = 1 * (2 * 16 + 1) * 4 + (16 * 2 + 2)
        assert f"trainable parameters: {expected}" in printed
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trainable_params"] == expected
        assert set(summary["final_metrics"]) == {"seen", "unseen"}
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,total_loss,real_loss,fake_loss,orth_loss,sv_loss"
        assert len(trace) == 1 + TINY_CONFIG["train"]["iters"]

    def test_lambda_zero_logs_zero_losses(self, tmp_path, config_path, checkpoint):
        out = tmp_path / "ft0"
        rc = main(["finetune", "--config", str(config_path), "--checkpoint", str(checkpoint),
                   "--out", str(out), "--lambda1", "0", "--lambda2", "0"])
        assert rc == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        for row in rows:
            cells = row.split(",")
            assert cells[4] == "0.0" and cells[5] == "0.0"

    def test_rerun_byte_identical(self, tmp_path, config_path, checkpoint):
        a = tmp_path / "fa"
        b = tmp_path / "fb"
        for out in (a, b):
            rc = main(["finetune", "--config", str(config_path), "--checkpoint", str(checkpoint),
                       "--out", str(out)])
            assert rc == 0
        assert tree_bytes(a) == tree_bytes(b)

    def test_missing_checkpoint(self, tmp_path, config_path):
        rc = main(["finetune", "--config", str(config_path), "--checkpoint",
                   str(tmp_path / "nope"), "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_frozen_regime_trains_head_only(self, tmp_path, config_path, checkpoint):
        out = tmp_path / "fr"
        rc = main(["finetune", "--config", str(config_path), "--checkpoint", str(checkpoint),
                   "--out", str(out), "--regime", "linear_probe"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["trainable_params"] == 16 * 2 + 2

    @pytest.mark.parametrize("field,value", [("iters", "5"), ("lr", float("nan"))])
    def test_mistyped_config_value(self, tmp_path, capsys, field, value):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["train"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["finetune", "--config", str(bad), "--checkpoint", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"TrainConfig.{field}" in err and "Traceback" not in err

    def test_divergence_leaves_partial_report(self, tmp_path, checkpoint, capsys):
        # lr 1e200 overflows the attention activations on the second step:
        # model_forward raises NumericalError inside train()'s loop
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["train"]["lr"] = 1e200
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "div"
        capsys.readouterr()
        with np.errstate(all="ignore"):
            rc = main(["finetune", "--config", str(path), "--checkpoint", str(checkpoint),
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "non-finite activations" in err and "Traceback" not in err
        summary = json.loads((out / "summary.json").read_text())
        assert "non-finite activations" in summary["error"]
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + summary["iterations"]
        assert summary["iterations"] < cfg["train"]["iters"]

    def test_overflowing_features_leave_partial_report(self, tmp_path, checkpoint, capsys):
        # lr 1e30 trains every step with finite losses, but the features of
        # the trained model are so large that their covariance overflows in
        # the final effective-rank probe
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["train"]["lr"] = 1e30
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "ovf"
        capsys.readouterr()
        with np.errstate(all="ignore"):
            rc = main(["finetune", "--config", str(path), "--checkpoint", str(checkpoint),
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["error"] == "diverged after training: covariance of the features is not finite"
        assert summary["rank_after"] is None
        trace = (out / "trace.csv").read_text().splitlines()
        assert len(trace) == 1 + summary["iterations"] == 1 + cfg["train"]["iters"]

    @pytest.mark.parametrize("damage", [
        lambda ck, manifest: (ck / "adapters" / "block0.q" / "w.emx").unlink(),
        lambda ck, manifest: manifest.pop("backbone"),
        lambda ck, manifest: manifest.update(backbone="attention"),
        lambda ck, manifest: manifest.update(backbone={"kind": "attention", "dim": "16"}),
        lambda ck, manifest: cut_emx(ck / "adapters" / "block0.q" / "w.emx", 8, 8),
        lambda ck, manifest: cut_emx(ck / "head_w.emx", None, 5),
        lambda ck, manifest: cut_emx(ck / "head_b.emx", 3, None),
        lambda ck, manifest: manifest["backbone"].update(adapter_kind="frozen"),
        lambda ck, manifest: manifest["backbone"].update(dim=8),
        lambda ck, manifest: manifest.pop("format"),
        lambda ck, manifest: manifest.update(format="orthoadapt-checkpoint-v0"),
        lambda ck, manifest: (ck / "adapters" / "block0.q" / "manifest.json").write_text(""),
        lambda ck, manifest: (ck / "head_w.emx").write_bytes((ck / "head_w.emx").read_bytes()[:-3]),
    ], ids=["emx_deleted", "no_backbone", "backbone_not_object", "backbone_mistyped",
            "adapter_w_cut", "head_w_cut", "head_b_cut", "kind_mismatch", "dim_mismatch",
            "format_dropped", "format_wrong", "adapter_manifest_emptied", "head_w_truncated"])
    def test_damaged_checkpoint(self, tmp_path, config_path, checkpoint, capsys, damage):
        manifest = json.loads((checkpoint / "manifest.json").read_text())
        damage(checkpoint, manifest)
        (checkpoint / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["finetune", "--config", str(config_path), "--checkpoint", str(checkpoint),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert str(checkpoint) in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["finetune", "sweep"])
    def test_damaged_checkpoint_leaves_no_out(self, tmp_path, config_path, checkpoint, capsys,
                                              command):
        (checkpoint / "head_w.emx").write_bytes(b"")
        out = tmp_path / "nested" / "out"
        rc = main([command, "--config", str(config_path), "--checkpoint", str(checkpoint),
                   "--out", str(out)])
        assert rc == 1
        assert "Traceback" not in capsys.readouterr().err
        assert not (tmp_path / "nested").exists()


# The files of a TINY_CONFIG checkpoint that load_model reads, and the keys
# it reads from their manifests. It reads neither the pretrain CSVs nor the
# manifest's accuracy, iterations, spec and pretrain echoes, nor a full
# adapter's "r": damage there goes unnoticed by design.
_ADAPTER_DIRS = [f"adapters/block0.{layer}" for layer in ("q", "k", "v", "out")]
_READ_FILES = ["manifest.json", "head_w.emx", "head_b.emx"] + [
    f"{d}/{name}" for d in _ADAPTER_DIRS for name in ("manifest.json", "w.emx")]
_READ_KEYS = [("manifest.json", key) for key in ("format", "backbone")] + [
    (f"{d}/manifest.json", key) for d in _ADAPTER_DIRS for key in ("kind", "n")]
_FILE_DAMAGE = {
    "deleted": lambda p: p.unlink(),
    "emptied": lambda p: p.write_bytes(b""),
    "halved": lambda p: p.write_bytes(p.read_bytes()[:p.stat().st_size // 2]),
    "garbled": lambda p: p.write_bytes(np.random.default_rng(0).bytes(p.stat().st_size)),
}
_MISTYPED = [None, "x", [], {}, -1, 1e300]


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A config file and the checkpoint ``pre`` that pretrain writes from it."""
    root = tmp_path_factory.mktemp("pristine")
    config, out = root / "config.json", root / "pre"
    config.write_text(json.dumps(TINY_CONFIG))
    assert main(["pretrain", "--config", str(config), "--out", str(out)]) == 0
    files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert files == {*_READ_FILES, "pretrain_trace.csv", "pretrain_accuracy.csv"}
    return root


def _finetune_damaged(pristine, tmp_path, capsys, damage, code=1):
    ckpt = tmp_path / "pre"
    shutil.copytree(pristine / "pre", ckpt)
    damage(ckpt)
    capsys.readouterr()
    rc = main(["finetune", "--config", str(pristine / "config.json"), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "ft")])
    err = capsys.readouterr().err
    assert rc == code
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("how", sorted(_FILE_DAMAGE))
@pytest.mark.parametrize("name", _READ_FILES)
def test_checkpoint_file_damage(pristine, tmp_path, capsys, name, how):
    # a directory without its top-level manifest is no checkpoint at all:
    # exit 2, "missing checkpoint"; every other damaged file is a format error
    code = 2 if (name, how) == ("manifest.json", "deleted") else 1
    _finetune_damaged(pristine, tmp_path, capsys, lambda ckpt: _FILE_DAMAGE[how](ckpt / name),
                      code)


@pytest.mark.parametrize("value", ["dropped"] + _MISTYPED, ids=str)
@pytest.mark.parametrize("name,key", _READ_KEYS, ids=lambda v: v)
def test_checkpoint_manifest_damage(pristine, tmp_path, capsys, name, key, value):
    def damage(ckpt):
        manifest = json.loads((ckpt / name).read_text())
        if value == "dropped":
            del manifest[key]
        else:
            manifest[key] = value
        (ckpt / name).write_text(json.dumps(manifest))

    _finetune_damaged(pristine, tmp_path, capsys, damage)


# each value once ended in a traceback, an exit 0 on NaN data, or a crash
# deep inside data generation or pretraining
@pytest.mark.parametrize("section,field,value", [
    ("pretrain", "eval_every", 0), ("pretrain", "batch", 0), ("pretrain", "max_iters", -1),
    ("pretrain", "lr", -0.001), ("spec", "samples_per_split", -3), ("spec", "perturb_rank", 0),
    ("spec", "cluster_mean_scale", 0), ("spec", "method_overlap", 2.0),
    ("spec", "mean_align", -1.0), ("backbone", "kind", ["mlp"]), ("spec", "holdout_methods", 3),
])
def test_config_value_out_of_range(tmp_path, capsys, section, field, value):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg[section][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 1
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["finetune", "sweep"])
def test_no_holdout_stops_before_training(tmp_path, capsys, monkeypatch, command):
    # pretrain scores no unseen split and accepts the spec; every finetune or
    # sweep cell would fail on its unseen split
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["spec"]["holdout_methods"] = 0
    path = tmp_path / "no_holdout.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path), "--out", str(tmp_path / "pre")]) == 0

    def no_training(*args, **kwargs):
        raise AssertionError("a cell started training")

    monkeypatch.setattr("orthoadapt.experiment.train", no_training)
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main([command, "--config", str(path), "--checkpoint", str(tmp_path / "pre"),
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: no held-out fake method configured\n"
    assert not out.exists()


class TestSweep:
    def test_sweep_and_determinism(self, tmp_path, config_path, checkpoint):
        a = tmp_path / "sa"
        b = tmp_path / "sb"
        for out in (a, b):
            rc = main(["sweep", "--config", str(config_path), "--checkpoint", str(checkpoint),
                       "--out", str(out)])
            assert rc == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        rows = (a / "sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 + 2  # header, two svd ranks, fft + linear_probe

    # a rank below 1 would train rank-1 adapters under a wrong label, and no
    # seeds would write an empty table
    @pytest.mark.parametrize("field,value", [
        ("residual_ranks", ["a"]), ("seeds", 0), ("lora_ranks", [True]),
        ("residual_ranks", [0]), ("residual_ranks", [2, -1]), ("lora_ranks", [-1]),
        ("seeds", []),
    ])
    def test_malformed_sweep_section(self, tmp_path, capsys, field, value):
        cfg = json.loads(json.dumps(TINY_CONFIG))
        cfg["sweep"][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        rc = main(["sweep", "--config", str(bad), "--checkpoint", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"sweep.{field}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["pretrain", "finetune", "sweep"])
def test_rejects_backbone_spec_dim_mismatch(tmp_path, capsys, command):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["backbone"]["dim"] = 12
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    argv = [command, "--config", str(bad), "--out", str(tmp_path / "x")]
    if command != "pretrain":
        argv += ["--checkpoint", str(tmp_path / "nope")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert "backbone.dim 12 does not match spec.dim 16" in err and "Traceback" not in err


# Runs pretrain, finetune --regime svd and sweep in a fresh interpreter, so
# that OPENBLAS_NUM_THREADS is read before NumPy loads.
_PIPELINE = """
import sys
from orthoadapt.cli import main
cfg, out = sys.argv[1], sys.argv[2]
for argv in (["pretrain", "--config", cfg, "--out", out + "/pre"],
             ["finetune", "--config", cfg, "--checkpoint", out + "/pre",
              "--out", out + "/ft", "--regime", "svd"],
             ["sweep", "--config", cfg, "--checkpoint", out + "/pre", "--out", out + "/sweep"]):
    if main(argv) != 0:
        sys.exit(1)
"""


def test_artifacts_identical_across_blas_threads(tmp_path, config_path):
    package_root = str(Path(orthoadapt.__file__).resolve().parents[1])
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                            os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", _PIPELINE, str(config_path), str(out)],
                             env=env, capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        trees.append(tree_bytes(out))
    assert {"ft/trace.csv", "ft/summary.json", "sweep/sweep.csv"} <= set(trees[0])
    assert trees[0] == trees[1]


class TestSvdSplitAnalyze:
    def test_split_then_reconstruct(self, tmp_path):
        w = np.random.default_rng(0).standard_normal((8, 8))
        src = tmp_path / "w.emx"
        write_emx(src, w)
        out = tmp_path / "sp"
        assert main(["svd-split", str(src), "--rank", "3", "--out", str(out)]) == 0
        u_r = read_emx(out / "u_r.emx")
        s_r = read_emx(out / "s_r.emx").reshape(-1)
        v_r = read_emx(out / "v_r.emx")
        u_nr = read_emx(out / "u_nr.emx")
        s_nr = read_emx(out / "s_nr.emx").reshape(-1)
        v_nr = read_emx(out / "v_nr.emx")
        rebuilt = (u_r * s_r) @ v_r.T + (u_nr * s_nr) @ v_nr.T
        assert np.linalg.norm(rebuilt - w) <= 1e-8 * np.linalg.norm(w)

    def test_split_bad_magic(self, tmp_path):
        bad = tmp_path / "bad.emx"
        bad.write_bytes(b"XXXX" + b"\x00" * 24)
        rc = main(["svd-split", str(bad), "--rank", "1", "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("command", [["analyze"], ["svd-split", "--rank", "1"]])
    def test_zero_dimension_header(self, tmp_path, capsys, command):
        bad = tmp_path / "zero.emx"
        bad.write_bytes(b"EMX1" + (2**63).to_bytes(8, "little") + bytes(8))
        rc = main([command[0], str(bad), *command[1:], "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "zero dimension" in err and "Traceback" not in err

    def test_analyze_rank_one(self, tmp_path):
        rng = np.random.default_rng(1)
        x = np.outer(rng.standard_normal(64), rng.standard_normal(5))
        src = tmp_path / "f.emx"
        write_emx(src, x)
        out = tmp_path / "an"
        assert main(["analyze", str(src), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["effective_rank"] == 1
        coords = read_emx(out / "projection.emx")
        assert coords.shape == (64, 2)

    def test_analyze_isotropic(self, tmp_path):
        x = np.random.default_rng(2).standard_normal((20_000, 5))
        src = tmp_path / "iso.emx"
        write_emx(src, x)
        out = tmp_path / "an5"
        assert main(["analyze", str(src), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["effective_rank"] == 5


class TestReport:
    def test_prints_summary(self, tmp_path, config_path, checkpoint, capsys):
        out = tmp_path / "ft"
        main(["finetune", "--config", str(config_path), "--checkpoint", str(checkpoint),
              "--out", str(out)])
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "final_metrics" in capsys.readouterr().out

    def test_missing_run(self, tmp_path):
        assert main(["report", str(tmp_path / "void")]) == 1

    @pytest.mark.parametrize("name", ["summary.json", "manifest.json"])
    def test_damaged_json(self, tmp_path, capsys, name):
        (tmp_path / name).write_text('{"cells": ')
        assert main(["report", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert name in err and "Traceback" not in err
