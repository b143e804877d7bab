"""CLI subcommands, exit codes, and artifact determinism."""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import orthoadapt
from orthoadapt import linalg
from orthoadapt.cli import _SECTIONS, main
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
# deep inside data generation or pretraining; the sizes of 2**62 and 2**70
# are ones NumPy refuses before it allocates, as their byte count does not
# fit in a pointer
@pytest.mark.parametrize("section,field,value", [
    ("pretrain", "eval_every", 0), ("pretrain", "batch", 0), ("pretrain", "max_iters", -1),
    ("pretrain", "lr", -0.001), ("spec", "samples_per_split", -3), ("spec", "perturb_rank", 0),
    ("spec", "cluster_mean_scale", 0), ("spec", "method_overlap", 2.0),
    ("spec", "mean_align", -1.0), ("backbone", "kind", ["mlp"]), ("spec", "holdout_methods", 3),
    *((section, field, size) for size in (2**62, 2**70)
      for section, field in (("spec", "dim"), ("spec", "samples_per_split"),
                             ("backbone", "seq_len"), ("pretrain", "batch"), ("train", "batch"))),
])
def test_config_value_out_of_range(tmp_path, capsys, section, field, value):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg[section][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    rc = main(["pretrain", "--config", str(bad), "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert rc == 1 and not (tmp_path / "x").exists()
    assert err.startswith("error: ") and err.count("\n") == 1
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


def _run_on_pristine(pristine, tmp_path, capsys, command, cfg, *extra):
    """Exit code and stderr of ``command`` on the pristine checkpoint with
    config ``cfg``; asserts that no --out was left behind."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main([command, "--config", str(path), "--checkpoint", str(pristine / "pre"),
               "--out", str(out), *extra])
    assert not out.exists()
    return rc, capsys.readouterr().err


# each once exited 1 with an empty --out left behind (the sweep exited 0 with
# a table of failed cells)
@pytest.mark.parametrize("command", ["finetune", "sweep"])
def test_checkpoint_dim_mismatch_stops_before_out(pristine, tmp_path, capsys, command):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["spec"]["dim"] = cfg["backbone"]["dim"] = 12
    rc, err = _run_on_pristine(pristine, tmp_path, capsys, command, cfg)
    assert rc == 1
    assert err == "error: checkpoint dim 16 does not match spec.dim 12\n"


@pytest.mark.parametrize("regime,rank", [("svd", 0), ("svd", 17), ("svd", -2), ("lora", 20)])
def test_finetune_rank_out_of_range_stops_before_out(pristine, tmp_path, capsys, regime, rank):
    rc, err = _run_on_pristine(pristine, tmp_path, capsys, "finetune", TINY_CONFIG,
                               "--regime", regime, "--rank", str(rank))
    assert rc == 1
    assert err == f"error: train.rank {rank} out of range [1, 16] for regime {regime!r}\n"


def _copy_checkpoint(ckpt, root, **backbone):
    """A copy of checkpoint ``ckpt`` as ``root``/pre, with the ``backbone``
    fields of its manifest set."""
    copy = root / "pre"
    shutil.copytree(ckpt, copy)
    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["backbone"].update(backbone)
    (copy / "manifest.json").write_text(json.dumps(manifest))
    return copy


# each once exited 2 with an empty --out left behind
@pytest.mark.parametrize("case", ["below_bar", "nonfinite_loss", "weight_overflow"])
def test_failed_work_leaves_no_out(pristine, tmp_path, capsys, case):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    argv = ["pretrain"]
    if case == "below_bar":
        cfg["pretrain"].update(max_iters=1, min_accuracy=0.99)
    elif case == "nonfinite_loss":
        cfg["pretrain"]["lr"] = 1e300
    else:  # the svd of the adapted weight is not finite
        w = _copy_checkpoint(pristine / "pre", tmp_path) / "adapters" / "block0.q" / "w.emx"
        write_emx(w, np.full_like(read_emx(w), 1e308))
        argv = ["finetune", "--checkpoint", str(tmp_path / "pre")]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    rc = main([*argv, "--config", str(path), "--out", str(tmp_path / "nested" / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "nested").exists()


# the function each command does its work in, and the file whose presence
# marks an earlier run
_WORK = {"pretrain": ("pretrain", "manifest.json"), "finetune": ("finetune_run", "summary.json"),
         "sweep": ("rank_sweep", "summary.json"), "svd-split": ("svd", "manifest.json"),
         "analyze": ("pca", "summary.json")}


@pytest.mark.parametrize("case", ["marker_exists", "out_is_file"])
@pytest.mark.parametrize("command", sorted(_WORK))
def test_unusable_out_refused_before_work(pristine, tmp_path, capsys, monkeypatch, command,
                                          case):
    work, marker = _WORK[command]

    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(f"orthoadapt.cli.{work}", no_work)
    out = tmp_path / "out"
    if case == "marker_exists":
        out.mkdir()
        (out / marker).write_text("{}")
    else:
        out.write_text("")
    write_emx(tmp_path / "w.emx", np.eye(3))
    config = ["--config", str(pristine / "config.json")]
    argv = {"pretrain": config, "svd-split": [str(tmp_path / "w.emx"), "--rank", "1"],
            "analyze": [str(tmp_path / "w.emx")]}.get(
                command, [*config, "--checkpoint", str(pristine / "pre")])
    capsys.readouterr()
    rc = main([command, *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: {out}" if case == "marker_exists"
                          else f"error: cannot create output directory {out}")
    assert err.count("\n") == 1


# both once ended in a traceback from data generation: the config's sizes
# were checked against the config's seq_len, not the checkpoint's
@pytest.mark.parametrize("command", ["finetune", "sweep"])
def test_checkpoint_seq_len_too_large_stops_before_out(pristine, tmp_path, capsys, command):
    ckpt = _copy_checkpoint(pristine / "pre", tmp_path, seq_len=2**62)
    capsys.readouterr()
    rc = main([command, "--config", str(pristine / "config.json"), "--checkpoint", str(ckpt),
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1 and not (tmp_path / "out").exists()
    assert err.startswith("error: spec.samples_per_split × backbone.seq_len of checkpoint "
                          f"{ckpt} × spec.dim") and err.count("\n") == 1


# a depth of 10**6 once listed its 4 million adapter names, 618 MB, before
# the first missing adapter was read; 2**62 would exhaust any memory
@pytest.mark.parametrize("depth", [10**6, 2**62], ids=["1e6", "2**62"])
def test_deep_checkpoint_fails_at_first_missing_adapter(pristine, tmp_path, capsys, depth):
    ckpt = _copy_checkpoint(pristine / "pre", tmp_path, depth=depth)
    capsys.readouterr()
    tracemalloc.start()
    try:
        rc = main(["finetune", "--config", str(pristine / "config.json"), "--checkpoint",
                   str(ckpt), "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert rc == 1 and err.count("\n") == 1
    assert str(ckpt / "adapters" / f"block{TINY_CONFIG['backbone']['depth']}.q") in err
    assert peak < 20 * 2**20


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


# each once ended in a traceback: a directory or a file that is not UTF-8 as
# --config, and an existing file as --out
@pytest.mark.parametrize("case", ["config_is_dir", "config_not_utf8", "out_is_file"])
def test_unusable_config_or_out_path(tmp_path, capsys, config_path, case):
    config, out = config_path, tmp_path / "out"
    if case == "config_is_dir":
        config = tmp_path / "config_dir"
        config.mkdir()
    elif case == "config_not_utf8":
        config = tmp_path / "latin1.json"
        config.write_bytes('{"backbone": {"kind": "mlp\u00e9"}}'.encode("latin-1"))
    else:
        out.write_text("")
    rc = main(["pretrain", "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# Runs pretrain, finetune --regime svd and sweep in a fresh interpreter, so
# that OPENBLAS_NUM_THREADS is read before NumPy loads.
_PIPELINE = """
import sys
from orthoadapt import linalg
from orthoadapt.cli import main
cfg, out = sys.argv[1], sys.argv[2]
for argv in (["pretrain", "--config", cfg, "--out", out + "/pre"],
             ["finetune", "--config", cfg, "--checkpoint", out + "/pre",
              "--out", out + "/ft", "--regime", "svd"],
             ["sweep", "--config", cfg, "--checkpoint", out + "/pre", "--out", out + "/sweep"]):
    if main(argv) != 0:
        sys.exit(1)
"""


def _fresh_env(**extra):
    """os.environ plus ``extra``, with this package first on PYTHONPATH."""
    package_root = str(Path(orthoadapt.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))


def test_artifacts_identical_across_blas_threads(tmp_path, config_path):
    trees = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        run = subprocess.run([sys.executable, "-c", _PIPELINE, str(config_path), str(out)],
                             env=_fresh_env(OPENBLAS_NUM_THREADS=threads),
                             capture_output=True, text=True, timeout=600)
        assert run.returncode == 0, run.stderr
        trees.append(tree_bytes(out))
    assert {"ft/trace.csv", "ft/summary.json", "sweep/sweep.csv"} <= set(trees[0])
    assert trees[0] == trees[1]


@pytest.mark.parametrize("command,code", [("finetune", 2), ("sweep", 0)])
def test_divergence_prints_no_numpy_warning(pristine, tmp_path, command, code):
    # in a fresh interpreter, where NumPy's RuntimeWarnings would reach
    # stderr: lr 1e308 overflows the factors on the first step
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["train"]["lr"] = 1e308
    path = tmp_path / "diverge.json"
    path.write_text(json.dumps(cfg))
    run = subprocess.run([sys.executable, "-m", "orthoadapt.cli", command, "--config", str(path),
                          "--checkpoint", str(pristine / "pre"), "--out", str(tmp_path / "out")],
                         env=_fresh_env(), capture_output=True, text=True, timeout=600)
    assert run.returncode == code
    assert "Warning" not in run.stderr and "Traceback" not in run.stderr


def test_huge_split_exits_2_with_one_error(tmp_path, capsys):
    # 10**15 samples exceed any address space: the allocation is refused
    # before anything is written into it
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["spec"]["samples_per_split"] = 10**15
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg))
    rc = main(["pretrain", "--config", str(path), "--out", str(tmp_path / "pre")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: out of memory") and err.count("\n") == 1


# pretrain needs one held-out pretraining sample and a fine-tuning cell's
# rank probe two; each once failed with a message that named no config field,
# and then with an empty --out left behind
@pytest.mark.parametrize("command,samples,code", [
    ("pretrain", 1, 1), ("finetune", 1, 1), ("finetune", 5, 1), ("sweep", 5, 0)])
def test_too_few_samples_name_the_field(pristine, tmp_path, capsys, command, samples, code):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    cfg["spec"]["samples_per_split"] = samples
    path = tmp_path / "few.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    ckpt = [] if command == "pretrain" else ["--checkpoint", str(pristine / "pre")]
    capsys.readouterr()
    rc = main([command, "--config", str(path), *ckpt, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == code
    if command == "sweep":  # every cell fails and records why
        err = (out / "sweep.csv").read_text()
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()
    assert "spec.samples_per_split" in err and "Traceback" not in err


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

    # singular values that overflow, or a squared norm that does, exit 2
    # before --out exists, not part way through writing it
    @pytest.mark.parametrize("w", [np.full((3, 3), 1e308),
                                   np.array([[1.0, 1.0], [1.0, -1.0]]) * 1e308],
                             ids=["svd", "frobenius"])
    def test_split_overflow_writes_nothing(self, tmp_path, capsys, w):
        src = tmp_path / "huge.emx"
        write_emx(src, w)
        out = tmp_path / "sp"
        rc = main(["svd-split", str(src), "--rank", "1", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_analyze_covariance_overflow_prints_one_error(self, tmp_path, capsys):
        # finite features whose covariance overflows; run without np.errstate,
        # so a NumPy warning would end the test or reach stderr
        src = tmp_path / "huge.emx"
        write_emx(src, np.array([[0.0], [1e308]]))
        out = tmp_path / "an"
        assert main(["analyze", str(src), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not out.exists()

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

    def test_analyze_decomposes_once(self, tmp_path, monkeypatch):
        # the rank report and the projection share one eigensolve
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sym_eig(*args, **kwargs)

        sym_eig = linalg.sym_eig
        monkeypatch.setattr(linalg, "sym_eig", counted)
        src = tmp_path / "f.emx"
        write_emx(src, np.random.default_rng(3).standard_normal((50, 4)))
        assert main(["analyze", str(src), "--out", str(tmp_path / "an")]) == 0
        assert len(calls) == 1
        assert read_emx(tmp_path / "an" / "projection.emx").shape == (50, 2)


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


# a base config small enough to pretrain and fine-tune in a few milliseconds
_FUZZ_BASE = {
    "spec": {"dim": 8, "clusters": 2, "samples_per_split": 16, "seed": 0},
    "backbone": {"kind": "attention", "dim": 8, "depth": 1, "seq_len": 2},
    "pretrain": {"max_iters": 2, "eval_every": 1, "batch": 4, "min_accuracy": 0.0, "seed": 0},
    "train": {"iters": 2, "batch": 4, "regime": "svd", "rank": 1, "seed": 0},
}
_FUZZ_FIELDS = [(section, name) for section in _FUZZ_BASE for name in sorted(_SECTIONS[section])]
_FUZZ_VALUES = [0, -1, 2**62, 2**70, True, float("nan"), float("inf"), float("-inf"), 1e308,
                "x", [1]]


@pytest.fixture(scope="module")
def fuzz_checkpoint(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "config.json").write_text(json.dumps(_FUZZ_BASE))
    assert main(["pretrain", "--config", str(root / "config.json"), "--out", str(root / "pre")]) == 0
    return root / "pre"


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_FUZZ_FIELDS), st.sampled_from(_FUZZ_VALUES))
def test_config_field_fuzz_exits_cleanly(tmp_path, capsys, fuzz_checkpoint, where, value):
    """One config field set to an edge value: pretrain, and then finetune
    (on this run's checkpoint, or the base one if pretrain failed), each exit
    0, 1 or 2 with at most one error line and no traceback or warning."""
    section, name = where
    if name in ("iters", "max_iters") and isinstance(value, int) and value > 2:
        return  # a run that long is a valid request
    cfg = json.loads(json.dumps(_FUZZ_BASE))
    cfg[section][name] = value
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        root = Path(root)
        path = root / "config.json"
        path.write_text(json.dumps(cfg))
        capsys.readouterr()
        pretrain_rc = main(["pretrain", "--config", str(path), "--out", str(root / "pre")])
        pretrain_err = capsys.readouterr().err
        ckpt = root / "pre" if pretrain_rc == 0 else fuzz_checkpoint
        rc = main(["finetune", "--config", str(path), "--checkpoint", str(ckpt),
                   "--out", str(root / "ft")])
        for code, err in ((pretrain_rc, pretrain_err), (rc, capsys.readouterr().err)):
            assert code in (0, 1, 2), err
            assert "Traceback" not in err and "Warning" not in err
            assert err.count("error:") <= 1


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(["adapter_kind", "depth", "dim", "kind", "rank", "seq_len"]),
       st.sampled_from(_FUZZ_VALUES))
def test_checkpoint_field_fuzz_exits_cleanly(tmp_path, capsys, fuzz_checkpoint, name, value):
    """One field of the checkpoint manifest's backbone set to an edge value:
    finetune exits 0, 1 or 2 with at most one error line and no traceback or
    warning, and leaves an --out only on success or with a divergence report."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        root = Path(root)
        ckpt = _copy_checkpoint(fuzz_checkpoint, root, **{name: value})
        out = root / "ft"
        capsys.readouterr()
        rc = main(["finetune", "--config", str(fuzz_checkpoint.parent / "config.json"),
                   "--checkpoint", str(ckpt), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc in (0, 1, 2), err
        assert "Traceback" not in err and "Warning" not in err
        assert err.count("error:") <= 1
        if rc != 0 and out.exists():
            assert rc == 2 and json.loads((out / "summary.json").read_text())["error"]


# zeros of both signs, subnormals and the edges of the float64 range, mixed
# with ordinary values
_EMX_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e308, -1e308]),
    st.floats(-1e3, 1e3))
_EMX_MATRICES = st.integers(1, 8).flatmap(lambda rows: st.integers(1, 8).flatmap(
    lambda cols: st.lists(st.lists(_EMX_VALUES, min_size=cols, max_size=cols),
                          min_size=rows, max_size=rows))).map(np.array)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_EMX_MATRICES, st.integers(0, 8))
def test_emx_commands_finish_or_fail_cleanly(tmp_path, capsys, w, rank):
    """An EMX file reads back as the bytes written; svd-split and analyze on
    it either exit 0 with all their output, or exit 1 or 2 with one error
    line and no --out."""
    with tempfile.TemporaryDirectory(dir=tmp_path) as root:
        root = Path(root)
        src = root / "w.emx"
        write_emx(src, w)
        write_emx(root / "back.emx", read_emx(src))
        assert (root / "back.emx").read_bytes() == src.read_bytes()

        for argv, out in ((["svd-split", str(src), "--rank", str(rank)], root / "split"),
                          (["analyze", str(src)], root / "rank")):
            capsys.readouterr()
            rc = main([*argv, "--out", str(out)])  # huge entries overflow on the way
            err = capsys.readouterr().err
            if rc != 0:
                assert rc in (1, 2) and not out.exists()
                assert err.startswith("error: ") and err.count("\n") == 1
                continue
            summary = json.loads((out / ("manifest.json" if argv[0] == "svd-split"
                                         else "summary.json")).read_text(),
                                 parse_constant=lambda c: pytest.fail(f"{c} is not JSON"))
            if argv[0] == "svd-split":
                assert summary["frobenius_sq"] == float(np.sum(w * w))
                for name, shape in summary["files"].items():
                    assert read_emx(out / f"{name}.emx").shape == tuple(shape)
                assert set(summary["files"]) >= ({"u_r"} if rank else {"u_nr"})
            else:
                assert (out / "rank_report.csv").exists()
                assert (out / "projection.emx").exists() != summary["zero_variance"]
