"""Command-line entry point.

Subcommands: pretrain, finetune, sweep, svd-split, analyze, report. Every run
is deterministic given (config, seed); artifacts are CSV/JSON plus EMX matrix
files with no timestamps or absolute paths, so re-runs are byte-identical.

Exit codes: 0 success, 1 usage/config/format error, 2 runtime or numerical
failure (missing checkpoint, pretraining failure, divergence, out of memory).
No command creates ``--out`` until its work has succeeded, so a failure
leaves no output directory behind; a diverged ``finetune`` still writes its
partial report.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .analysis import effective_rank, projection_export
from .data import SyntheticSpec
from .emx import csv_text, json_text, read_emx, read_json, write_emx, write_json
from .errors import (
    ConfigError,
    FormatError,
    NumericalError,
    PretrainingFailure,
    ValidationError,
    check_addressable,
)
from .experiment import (
    PretrainConfig,
    TrainConfig,
    finetune_run,
    pretrain,
    rank_sweep,
    sweep_csv,
)
from .linalg import frobenius_sq, pca, split, svd
from .model import BLOCK_LAYERS, REGIMES, BackboneConfig, load_model, save_model
from .seeding import derive_seed


def _init_fields(cls, *skip):
    return {f.name for f in fields(cls) if f.init and f.name not in skip}


# the keys each config section accepts: the dataclasses' init fields, less
# the ones a config file does not set
_SECTIONS = {"spec": _init_fields(SyntheticSpec),
             "backbone": _init_fields(BackboneConfig, "adapter_kind", "rank"),
             "pretrain": _init_fields(PretrainConfig), "train": _init_fields(TrainConfig),
             "sweep": {"residual_ranks", "lora_ranks", "seeds"}}


def _check_section(name, payload, allowed):
    if not isinstance(payload, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    for key in payload:
        if key not in allowed:
            raise ConfigError(f"unknown config field {name}.{key}")


def load_config(path):
    """Parse and validate the JSON config; unknown keys are errors."""
    raw = read_json(path, "config file")
    for section, payload in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        _check_section(section, payload, _SECTIONS[section])
    return raw


def _check_data_size(spec, seq_len, seq_len_name, *batches):
    """ConfigError unless a split of ``spec``, and each (field name, groups)
    of ``batches``, fits in one array at ``seq_len`` rows a group."""
    for name, groups in (("spec.samples_per_split", spec.samples_per_split), *batches):
        check_addressable(groups * seq_len * spec.dim, f"{name} × {seq_len_name} × spec.dim")


def build_config(raw, seed_override=None):
    """Materialize dataclass configs; --seed overrides every seed field."""
    spec_kwargs = dict(raw.get("spec", {}))
    pre_kwargs = dict(raw.get("pretrain", {}))
    train_kwargs = dict(raw.get("train", {}))
    if seed_override is not None:
        spec_kwargs["seed"] = seed_override
        pre_kwargs["seed"] = seed_override
        train_kwargs["seed"] = derive_seed(seed_override, "finetune")
    spec = SyntheticSpec(**spec_kwargs)
    backbone = BackboneConfig(**raw.get("backbone", {}))
    if backbone.dim != spec.dim:
        raise ConfigError(f"backbone.dim {backbone.dim} does not match spec.dim {spec.dim}")
    pre_cfg = PretrainConfig(**pre_kwargs)
    train_cfg = TrainConfig(**train_kwargs)
    n = spec.dim
    layers = len(BLOCK_LAYERS[backbone.kind])
    check_addressable(backbone.depth * layers * n * n, f"backbone.depth × {layers} × spec.dim²")
    _check_data_size(spec, backbone.seq_len, "backbone.seq_len",
                     ("pretrain.batch", pre_cfg.batch), ("train.batch", train_cfg.batch))
    sweep_cfg = raw.get("sweep", {})
    for key, value in sweep_cfg.items():
        if not isinstance(value, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise ConfigError(f"sweep.{key} must be a list of integers, got {value!r}")
        if key != "seeds" and any(not 1 <= v <= n for v in value):
            raise ConfigError(f"sweep.{key} entries must lie in [1, {n}] (spec.dim), "
                              f"got {value!r}")
    if sweep_cfg.get("seeds") == []:
        raise ConfigError("sweep.seeds must not be empty")
    return spec, backbone, pre_cfg, train_cfg, sweep_cfg


def _spec_echo(spec):
    return {k: v for k, v in asdict(spec).items() if k in _SECTIONS["spec"]}


def _check_out(path, force, marker="summary.json"):
    """``--out``, refused before the work if it is not a directory or holds
    ``marker`` without ``force``. ``os.path`` only reads, and takes a path it
    cannot read for a missing one, which ``_make_out`` then refuses."""
    out = Path(path)
    if os.path.exists(out) and not os.path.isdir(out):
        raise ConfigError(f"cannot create output directory {out}: not a directory")
    if os.path.exists(out / marker) and not force:
        raise ConfigError(f"{out / marker} exists; pass --force to overwrite")
    return out


def _make_out(out):
    """Create ``--out`` once the work has succeeded."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from None
    return out


def cmd_pretrain(args):
    raw = load_config(args.config)
    spec, backbone, pre_cfg, _, _ = build_config(raw, args.seed)
    out = _check_out(args.out, args.force, "manifest.json")
    result = pretrain(backbone, spec, pre_cfg)
    save_model(result.model, _make_out(out), extra={
        "accuracy": result.accuracy,
        "iterations": result.iterations,
        "spec": _spec_echo(spec),
        "pretrain": asdict(pre_cfg),
    })
    (out / "pretrain_trace.csv").write_text(
        csv_text(["iter", "loss"], enumerate(result.loss_trace)))
    (out / "pretrain_accuracy.csv").write_text(
        csv_text(["iter", "accuracy"], result.accuracy_trace))
    print(f"checkpoint written to {out}")
    return 0


def _read_checkpoint(args, spec, train_cfg):
    """The pretrained model and the checked, not yet created ``--out`` of a
    fine-tuning command; the data is sized by the checkpoint's seq_len."""
    ckpt = Path(args.checkpoint)
    if not (ckpt / "manifest.json").exists():
        raise NumericalError(f"checkpoint {ckpt} not found")
    pretrained, _ = load_model(ckpt)
    if pretrained.dim != spec.dim:
        raise ConfigError(f"checkpoint dim {pretrained.dim} does not match spec.dim {spec.dim}")
    _check_data_size(spec, pretrained.seq_len, f"backbone.seq_len of checkpoint {ckpt}",
                     ("train.batch", train_cfg.batch))
    return pretrained, _check_out(args.out, args.force)


def cmd_finetune(args):
    raw = load_config(args.config)
    spec, _, _, train_cfg, _ = build_config(raw, args.seed)
    overrides = {}
    if args.regime is not None:
        overrides["regime"] = args.regime
    if args.rank is not None:
        overrides["rank"] = args.rank
    if args.lambda1 is not None:
        overrides["lambda1"] = args.lambda1
    if args.lambda2 is not None:
        overrides["lambda2"] = args.lambda2
    if overrides:
        train_cfg = replace(train_cfg, **overrides)
    # the checkpoint's dim must equal spec.dim, which _read_checkpoint checks;
    # fft and linear_probe ignore the rank, but their backbone config checks it
    if not 1 <= train_cfg.rank <= spec.dim:
        raise ConfigError(f"train.rank {train_cfg.rank} out of range [1, {spec.dim}] "
                          f"for regime {train_cfg.regime!r}")
    pretrained, out = _read_checkpoint(args, spec, train_cfg)
    model, report = finetune_run(pretrained, spec, train_cfg)
    print(f"trainable parameters: {report.trainable_params}")
    (_make_out(out) / "trace.csv").write_text(report.trace_csv())
    summary = report.summary()
    summary["spec"] = _spec_echo(spec)
    write_json(out / "summary.json", summary)
    if report.error:
        print(f"training aborted: {report.error}", file=sys.stderr)
        return 2
    print(f"report written to {out}")
    return 0


def cmd_sweep(args):
    raw = load_config(args.config)
    spec, _, _, train_cfg, sweep_cfg = build_config(raw, args.seed)
    pretrained, out = _read_checkpoint(args, spec, train_cfg)
    rows = rank_sweep(
        pretrained, spec, train_cfg,
        residual_ranks=sweep_cfg.get("residual_ranks", [1, 2, 4]),
        lora_ranks=sweep_cfg.get("lora_ranks", []),
        seeds=sweep_cfg.get("seeds", [0]),
    )
    (_make_out(out) / "sweep.csv").write_text(sweep_csv(rows))
    write_json(out / "summary.json", {
        "cells": len(rows),
        "train": asdict(train_cfg),
        "spec": _spec_echo(spec),
        "sweep": sweep_cfg,
    })
    print(f"sweep of {len(rows)} cells written to {out}")
    return 0


def cmd_svd_split(args):
    out = _check_out(args.out, args.force, "manifest.json")
    w = read_emx(args.weights)
    factors = svd(w, label=str(args.weights))
    k = factors.s.shape[0]
    if not 0 <= args.rank <= k:
        raise ValidationError(f"--rank {args.rank} out of range [0, {k}]")
    manifest = {"rows": int(w.shape[0]), "cols": int(w.shape[1]), "rank": args.rank,
                "frobenius_sq": frobenius_sq(w), "files": {}}
    sp = split(factors, args.rank)
    _make_out(out)
    for name, arr in (("u_r", sp.u_r), ("v_r", sp.v_r), ("u_nr", sp.u_nr), ("v_nr", sp.v_nr),
                      ("s_r", sp.s_r[:, None]), ("s_nr", sp.s_nr[:, None])):
        if arr.size:
            write_emx(out / f"{name}.emx", arr)
            manifest["files"][name] = list(arr.shape)
    write_json(out / "manifest.json", manifest)
    print(f"split written to {out}")
    return 0


def cmd_analyze(args):
    out = _check_out(args.out, args.force)
    feats = read_emx(args.features)
    dec = pca(feats)
    rep = effective_rank(feats, args.threshold, Path(args.features).name, dec)
    projection = (None if rep.zero_variance
                  else projection_export(feats, min(2, feats.shape[1]), dec))
    (_make_out(out) / "rank_report.csv").write_text(rep.to_csv())
    if projection is not None:
        write_emx(out / "projection.emx", projection)
    write_json(out / "summary.json", {
        "effective_rank": rep.effective_rank,
        "threshold": rep.threshold,
        "zero_variance": rep.zero_variance,
        "components": int(rep.spectrum.shape[0]),
        "source": rep.source,
    })
    print(f"effective rank {rep.effective_rank} (threshold {rep.threshold})")
    return 0


def cmd_report(args):
    run = Path(args.run)
    summary = run / "summary.json"
    sweep = run / "sweep.csv"
    manifest = run / "manifest.json"
    if summary.exists():
        print(json_text(read_json(summary, "run summary")))
        if sweep.exists():
            print(sweep.read_text().rstrip())
        return 0
    if manifest.exists():
        print(json_text(read_json(manifest, "run manifest")))
        return 0
    raise ConfigError(f"no summary.json or manifest.json under {run}")


def build_parser():
    parser = argparse.ArgumentParser(prog="orthoadapt",
                                     description="spectral subspace adapter experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="train a backbone on the semantic task")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on the forgery task")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--rank", type=int)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("sweep", help="rank/regime comparison table")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("svd-split", help="split an EMX weight matrix into subspaces")
    p.add_argument("weights")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_svd_split)

    p = sub.add_parser("analyze", help="effective-rank report for EMX features")
    p.add_argument("features")
    p.add_argument("--threshold", type=float, default=0.9)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("report", help="print the summary of a run directory")
    p.add_argument("run")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 1
    try:
        # isfinite checks report a divergence; NumPy's warnings would repeat it
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ConfigError, FormatError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, PretrainingFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
