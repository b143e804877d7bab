"""Command-line entry point.

Subcommands: pretrain, finetune, sweep, svd-split, analyze, report. Every run
is deterministic given (config, seed); artifacts are CSV/JSON plus EMX matrix
files with no timestamps or absolute paths, so re-runs are byte-identical.

Exit codes: 0 success, 1 usage/config/format error, 2 runtime or numerical
failure (missing checkpoint, pretraining failure, divergence).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from .analysis import effective_rank, projection_export
from .data import SyntheticSpec
from .emx import read_emx, write_emx
from .errors import (
    ConfigError,
    FormatError,
    NumericalError,
    PretrainingFailure,
    ValidationError,
)
from .experiment import (
    PretrainConfig,
    TrainConfig,
    finetune_run,
    pretrain,
    rank_sweep,
    sweep_csv,
)
from .linalg import frobenius_sq, split, svd
from .model import BackboneConfig, load_model, save_model
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
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} not found")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {p} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    for section, payload in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section {section!r}")
        _check_section(section, payload, _SECTIONS[section])
    return raw


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
    sweep_cfg = raw.get("sweep", {})
    for key, value in sweep_cfg.items():
        if not isinstance(value, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in value):
            raise ConfigError(f"sweep.{key} must be a list of integers, got {value!r}")
        if key != "seeds" and any(v < 1 for v in value):
            raise ConfigError(f"sweep.{key} entries must be >= 1, got {value!r}")
    if sweep_cfg.get("seeds") == []:
        raise ConfigError("sweep.seeds must not be empty")
    return spec, backbone, pre_cfg, train_cfg, sweep_cfg


def _spec_echo(spec):
    return {k: v for k, v in asdict(spec).items() if k in _SECTIONS["spec"]}


def _prepare_out(path, force, marker="summary.json"):
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    target = out / marker
    if target.exists() and not force:
        raise ConfigError(f"{target} exists; pass --force to overwrite")
    return out


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_pretrain(args):
    raw = load_config(args.config)
    spec, backbone, pre_cfg, _, _ = build_config(raw, args.seed)
    out = _prepare_out(args.out, args.force, "manifest.json")
    result = pretrain(backbone, spec, pre_cfg)
    save_model(result.model, out, extra={
        "accuracy": result.accuracy,
        "iterations": result.iterations,
        "spec": _spec_echo(spec),
        "pretrain": asdict(pre_cfg),
    })
    lines = ["iter,loss"] + [f"{i},{v!r}" for i, v in enumerate(result.loss_trace)]
    (out / "pretrain_trace.csv").write_text("\n".join(lines) + "\n")
    acc_lines = ["iter,accuracy"] + [f"{i},{a!r}" for i, a in result.accuracy_trace]
    (out / "pretrain_accuracy.csv").write_text("\n".join(acc_lines) + "\n")
    if args.verbose:
        print(f"pretrained to accuracy {result.accuracy:.3f} in {result.iterations} iterations")
    print(f"checkpoint written to {out}")
    return 0


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
    ckpt = Path(args.checkpoint)
    if not (ckpt / "manifest.json").exists():
        raise NumericalError(f"checkpoint {ckpt} not found")
    out = _prepare_out(args.out, args.force)
    pretrained, _ = load_model(ckpt)
    model, report = finetune_run(pretrained, spec, train_cfg)
    print(f"trainable parameters: {report.trainable_params}")
    (out / "trace.csv").write_text(report.trace_csv())
    summary = report.summary()
    summary["spec"] = _spec_echo(spec)
    _write_json(out / "summary.json", summary)
    if report.error:
        print(f"training aborted: {report.error}", file=sys.stderr)
        return 2
    print(f"report written to {out}")
    return 0


def cmd_sweep(args):
    raw = load_config(args.config)
    spec, _, _, train_cfg, sweep_cfg = build_config(raw, args.seed)
    ckpt = Path(args.checkpoint)
    if not (ckpt / "manifest.json").exists():
        raise NumericalError(f"checkpoint {ckpt} not found")
    out = _prepare_out(args.out, args.force)
    pretrained, _ = load_model(ckpt)
    rows = rank_sweep(
        pretrained, spec, train_cfg,
        residual_ranks=sweep_cfg.get("residual_ranks", [1, 2, 4]),
        lora_ranks=sweep_cfg.get("lora_ranks", []),
        seeds=sweep_cfg.get("seeds", [0]),
    )
    (out / "sweep.csv").write_text(sweep_csv(rows))
    _write_json(out / "summary.json", {
        "cells": len(rows),
        "train": asdict(train_cfg),
        "spec": _spec_echo(spec),
        "sweep": sweep_cfg,
    })
    print(f"sweep of {len(rows)} cells written to {out}")
    return 0


def cmd_svd_split(args):
    w = read_emx(args.weights)
    factors = svd(w, label=str(args.weights))
    k = factors.s.shape[0]
    if not 0 <= args.rank <= k:
        raise ValidationError(f"--rank {args.rank} out of range [0, {k}]")
    sp = split(factors, args.rank)
    out = _prepare_out(args.out, args.force, "manifest.json")
    names = {}
    for name, arr in (("u_r", sp.u_r), ("v_r", sp.v_r), ("u_nr", sp.u_nr), ("v_nr", sp.v_nr)):
        if arr.shape[1] > 0:
            write_emx(out / f"{name}.emx", arr)
            names[name] = list(arr.shape)
    for name, vec in (("s_r", sp.s_r), ("s_nr", sp.s_nr)):
        if vec.shape[0] > 0:
            write_emx(out / f"{name}.emx", vec.reshape(-1, 1))
            names[name] = [int(vec.shape[0]), 1]
    _write_json(out / "manifest.json", {
        "rows": int(w.shape[0]),
        "cols": int(w.shape[1]),
        "rank": args.rank,
        "frobenius_sq": frobenius_sq(w),
        "files": names,
    })
    print(f"split written to {out}")
    return 0


def cmd_analyze(args):
    feats = read_emx(args.features)
    rep = effective_rank(feats, args.threshold, source=Path(args.features).name)
    out = _prepare_out(args.out, args.force)
    (out / "rank_report.csv").write_text(rep.to_csv())
    if not rep.zero_variance:
        k = min(2, feats.shape[1])
        write_emx(out / "projection.emx", projection_export(feats, k))
    _write_json(out / "summary.json", {
        "effective_rank": rep.effective_rank,
        "threshold": rep.threshold,
        "zero_variance": rep.zero_variance,
        "components": int(rep.spectrum.shape[0]),
        "source": rep.source,
    })
    print(f"effective rank {rep.effective_rank} (threshold {rep.threshold})")
    return 0


def _read_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise FormatError(f"{path} is not readable JSON: {exc}") from exc


def cmd_report(args):
    run = Path(args.run)
    summary = run / "summary.json"
    sweep = run / "sweep.csv"
    manifest = run / "manifest.json"
    if summary.exists():
        print(json.dumps(_read_json(summary), sort_keys=True, indent=2))
        if sweep.exists():
            print(sweep.read_text().rstrip())
        return 0
    if manifest.exists():
        print(json.dumps(_read_json(manifest), sort_keys=True, indent=2))
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
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a checkpoint on the forgery task")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--regime", choices=["svd", "lora", "fft", "linear_probe"])
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
        return args.func(args)
    except (ConfigError, FormatError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, PretrainingFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
