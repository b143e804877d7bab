"""The three workloads: what they run, what they check, what they report.

Each workload builds its fixed inputs in ``setup`` (run several times; the
set-up time is their median), runs whole rounds of the same operations in
``round``, checks the outputs in ``check`` once tracing is off, and reads its
end-to-end metrics from the recorded spans in ``metrics``. All calls into the
package go through module attributes, so the recorder's wrappers see them.
"""

from __future__ import annotations

import copy
import hashlib
import io
import json
import resource
import shutil
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from orthoadapt import adapters, analysis, cli, data, emx, experiment, linalg, model

import checks

# The acceptance recipe of tests/conftest.py::run_world.
ACCEPTANCE_REGIMES = {
    "fft": dict(regime="fft", rank=1, lambda1=0.0, lambda2=0.0),
    "svd": dict(regime="svd", rank=4, lambda1=0.03, lambda2=0.01),
    "svd_only": dict(regime="svd", rank=4, lambda1=0.0, lambda2=0.0),
    "lora": dict(regime="lora", rank=4, lambda1=0.0, lambda2=0.0),
}
# Every end-to-end metric, with its unit; each workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_steps_per_s": "steps/s",
    "cell_s": "s",
    "adapter_init_s": "s",
    "peak_rss_mb": "MB",
}
# The sweep header the README documents as a stable interface.
SWEEP_HEADER = ("regime,rank,seed,auc_seen,auc_unseen,acc_seen,acc_unseen,"
                "rank_before,rank_after,trainable_params,error")


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rate(count, seconds):
    return float(count / seconds) if seconds > 0 else 0.0


def _median(values):
    return float(statistics.median(values)) if len(values) else 0.0


def _common_metrics(run):
    rec = run.rec
    inits = rec.durations(rec.ids("adapters.svd_init"))
    return {
        "setup_s": run.import_s + _median(rec.durations(rec.ids("bench.setup"))),
        "wall_s": _median(rec.durations(rec.ids("bench.round"))),
        "peak_rss_mb": _peak_rss_mb(),
        # The mean, not the median: the inits of one run wrap matrices whose
        # Jacobi sweep counts differ, and a median picks one of them.
        "adapter_init_s": float(inits.mean()) if len(inits) else 0.0,
    }


def _training_metrics(run):
    """The metrics of the two workloads that fine-tune through train():
    steps over the time of all completed train() calls, pooled over cells,
    and the median finetune_run cell."""
    rec = run.rec
    trains = rec.ids("experiment.train")
    out = _common_metrics(run)
    out["train_steps_per_s"] = _rate(sum(rec.annot[i]["steps"] for i in trains.tolist()),
                                     float(rec.durations(trains).sum()))
    out["cell_s"] = _median(rec.durations(rec.ids("experiment.finetune_run")))
    return out


def _digest_tree(root):
    root = Path(root)
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


# ---- acceptance_world --------------------------------------------------------

@dataclass
class AcceptanceSize:
    samples: int = 16384
    iters: int = 20000


# Rows of the batch the gradient check differentiates on.
CHECK_BATCH = 64
# Extra SVD initialisations of the backbone before and after every cell:
# adapt_model calls each time, at the rank of the recipe's svd cells.
REINITS = 3
REINIT_RANK = ACCEPTANCE_REGIMES["svd"]["rank"]


class AcceptanceWorld:
    """One world of the acceptance bundle: pretrain an mlp backbone, then
    fine-tune it under the four regimes of the recipe.

    The world (data and pretrained backbone) is the recipe's world 0, so the
    SVD and PCA inputs, whose Jacobi sweep counts depend on the world, are the
    same in every run; the seed picks the fine-tuning stream (batches and
    adapter and head init), as seed 100 + s does for world s in the recipe.
    """

    WORLD = 0

    def __init__(self, run, seed, size=None):
        self.run, self.seed, self.size = run, seed, size or AcceptanceSize()
        self.cells = []
        self.reinits = []

    def setup(self, _):
        spec = data.SyntheticSpec(seed=self.WORLD, samples_per_split=self.size.samples)
        backbone = model.BackboneConfig(kind="mlp", dim=32, depth=2, seq_len=1)
        pre = experiment.pretrain(backbone, spec, experiment.PretrainConfig(seed=self.WORLD))
        semantic_eval = experiment.semantic_shards(spec, 1)[1]
        return spec, pre, semantic_eval

    def start(self, inputs):
        self.spec, self.pre, self.semantic_eval = inputs[0]

    def _reinit(self):
        """SVD-initialise every adapter of the backbone REINITS times more.
        The two svd cells construct their adapters at two moments of the round
        only; these extra constructions, before and after every cell, spread
        the samples of adapter_init_s over the whole round."""
        for _ in range(REINITS):
            with self.run.op("svd_init"):
                self.reinits.append(model.adapt_model(self.pre.model, "svd", REINIT_RANK,
                                                      100 + self.seed))

    def round(self, r):
        self._reinit()
        for tag, kwargs in ACCEPTANCE_REGIMES.items():
            cfg = experiment.TrainConfig(iters=self.size.iters, seed=100 + self.seed, **kwargs)
            with self.run.op("cell", regime=tag):
                m, report = experiment.finetune_run(self.pre.model, self.spec, cfg)
                logits, _, _ = experiment.evaluate(m, self.semantic_eval)
                analysis.logit_line_fit(logits)
                self.cells.append((tag, cfg, m, report))
            self._reinit()

    def check(self):
        run = self.run
        eval_sets = {name: data.gen_dataset(self.spec, f"finetune_test_{name}", 1)
                     for name in ("seen", "unseen")}
        for tag, cfg, m, report in self.cells:
            # adapt_model is deterministic in its seed: this is the model
            # finetune_run started from.
            init = model.adapt_model(self.pre.model, cfg.regime, cfg.rank, cfg.seed,
                                     reg=adapters.RegularizerWeights(cfg.lambda1, cfg.lambda2))
            for (_, p), (_, a0), (_, a) in zip(self.pre.model.adapters(), init.adapters(),
                                               m.adapters()):
                run.check(checks.function_preserved, p.effective_weight(), a0.effective_weight())
                if a.kind == "svd":
                    for what in ("u_r", "s_r", "v_r"):
                        run.check(checks.identical, getattr(a0.split, what).tobytes(),
                                  getattr(a.split, what).tobytes(), f"frozen {what} ({tag})")
            for name, ds in eval_sets.items():
                _, _, probs = experiment.evaluate(m, ds)
                run.check(checks.auc_matches, report.final_metrics[name]["auc"], probs, ds.y)
            run.check(checks.trace_sane, report.total_loss, cfg.iters)
        for m in self.reinits:
            for (_, p), (_, a) in zip(self.pre.model.adapters(), m.adapters()):
                run.check(checks.function_preserved, p.effective_weight(), a.effective_weight())
        for _, cfg, m, _ in [c for c in self.cells if c[0] == "svd"][:1]:
            run.check(self.gradient_check, m, cfg, eval_sets["seen"])

    def gradient_check(self, m, cfg, ds):
        """Central difference of the total training loss along a seeded random
        direction against model_backward plus the regularizer gradients."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(1,)))
        idx = rng.integers(0, ds.groups, size=CHECK_BATCH)
        x, y = ds.x[ds.group_rows(idx)], ds.y[idx]

        def total_loss():
            logits, _ = model.model_forward(m, x, train=True)
            loss, _, _ = model.cls_loss(logits, y)
            orth, sv, _ = experiment._regularizers(m, cfg.lambda1, cfg.lambda2)
            return loss + cfg.lambda1 * orth + cfg.lambda2 * sv

        logits, _ = model.model_forward(m, x, train=True)
        grads = model.model_backward(m, model.cls_loss_grad(logits, y))
        for key, g in experiment._regularizers(m, cfg.lambda1, cfg.lambda2)[2].items():
            grads[key] = grads[key] + g
        params = m.trainable()
        direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        norm = np.sqrt(sum(np.sum(d * d) for d in direction.values()))
        grad_dot_d = sum(float(np.sum(grads[k] * d)) / norm for k, d in direction.items())
        saved = {k: p.copy() for k, p in params.items()}

        def along(t):
            for k, p in params.items():
                p += (t / norm) * direction[k]
            value = total_loss()
            for k, p in params.items():
                p[...] = saved[k]
            return value

        checks.directional_derivative(along, grad_dot_d, eps=1e-5)

    def metrics(self):
        return _training_metrics(self.run)


# ---- cli_sweep -----------------------------------------------------------------

@dataclass
class CliSize:
    overrides: dict = field(default_factory=dict)  # config section -> fields


def _cli(argv):
    """orthoadapt's main() in this process: (exit code, output, exception)."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        try:
            return cli.main([str(a) for a in argv]), buf.getvalue(), None
        except Exception as exc:  # an uncaught exception is what a probe looks for
            return None, buf.getvalue(), exc


def _config_probe(fields):
    def make(config, target, pre):
        cfg = copy.deepcopy(config)
        for section, values in fields.items():
            cfg.setdefault(section, {}).update(values)
        target.write_text(json.dumps(cfg))
        return target
    return make


def _truncated_config(config, target, pre):
    target.write_text(json.dumps(config)[:-7])
    return target


def _checkpoint_probe(damage):
    def make(config, target, pre):
        shutil.copytree(pre, target)
        damage(target)
        return target
    return make


def _drop_backbone(ck):
    manifest = json.loads((ck / "manifest.json").read_text())
    del manifest["backbone"]
    (ck / "manifest.json").write_text(json.dumps(manifest))


def _rewrite(path, edit):
    path.write_bytes(edit(path.read_bytes()))


# Malformed inputs: (name, how the input is made, command, accepted exit
# codes). A damaged checkpoint may give 1 (format error) or 2 (missing
# checkpoint): the README documents both.
PROBES = (
    ("iters_string", _config_probe({"train": {"iters": "5"}}), "finetune", {1}),
    ("lr_nan", _config_probe({"train": {"lr": float("nan")}}), "finetune", {1}),
    ("negative_iters", _config_probe({"train": {"iters": -1}}), "finetune", {1}),
    ("unknown_field", _config_probe({"train": {"bogus": 1}}), "finetune", {1}),
    ("dim_mismatch", _config_probe({"spec": {"dim": 24}}), "pretrain", {1}),
    ("invalid_json", _truncated_config, "finetune", {1}),
    ("emx_deleted", _checkpoint_probe(lambda ck: (ck / "adapters" / "block0.q" / "w.emx").unlink()),
     "finetune", {1, 2}),
    ("manifest_no_backbone", _checkpoint_probe(_drop_backbone), "finetune", {1, 2}),
    ("emx_truncated", _checkpoint_probe(lambda ck: _rewrite(ck / "head_w.emx", lambda b: b[:30])),
     "finetune", {1, 2}),
    ("emx_bad_magic", _checkpoint_probe(lambda ck: _rewrite(ck / "head_w.emx", lambda b: b"EMX0" + b[4:])),
     "svd-split", {1}),
)


class CliSweep:
    """The command-line pipeline on configs/default.json: pretrain (set-up),
    then finetune twice, sweep and report, plus the malformed-input probes.

    The seed goes into the config's train section only: the world (data and
    pretrained checkpoint) is the config's, as in AcceptanceWorld."""

    def __init__(self, run, seed, size=None):
        self.run, self.seed, self.size = run, seed, size or CliSize()
        base = json.loads((run.root / "configs" / "default.json").read_text())
        base.setdefault("train", {})["seed"] = seed
        for section, fields in self.size.overrides.items():
            base.setdefault(section, {}).update(fields)
        self.config = base
        sweep = base["sweep"]
        # svd at each residual rank, lora at each lora rank, fft, linear_probe.
        self.sweep_cells = ((len(sweep["residual_ranks"]) + len(sweep["lora_ranks"]) + 2)
                            * len(sweep["seeds"]))
        self.rounds = []

    def setup(self, i):
        d = self.run.work / f"setup{i}"
        d.mkdir(parents=True)
        config = d / "config.json"
        config.write_text(json.dumps(self.config, indent=2))
        rc, out, exc = _cli(["pretrain", "--config", config, "--out", d / "pre"])
        if rc != 0:
            raise RuntimeError(f"orthoadapt pretrain failed ({rc!r}, {exc!r}): {out}")
        (d / "probe").mkdir()
        probes = {name: make(self.config, d / "probe" / name, d / "pre")
                  for name, make, _, _ in PROBES}
        return d, probes

    def start(self, inputs):
        self.setups = inputs
        self.dir, self.probes = inputs[0]

    def _argv(self, command, out, config=None, checkpoint=None):
        config = config or self.dir / "config.json"
        checkpoint = checkpoint or self.dir / "pre"
        if command == "pretrain":
            return ["pretrain", "--config", config, "--out", out]
        if command == "svd-split":
            return ["svd-split", checkpoint / "head_w.emx", "--rank", "1", "--out", out]
        return [command, "--config", config, "--checkpoint", checkpoint, "--out", out]

    def _command(self, argv, expected, probe=None, **annot):
        """One operation: a command whose exit code must be in ``expected``.
        A probe that misses it counts as failed; a pipeline command that
        misses it also makes the run incorrect."""
        out = None
        with self.run.op("command", probe=probe, **annot):
            rc, out, exc = _cli(argv)
            if exc is not None:
                raise checks.CheckError(f"{probe or argv[0]} raised {exc!r}")
            checks.exit_code(rc, expected, probe or argv[0])
        return out

    def round(self, r):
        d = self.run.work / f"round{r}"
        for tag in ("ft_a", "ft_b"):
            self._command(self._argv("finetune", d / tag), {0}, command="finetune")
        self._command(self._argv("sweep", d / "sweep"), {0}, command="sweep")
        report = self._command(["report", d / "sweep"], {0}, command="report")
        for name, _, command, expected in PROBES:
            path = self.probes[name]
            is_ckpt = path.is_dir()
            argv = self._argv(command, d / "probe" / name, config=None if is_ckpt else path,
                              checkpoint=path if is_ckpt else None)
            self._command(argv, expected, command=command, probe=name)
        self.rounds.append((d, report))

    def check(self):
        run = self.run
        first = _digest_tree(self.setups[0][0] / "pre")
        for d, _ in self.setups[1:]:
            run.check(checks.identical, json.dumps(first).encode(),
                      json.dumps(_digest_tree(d / "pre")).encode(), "pretrain checkpoint on repeat")
        for rel in ("head_w.emx", "adapters/block0.q/w.emx"):
            path = self.dir / "pre" / rel
            parsed = run.check(checks.parse_emx, path)
            if parsed is not None:
                run.check(checks.emx_matches, parsed, emx.read_emx(path), rel)
        ft_ref = _digest_tree(self.rounds[0][0] / "ft_a")
        sweep_ref = (self.rounds[0][0] / "sweep" / "sweep.csv").read_bytes()
        for d, report in self.rounds:
            for tag in ("ft_a", "ft_b"):
                run.check(checks.identical, json.dumps(ft_ref).encode(),
                          json.dumps(_digest_tree(d / tag)).encode(), f"finetune artifacts ({tag})")
            sweep = (d / "sweep" / "sweep.csv").read_text()
            run.check(checks.sweep_table, sweep, SWEEP_HEADER, self.sweep_cells)
            run.check(checks.identical, sweep_ref, sweep.encode(), "sweep.csv on repeat")
            if not report.rstrip().endswith(sweep.rstrip()):
                run.problems.append("report does not print the sweep table")

    def metrics(self):
        return _training_metrics(self.run)


# ---- spectral_stack ----------------------------------------------------------

@dataclass
class SpectralSize:
    init_width: int = 128
    init_count: int = 5
    stack_width: int = 1024
    stack_count: int = 4
    steps: int = 3


INIT_RESIDUAL_RANK = 4
STACK_CELLS = 2  # per round, each from the perturbed start
PERTURBATION = 0.01  # scale of the seeded noise on the residual factors
LR, LAMBDA1, LAMBDA2 = 1e-3, 0.03, 0.01


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _singular_values(n):
    # One fixed spectrum: the Jacobi sweep count, and with it the SVD time,
    # then depends on the width alone, not on the seed's random factors.
    return np.geomspace(10.0, 0.1, n)


class SpectralStack:
    """(a) SVD-initialise adapters of matrices with known factors; (b) run
    regularizer-plus-Adam steps on a stack of wide, residual-rank-1 adapters."""

    def __init__(self, run, seed, size=None):
        self.run, self.seed, self.size = run, seed, size or SpectralSize()
        self.inits = []
        self.losses = []

    def setup(self, i):
        size = self.size
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        matrices = []
        for _ in range(size.init_count):
            u, v = _orthogonal(rng, size.init_width), _orthogonal(rng, size.init_width)
            s = _singular_values(size.init_width)
            matrices.append(((u * s) @ v.T, s))
        n = size.stack_width
        reg = adapters.RegularizerWeights(LAMBDA1, LAMBDA2)
        stack, start = [], []
        for _ in range(size.stack_count):
            u, v, s = _orthogonal(rng, n), _orthogonal(rng, n), _singular_values(n)
            sp = linalg.SubspaceSplit(r=n - 1, u_r=u[:, :-1].copy(), s_r=s[:-1].copy(),
                                      v_r=v[:, :-1].copy(), u_nr=u[:, -1:].copy(),
                                      s_nr=s[-1:].copy(), v_nr=v[:, -1:].copy(),
                                      frozen_frob_sq=float(s @ s))
            a = adapters.SvdResidualAdapter.from_split(n, sp, reg)
            for p in a.trainable().values():
                p += PERTURBATION * rng.standard_normal(p.shape)
            stack.append(a)
            start.append({k: p.copy() for k, p in a.trainable().items()})
        principal = [[hashlib.sha256(f.tobytes()).digest() for f in (a.split.u_r, a.split.s_r, a.split.v_r)]
                     for a in stack]
        # Only the first set-up is kept: the repeats time the same build.
        return (matrices, stack, start, principal) if i == 0 else None

    def start(self, inputs):
        self.matrices, self.stack, self.start_state, self.principal = inputs[0]

    def _reset(self):
        for a, start in zip(self.stack, self.start_state):
            for k, p in a.trainable().items():
                p[...] = start[k]

    def round(self, r):
        self.inits = []
        for w, _ in self.matrices:
            with self.run.op("svd_init"):
                self.inits.append(adapters.SvdResidualAdapter(w, INIT_RESIDUAL_RANK))
        for _ in range(STACK_CELLS):
            with self.run.op("stack_cell"):
                self.losses.append(self._stack_cell())

    def _stack_cell(self):
        """Regularizer-plus-Adam steps from the perturbed start; the loss
        before each step."""
        self._reset()
        params = {f"{i}.{k}": p for i, a in enumerate(self.stack) for k, p in a.trainable().items()}
        state, losses = {}, []
        for t in range(1, self.size.steps + 1):
            with self.run.rec.span("bench.stack_step", group=False, steps=1,
                                   adapters=len(self.stack)):
                grads, loss = {}, 0.0
                for i, a in enumerate(self.stack):
                    orth, sv, g = a.reg_terms(LAMBDA1, LAMBDA2)
                    loss += LAMBDA1 * orth + LAMBDA2 * sv
                    grads.update({f"{i}.{k}": v for k, v in g.items()})
                experiment.adam_step(params, grads, state, LR, t=t)
            losses.append(loss)
        return losses

    def check(self):
        run = self.run
        for a, (w, s) in zip(self.inits, self.matrices):
            sp = a.split
            run.check(checks.singular_values, np.concatenate([sp.s_r, sp.s_nr]), s,
                      np.linalg.svd(w, compute_uv=False))
            run.check(checks.orthonormal, np.hstack([sp.u_r, sp.u_nr]), "U")
            run.check(checks.orthonormal, np.hstack([sp.v_r, sp.v_nr]), "V")
        for losses in self.losses:
            run.check(checks.loss_falls, losses)
        for a, digests in zip(self.stack, self.principal):
            for d, f, what in zip(digests, (a.split.u_r, a.split.s_r, a.split.v_r), ("u_r", "s_r", "v_r")):
                if hashlib.sha256(f.tobytes()).digest() != d:
                    run.problems.append(f"principal {what} changed during training")
        self._reset()
        run.check(self.gradient_check, self.stack[0])

    def gradient_check(self, a):
        """Central difference of the regularizer loss, computed here from the
        factors, against the gradient reg_terms returns."""
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(1,)))
        _, _, grads = a.reg_terms(LAMBDA1, LAMBDA2)
        params = a.trainable()
        direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        norm = np.sqrt(sum(np.sum(d * d) for d in direction.values()))
        grad_dot_d = sum(float(np.sum(grads[k] * d)) / norm for k, d in direction.items())
        sp = a.split

        def along(t):
            u, s, v = (params[k] + (t / norm) * direction[k] for k in ("u", "s", "v"))
            eye = np.eye(a.n)
            u_hat, v_hat = np.hstack([sp.u_r, u]), np.hstack([sp.v_r, v])
            orth = np.sum((u_hat.T @ u_hat - eye) ** 2) + np.sum((v_hat.T @ v_hat - eye) ** 2)
            w = (sp.u_r * sp.s_r) @ sp.v_r.T + (u * s) @ v.T
            return LAMBDA1 * orth + LAMBDA2 * abs(np.sum(w * w) - a.frozen_frob_sq)

        checks.directional_derivative(along, grad_dot_d, eps=1e-5)

    def metrics(self):
        rec = self.run.rec
        steps = rec.durations(rec.ids("bench.stack_step"))
        out = _common_metrics(self.run)
        out["train_steps_per_s"] = _rate(len(steps), float(steps.sum()))
        out["cell_s"] = _median(rec.durations(rec.ids("bench.stack_cell")))
        return out


WORKLOADS = {"acceptance_world": AcceptanceWorld, "cli_sweep": CliSweep,
             "spectral_stack": SpectralStack}
