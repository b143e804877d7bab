"""Spans recorded around calls into orthoadapt, and the metrics read from them.

A ``Recorder`` replaces a public function or method of the package with a
wrapper that records one span per call: name, start, end, parent span and the
enclosing group span (a fine-tune cell, a CLI command or one operation of the
benchmark). Module-level functions are replaced under every name an
``orthoadapt`` module binds them to, so callers inside the package go through
the wrapper too; methods are replaced on their class. Nothing under ``src/``
is edited: the wrappers are installed at run time and removed afterwards.

Spans live in flat arrays indexed by span id (ids follow start order) and are
turned into metrics only at the end, with NumPy.
"""

from __future__ import annotations

import array
import hashlib
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

import numpy as np

_OTHER_ADAPTERS = ("LoraAdapter", "FullAdapter", "FrozenAdapter")
_ADAPTERS = ("SvdResidualAdapter",) + _OTHER_ADAPTERS

# (module, qualified name, span name) of every call boundary the traced run
# wraps. Methods shared by all adapter kinds share one span name.
TRACED = (
    [("linalg", f, f"linalg.{f}") for f in ("check_matrix", "svd", "sym_eig")]
    + [("adapters", "SvdResidualAdapter.__init__", "adapters.svd_init")]
    + [("adapters", f"{c}.__init__", "adapters.init") for c in _OTHER_ADAPTERS]
    + [("adapters", f"{c}.effective_weight", "adapters.effective_weight") for c in _ADAPTERS]
    + [("adapters", f"{c}.weight_grad", "adapters.weight_grad") for c in _ADAPTERS]
    + [("adapters", "SvdResidualAdapter.reg_terms", "adapters.reg_terms")]
    + [("model", f, f"model.{f}") for f in ("adapt_model", "model_forward", "model_backward",
                                            "cls_loss", "cls_loss_grad", "load_model",
                                            "save_model")]
    + [("data", "gen_dataset", "data.gen_dataset"),
       ("data", "SyntheticSpec.__post_init__", "data.spec")]
    + [("experiment", f, f"experiment.{f}") for f in ("train", "adam_step", "pretrain", "evaluate",
                                                      "roc_auc", "finetune_run")]
    + [("analysis", f, f"analysis.{f}") for f in ("effective_rank", "logit_line_fit")]
    + [("emx", f, f"emx.{f}") for f in ("read_emx", "write_emx")]
    + [("cli", "load_config", "cli.load_config")]
    + [("cli", f"cmd_{c}", "cli.command") for c in ("pretrain", "finetune", "sweep", "svd_split",
                                                    "analyze", "report")]
)

# The few boundaries the untraced run needs for its end-to-end metrics, none
# of them crossed inside a training step.
_TIMED = {"experiment.train", "experiment.finetune_run", "adapters.svd_init"}
TIMED = [t for t in TRACED if t[2] in _TIMED]

# Spans whose id becomes the cell or command id of the spans inside them.
_GROUPS = {"experiment.finetune_run", "cli.command"}

# Spans inside a training step, for effective_weight.per_adapter_step.
_STEP_SPANS = ("experiment.train", "bench.stack_step")
_STEP_CALLERS = ("model.model_forward", "model.model_backward", "adapters.reg_terms")
# Work train() does outside its step loop.
_TRAIN_EVAL = ("experiment.evaluate", "analysis.effective_rank", "experiment.roc_auc")
TRAIN_TAGS = ("fft", "svd", "svd_only", "lora", "linear_probe")


def _digest(a):
    return hashlib.sha1(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def regime_tag(cfg):
    """The acceptance-recipe name of a TrainConfig's regime: an svd run with
    both regularizer weights at 0 is ``svd_only``."""
    if cfg.regime == "svd" and cfg.lambda1 == 0 and cfg.lambda2 == 0:
        return "svd_only"
    return cfg.regime


def _arguments(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _annotate_train(fn, report, args, kwargs):
    a = _arguments(fn, args, kwargs)
    return {"steps": len(report.iters), "tag": regime_tag(a["cfg"]),
            "adapters": len(a["model"].adapters()), "diverged": report.error is not None}


def _annotate_gen_dataset(fn, ds, args, kwargs):
    a = _arguments(fn, args, kwargs)
    scalars = sorted((k, v) for k, v in vars(a["spec"]).items()
                     if isinstance(v, (int, float, str)))
    key = repr((scalars, a["split"], a["seq_len"])).encode()
    return {"rows": int(ds.x.shape[0]), "digest": hashlib.sha1(key).hexdigest()}


_ANNOTATORS = {
    "linalg.svd": lambda fn, out, args, kw: {"digest": _digest(args[0])},
    "linalg.sym_eig": lambda fn, out, args, kw: {"digest": _digest(args[0])},
    "data.gen_dataset": _annotate_gen_dataset,
    "experiment.train": _annotate_train,
    "experiment.pretrain": lambda fn, out, args, kw: {"iters": out.iterations},
    "emx.read_emx": lambda fn, out, args, kw: {"bytes": 20 + 8 * out.size},
    "emx.write_emx": lambda fn, out, args, kw: {"bytes": 20 + 8 * np.asarray(args[1]).size},
}


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._name_ix = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.group = array.array("i")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.annot = {}
        self.raised = set()
        self._stack = [-1]
        self._groups = [-1]
        self._undo = []

    def _ix(self, name):
        if name not in self._name_ix:
            self._name_ix[name] = len(self.names)
            self.names.append(name)
        return self._name_ix[name]

    def _open(self, ix, is_group):
        sid = len(self.name)
        self.name.append(ix)
        self.parent.append(self._stack[-1])
        if is_group:
            self._groups.append(sid)
        self.group.append(self._groups[-1])
        self.t0.append(0.0)
        self.t1.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid, is_group, t0, t1):
        self._stack.pop()
        if is_group:
            self._groups.pop()
        self.t0[sid] = t0
        self.t1[sid] = t1

    @contextmanager
    def span(self, name, group=True, **annot):
        """A span around work of the benchmark itself; by default its id is
        the cell id of the spans inside it."""
        sid = self._open(self._ix(name), group)
        if annot:
            self.annot[sid] = annot
        t0 = time.perf_counter()
        try:
            yield sid
        except BaseException:
            self.raised.add(sid)
            raise
        finally:
            self._close(sid, group, t0, time.perf_counter())

    def _wrap(self, name, fn):
        ix = self._ix(name)
        is_group = name in _GROUPS
        annotate = _ANNOTATORS.get(name)
        open_, close, perf = self._open, self._close, time.perf_counter
        annot, raised = self.annot, self.raised

        def wrapper(*args, **kwargs):
            sid = open_(ix, is_group)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised.add(sid)
                raise
            finally:
                close(sid, is_group, t0, perf())
            if annotate is not None:
                annot[sid] = annotate(fn, out, args, kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, targets):
        """Wrap every target at the names its callers bind."""
        package = [m for n, m in sys.modules.items()
                   if n == "orthoadapt" or n.startswith("orthoadapt.")]
        for module, qualname, name in targets:
            mod = importlib.import_module(f"orthoadapt.{module}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[attr]
                self._undo.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
                continue
            original = getattr(mod, qualname)
            wrapped = self._wrap(name, original)
            for m in package:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, original))
                        setattr(m, attr, wrapped)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ---- reading the spans -------------------------------------------------

    def ids(self, name, completed=True):
        """Ids of the spans with this name; ``completed`` drops calls that
        raised and training runs that diverged."""
        ix = self._name_ix.get(name)
        if ix is None:
            return np.zeros(0, dtype=np.int64)
        ids = np.nonzero(np.frombuffer(self.name, dtype=np.int32) == ix)[0]
        if completed:
            ids = np.array([i for i in ids.tolist() if i not in self.raised
                            and not self.annot.get(i, {}).get("diverged", False)], dtype=np.int64)
        return ids

    def durations(self, ids):
        t0 = np.frombuffer(self.t0, dtype=np.float64)
        t1 = np.frombuffer(self.t1, dtype=np.float64)
        return t1[ids] - t0[ids]

    def children(self, ids, names=None):
        """Ids of the direct children of ``ids``, optionally by name."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        mask = np.isin(parent, ids)
        if names is not None:
            ixs = [self._name_ix[n] for n in names if n in self._name_ix]
            mask &= np.isin(np.frombuffer(self.name, dtype=np.int32), ixs)
        return np.nonzero(mask)[0]

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 group=np.frombuffer(self.group, dtype=np.int32),
                 start=np.frombuffer(self.t0, dtype=np.float64),
                 end=np.frombuffer(self.t1, dtype=np.float64))


# ---- per-layer metrics -----------------------------------------------------

def _layer_table():
    rows = []
    for f in ("svd", "sym_eig"):
        rows += [(f"linalg.{f}.calls", "count"), (f"linalg.{f}.busy_s", "s"),
                 (f"linalg.{f}.distinct_inputs", "count")]
    rows += [("linalg.check_matrix.calls", "count"), ("linalg.check_matrix.busy_s", "s"),
             ("adapters.init.busy_s", "s"), ("adapters.effective_weight.calls", "count"),
             ("adapters.effective_weight.busy_s", "s"),
             ("adapters.effective_weight.per_adapter_step", "calls/step"),
             ("adapters.reg_terms.calls", "count"), ("adapters.reg_terms.busy_s", "s"),
             ("adapters.weight_grad.busy_s", "s"),
             ("model.adapt_model.busy_s", "s"), ("model.model_forward.calls", "count")]
    rows += [(f"model.{f}.busy_s", "s") for f in ("model_forward", "model_backward", "cls_loss",
                                                  "cls_loss_grad", "load_model", "save_model")]
    rows += [("data.gen_dataset.calls", "count"), ("data.gen_dataset.busy_s", "s"),
             ("data.gen_dataset.rows", "count"), ("data.gen_dataset.distinct_inputs", "count"),
             ("data.spec.busy_s", "s"),
             ("experiment.train.steps", "count"), ("experiment.train.self_s", "s")]
    rows += [(f"experiment.train.{t}.us_per_step", "us") for t in TRAIN_TAGS]
    rows += [("experiment.adam_step.calls", "count"), ("experiment.adam_step.busy_s", "s"),
             ("experiment.pretrain.iters", "count"), ("experiment.pretrain.busy_s", "s"),
             ("experiment.evaluate.busy_s", "s"), ("experiment.roc_auc.busy_s", "s"),
             ("experiment.finetune_run.self_s", "s"),
             ("analysis.effective_rank.busy_s", "s"), ("analysis.logit_line_fit.busy_s", "s")]
    for f in ("read_emx", "write_emx"):
        rows += [(f"emx.{f}.calls", "count"), (f"emx.{f}.bytes", "B"), (f"emx.{f}.busy_s", "s")]
    rows += [("cli.load_config.busy_s", "s"), ("cli.command.self_s", "s"),
             ("process.import_s", "s")]
    return rows


PER_LAYER = _layer_table()

# Metric layer.function -> the span names it covers, where they differ.
_SPANS_OF = {"adapters.init": ("adapters.svd_init", "adapters.init")}


def per_layer_metrics(rec, import_s):
    """Every per-layer metric, as name -> value. A layer the workload never
    calls reads 0."""
    name = np.frombuffer(rec.name, dtype=np.int32)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    dur = rec.durations(np.arange(len(name)))
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def ids_of(layer_fn, completed=False):
        spans = _SPANS_OF.get(layer_fn, (layer_fn,))
        return np.concatenate([rec.ids(s, completed) for s in spans]).astype(np.int64)

    def annot_values(ids, key):
        return [rec.annot[i][key] for i in ids.tolist() if key in rec.annot.get(i, {})]

    out = {}
    for metric, _ in PER_LAYER:
        layer_fn, measure = metric.rsplit(".", 1)
        if metric == "process.import_s":
            out[metric] = import_s
        elif measure == "calls":
            out[metric] = int(ids_of(layer_fn).size)
        elif measure == "busy_s":
            ids = ids_of(layer_fn)
            outermost = ids[parent_name[ids] != name[ids]]  # recursion counts once
            out[metric] = float(dur[outermost].sum())
        elif measure == "self_s":
            ids = ids_of(layer_fn)
            out[metric] = float((dur[ids] - child_time[ids]).sum())
        elif measure == "distinct_inputs":
            out[metric] = len(set(annot_values(ids_of(layer_fn), "digest")))
        elif measure in ("rows", "bytes", "iters", "steps"):
            out[metric] = int(sum(annot_values(ids_of(layer_fn, completed=True), measure)))
        elif measure == "per_adapter_step":
            out[metric] = _per_adapter_step(rec, name, parent, parent_name)
        elif measure == "us_per_step":
            out[metric] = _us_per_step(rec, layer_fn.rsplit(".", 1)[1])
        else:
            raise KeyError(metric)
    return out


def _per_adapter_step(rec, name, parent, parent_name):
    """effective_weight() calls made inside training steps, per adapter and step."""
    steps = np.concatenate([rec.ids(s) for s in _STEP_SPANS]).astype(np.int64)
    ew = rec.ids("adapters.effective_weight", completed=False)
    callers = [rec._name_ix[n] for n in _STEP_CALLERS if n in rec._name_ix]
    via_caller = ew[np.isin(parent_name[ew], callers)]
    in_step = np.isin(parent[parent[via_caller]], steps)
    work = sum(rec.annot[i]["steps"] * rec.annot[i]["adapters"] for i in steps.tolist())
    return float(in_step.sum() / work) if work else 0.0


def _us_per_step(rec, tag):
    """Mean time of one step of train()'s loop for one regime, in us."""
    trains = [i for i in rec.ids("experiment.train").tolist() if rec.annot[i]["tag"] == tag]
    if not trains:
        return 0.0
    trains = np.array(trains, dtype=np.int64)
    loop = rec.durations(trains).sum() - rec.durations(rec.children(trains, _TRAIN_EVAL)).sum()
    steps = sum(rec.annot[i]["steps"] for i in trains.tolist())
    return float(1e6 * loop / steps)
