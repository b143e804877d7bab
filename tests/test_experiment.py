"""Optimizer, metrics, training loops, and the sweep harness."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoadapt.data import SyntheticSpec, gen_dataset
from orthoadapt.errors import NumericalError, PretrainingFailure, ValidationError
from orthoadapt import experiment
from orthoadapt.experiment import (
    ExperimentReport,
    PretrainConfig,
    _Trainer,
    TrainConfig,
    accuracy_at_half,
    adam_step,
    binary_metrics,
    evaluate,
    finetune_run,
    pretrain,
    rank_sweep,
    roc_auc,
    semantic_shards,
    sweep_csv,
    train,
)
from orthoadapt.analysis import asymmetry_trace, effective_rank
from orthoadapt.model import BackboneConfig, adapt_model, init_model
from orthoadapt.seeding import substream


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        p = {"w": np.array([1.0, -2.0])}
        state = {}
        adam_step(p, {"w": np.zeros(2)}, state, lr=0.1, t=1)
        np.testing.assert_array_equal(p["w"], [1.0, -2.0])

    def test_first_step_magnitude_bound(self):
        p = {"w": np.array([0.0])}
        adam_step(p, {"w": np.array([1.0])}, {}, lr=0.1, t=1)
        # bias-corrected first step moves by at most lr / (1 + eps)
        assert abs(p["w"][0] + 0.1) <= 1e-8

    def test_scalar_trajectory_oracle(self):
        # independent scalar re-implementation of five steps on f(w) = w^2
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w_ref, m, v = 1.0, 0.0, 0.0
        trajectory = []
        for t in range(1, 6):
            g = 2.0 * w_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w_ref -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
            trajectory.append(w_ref)
        p = {"w": np.array([1.0])}
        state = {}
        got = []
        for t in range(1, 6):
            adam_step(p, {"w": 2.0 * p["w"]}, state, lr=lr, t=t)
            got.append(float(p["w"][0]))
        np.testing.assert_allclose(got, trajectory, atol=1e-12)

    def test_non_finite_gradient(self):
        with pytest.raises(NumericalError):
            adam_step({"w": np.zeros(2)}, {"w": np.array([1.0, np.nan])}, {}, lr=0.1, t=1)

    def test_missing_gradient(self):
        # no zero fill: a missing gradient is an error, raised before any update
        p = {"a": np.zeros(2), "b": np.zeros(3)}
        state = {}
        with pytest.raises(ValidationError, match="no gradient for 'b'"):
            adam_step(p, {"a": np.ones(2)}, state, lr=0.1, t=1)
        np.testing.assert_array_equal(p["a"], np.zeros(2))
        assert state == {}


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_four_sample_exhaustive_pairwise(self):
        scores = np.array([0.1, 0.4, 0.35, 0.8])
        for mask in range(1, 15):  # both classes present
            y = np.array([(mask >> i) & 1 for i in range(4)])
            if y.min() == y.max():
                continue
            pos = scores[y == 1]
            neg = scores[y == 0]
            wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
            expect = wins / (len(pos) * len(neg))
            assert roc_auc(scores, y) == expect

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(40)
        y = rng.integers(0, 2, size=40)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        base = roc_auc(s, y)
        assert roc_auc(np.exp(s), y) == base
        assert roc_auc(3.0 * s + 7.0, y) == base

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            roc_auc([0.1, 0.9], [1, 1])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 3.0]),
                              st.integers(0, 1)), min_size=2, max_size=60))
    def test_tied_scores_match_pairwise_count(self, pairs):
        # heavy ties: few distinct scores, -0.0 and 0.0 among them
        scores = np.array([s for s, _ in pairs])
        y = np.array([label for _, label in pairs])
        if y.min() == y.max():
            y[0] = 1 - y[0]
        pos, neg = scores[y == 1], scores[y == 0]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert roc_auc(scores, y) == wins / (len(pos) * len(neg))


class TestAccuracy:
    def test_saturated(self):
        assert accuracy_at_half([0.99, 0.01], [1, 0]) == 1.0

    def test_boundary_rule(self):
        # p == 0.5 counts as predicting the fake class
        assert accuracy_at_half([0.5, 0.5], [1, 1]) == 1.0
        assert accuracy_at_half([0.5, 0.5], [0, 0]) == 0.0

    def test_counting_oracle(self):
        rng = np.random.default_rng(1)
        p = rng.random(64)
        y = rng.integers(0, 2, size=64)
        expect = sum(int((pi >= 0.5) == yi) for pi, yi in zip(p, y)) / 64
        assert accuracy_at_half(p, y) == expect

    def test_range_check(self):
        with pytest.raises(ValidationError):
            accuracy_at_half([1.2], [1])


def tiny_world(seed=0, regime="svd", rank=2, **spec_kw):
    spec_args = dict(dim=16, clusters=4, samples_per_split=128, seed=seed)
    spec_args.update(spec_kw)
    spec = SyntheticSpec(**spec_args)
    bb = BackboneConfig(kind="mlp", dim=16, depth=1, seq_len=1, adapter_kind="full")
    base = init_model(bb, seed)
    model = adapt_model(base, regime, rank, seed=seed)
    ds = gen_dataset(spec, "finetune_train", 1)
    return spec, model, ds


class TestTrain:
    def test_zero_iterations(self):
        spec, model, ds = tiny_world()
        before = {k: v.copy() for k, v in model.trainable().items()}
        report = train(model, ds, TrainConfig(iters=0, seed=0))
        assert list(report.iters) == []
        for k, v in model.trainable().items():
            np.testing.assert_array_equal(v, before[k])

    def test_noop_training_constant_losses(self):
        # lr = 0 with zero regularizer weights leaves the model untouched;
        # with a single-group dataset the batch is constant too
        spec, model, ds = tiny_world(samples_per_split=1)
        before = {k: v.copy() for k, v in model.trainable().items()}
        cfg = TrainConfig(iters=25, lr=0.0, lambda1=0.0, lambda2=0.0, seed=0)
        report = train(model, ds, cfg)
        assert len(set(report.total_loss)) == 1
        for k, v in model.trainable().items():
            np.testing.assert_array_equal(v, before[k])

    def test_regime_mismatch(self):
        spec, model, ds = tiny_world(regime="lora")
        with pytest.raises(ValidationError):
            train(model, ds, TrainConfig(regime="svd", iters=1, seed=0))

    def test_loss_accounting(self):
        # reported total equals cls + lambda1 * mean orth + lambda2 * mean sv
        spec, model, ds = tiny_world()
        cfg = TrainConfig(iters=40, lambda1=0.7, lambda2=0.3, seed=0)
        report = train(model, ds, cfg)
        for total, orth, sv in zip(report.total_loss, report.orth_loss, report.sv_loss):
            cls = total - 0.7 * orth - 0.3 * sv
            recomposed = cls + 0.7 * orth + 0.3 * sv
            assert abs(recomposed - total) <= 1e-12

    def test_regularizers_logged_zero_when_disabled(self):
        spec, model, ds = tiny_world()
        cfg = TrainConfig(iters=10, lambda1=0.0, lambda2=0.0, seed=0)
        report = train(model, ds, cfg)
        assert list(report.orth_loss) == [0.0] * 10
        assert list(report.sv_loss) == [0.0] * 10

    def test_frozen_part_immutable_over_run(self):
        spec, model, ds = tiny_world()
        frozen = [(a.split.u_r.tobytes(), a._w_principal.tobytes()) for _, a in model.adapters()]
        train(model, ds, TrainConfig(iters=60, seed=0))
        after = [(a.split.u_r.tobytes(), a._w_principal.tobytes()) for _, a in model.adapters()]
        assert frozen == after

    def test_divergence_flag(self):
        spec, model, ds = tiny_world()
        cfg = TrainConfig(iters=300, lr=1e80, lambda1=1.0, lambda2=1.0, seed=0)
        with np.errstate(all="ignore"):
            report = train(model, ds, cfg)
        assert report.error is not None
        assert len(report.iters) < 300

    @staticmethod
    def nan_gradient_step(monkeypatch, model, ds, key, index):
        """The error of one training step whose backward pass gives zero
        gradients but a NaN at ``[key][index]``; the step must reject it
        before any update."""
        grads = {k: np.zeros_like(p) for k, p in model.trainable().items()}
        grads[key][index] = np.nan
        monkeypatch.setattr(experiment, "model_backward", lambda model, dlogits: grads)
        trainer = _Trainer(model, ds, "training set", substream(0, "batches"), 8)
        before = trainer.flat.copy()
        with pytest.raises(NumericalError) as info:
            trainer.step(1, 0.1, ExperimentReport(config={}))
        assert trainer.flat.tobytes() == before.tobytes()
        return str(info.value)

    def test_flat_step_names_non_finite_gradient(self, monkeypatch):
        # one NaN gradient entry: the flat Adam step rejects it before any
        # update, and the error names the tensor
        spec, model, ds = tiny_world()
        # row 0 of the stack is block0.w
        message = self.nan_gradient_step(monkeypatch, model, ds, "v", (0, 1, 0))
        assert message == "non-finite gradient for block0.w.v"

    @pytest.mark.parametrize("key,index,name", [("v", (1, 3, 0), "block1.w.v"),
                                                ("head.b", (1,), "head.b")])
    def test_flat_step_names_later_row_and_head(self, monkeypatch, key, index, name):
        # the name comes from the key and the first non-finite row of its stack
        spec = SyntheticSpec(dim=16, clusters=4, samples_per_split=128, seed=0)
        bb = BackboneConfig(kind="mlp", dim=16, depth=2, seq_len=1, adapter_kind="full")
        model = adapt_model(init_model(bb, 0), "svd", 2, seed=0)
        ds = gen_dataset(spec, "finetune_train", 1)
        message = self.nan_gradient_step(monkeypatch, model, ds, key, index)
        assert message == f"non-finite gradient for {name}"

    def test_numerical_error_in_loop_ends_run(self):
        # an attention block overflows on the second step under lr 1e200
        spec = SyntheticSpec(dim=16, clusters=4, samples_per_split=128, seed=0)
        bb = BackboneConfig(kind="attention", dim=16, depth=1, seq_len=4)
        model = adapt_model(init_model(bb, 0), "fft", 1, seed=0)
        ds = gen_dataset(spec, "finetune_train", 4)
        eval_sets = {"seen": gen_dataset(spec, "finetune_test_seen", 4)}
        with np.errstate(all="ignore"):
            report = train(model, ds, TrainConfig(iters=20, lr=1e200, regime="fft", seed=0),
                           eval_sets=eval_sets, rank_set=semantic_shards(spec, 4)[1])
        assert report.error.startswith("diverged at iteration 1: non-finite activations")
        assert list(report.iters) == [0]
        assert report.rank_before is not None and report.rank_after is None
        assert report.final_metrics == {}

    def test_determinism(self):
        spec, m1, ds = tiny_world()
        _, m2, _ = tiny_world()
        r1 = train(m1, ds, TrainConfig(iters=50, seed=4))
        r2 = train(m2, ds, TrainConfig(iters=50, seed=4))
        assert r1.total_loss == r2.total_loss
        assert r1.trace_csv() == r2.trace_csv()

    def test_early_asymmetry_seed7(self):
        # fft on the default recipe, world seed 7: the smoothed fake loss is
        # already below the real loss at iteration 100
        spec = SyntheticSpec(seed=7)
        bb = BackboneConfig(kind="mlp", dim=32, depth=2, seq_len=1)
        pre = pretrain(bb, spec, PretrainConfig(seed=7))
        cfg = TrainConfig(regime="fft", rank=1, lambda1=0, lambda2=0, iters=160, seed=107)
        _, report = finetune_run(pre.model, spec, cfg)
        trace = asymmetry_trace(report)
        assert trace.fake_loss[100] < trace.real_loss[100]


class TestPretrain:
    def test_two_cluster_smoke(self):
        spec = SyntheticSpec(dim=16, clusters=2, samples_per_split=512, seed=0)
        bb = BackboneConfig(kind="mlp", dim=16, depth=1, seq_len=1)
        result = pretrain(bb, spec, PretrainConfig(seed=0, max_iters=2000))
        assert result.accuracy >= 0.95
        assert result.iterations <= 2000

    def test_deterministic(self):
        spec = SyntheticSpec(dim=16, clusters=2, samples_per_split=256, seed=1)
        bb = BackboneConfig(kind="mlp", dim=16, depth=1, seq_len=1)
        a = pretrain(bb, spec, PretrainConfig(seed=1))
        b = pretrain(bb, spec, PretrainConfig(seed=1))
        for key in a.model.trainable():
            assert a.model.trainable()[key].tobytes() == b.model.trainable()[key].tobytes()

    def test_semantic_rank_at_least_k_minus_one(self):
        spec = SyntheticSpec(dim=16, clusters=2, samples_per_split=512, seed=0)
        bb = BackboneConfig(kind="mlp", dim=16, depth=1, seq_len=1)
        result = pretrain(bb, spec, PretrainConfig(seed=0))
        _, feats, _ = evaluate(result.model, semantic_shards(spec, 1)[1])
        assert effective_rank(feats).effective_rank >= spec.clusters - 1

    def test_failure_on_impossible_bar(self):
        spec = SyntheticSpec(dim=16, clusters=4, samples_per_split=128, seed=0)
        bb = BackboneConfig(kind="mlp", dim=16, depth=1, seq_len=1)
        with pytest.raises(PretrainingFailure):
            pretrain(bb, spec, PretrainConfig(seed=0, max_iters=1, eval_every=1,
                                              target_accuracy=1.1, min_accuracy=1.1))

    @pytest.mark.parametrize("max_iters,eval_every", [(0, 50), (60, 20), (70, 20)])
    def test_accuracy_trace_evaluates_each_iteration_once(self, max_iters, eval_every):
        # the target is out of reach, so every run ends at the cap, which is
        # evaluated once whether or not it is a multiple of eval_every
        spec = SyntheticSpec(dim=16, clusters=4, samples_per_split=128, seed=0)
        bb = BackboneConfig(kind="mlp", dim=16, depth=1, seq_len=1)
        result = pretrain(bb, spec, PretrainConfig(max_iters=max_iters, eval_every=eval_every,
                                                   target_accuracy=2.0, min_accuracy=0.0))
        iters = [t for t, _ in result.accuracy_trace]
        assert iters[-1] == max_iters
        assert all(a < b for a, b in zip(iters, iters[1:]))
        assert iters == sorted({*range(eval_every, max_iters + 1, eval_every), max_iters})
        assert result.accuracy == result.accuracy_trace[-1][1]

    def test_non_finite_loss_raises(self):
        # at lr 1e307 the head's logits overflow on the second step: the loss
        # is not finite, and pretraining stops there instead of stepping on
        spec = SyntheticSpec(dim=16, clusters=4, samples_per_split=128, seed=0)
        bb = BackboneConfig(kind="mlp", dim=16, depth=1, seq_len=1)
        with np.errstate(all="ignore"), pytest.raises(
                NumericalError, match="^pretraining loss is not finite at iteration 1$"):
            pretrain(bb, spec, PretrainConfig(lr=1e307, max_iters=20, min_accuracy=0.0))

class TestSweep:
    def make_pretrained(self):
        spec = SyntheticSpec(dim=16, clusters=4, samples_per_split=128, seed=0)
        bb = BackboneConfig(kind="mlp", dim=16, depth=1, seq_len=1)
        return spec, pretrain(bb, spec, PretrainConfig(seed=0)).model

    def test_single_cell_shape(self):
        spec, model = self.make_pretrained()
        cfg = TrainConfig(iters=20, seed=0)
        rows = rank_sweep(model, spec, cfg, residual_ranks=[2], lora_ranks=[], seeds=[0])
        assert len(rows) == 3  # one svd row plus fft and linear_probe baselines
        assert [r["regime"] for r in rows] == ["svd", "fft", "linear_probe"]
        assert all(r["error"] == "" for r in rows)

    def test_row_counting(self):
        spec, model = self.make_pretrained()
        cfg = TrainConfig(iters=2, seed=0)
        rows = rank_sweep(model, spec, cfg, residual_ranks=[1, 2, 4], lora_ranks=[], seeds=list(range(5)))
        svd_rows = [r for r in rows if r["regime"] == "svd"]
        base_rows = [r for r in rows if r["regime"] in ("fft", "linear_probe")]
        assert len(svd_rows) == 15
        assert len(base_rows) == 10

    def test_rank_below_one_is_a_cell_error(self):
        spec, model = self.make_pretrained()
        cfg = TrainConfig(iters=2, seed=0)
        rows = rank_sweep(model, spec, cfg, residual_ranks=[0], lora_ranks=[-1], seeds=[0])
        assert [(r["regime"], r["rank"]) for r in rows[:2]] == [("svd", 0), ("lora", -1)]
        assert "out of range" in rows[0]["error"] and "out of range" in rows[1]["error"]
        assert rows[0]["trainable_params"] == rows[1]["trainable_params"] == ""
        assert rows[2]["error"] == rows[3]["error"] == ""

    def test_svd_cells_share_decompositions(self, monkeypatch, svd_inputs):
        """One linalg.svd call per adapted matrix for the whole sweep, and
        the table of per-cell finetune_run calls that do not share them."""
        spec = SyntheticSpec(dim=16, clusters=4, samples_per_split=128, seed=0)
        model = init_model(BackboneConfig(kind="attention", dim=16, depth=1, seq_len=4), seed=0)
        cfg = TrainConfig(iters=5, seed=0)

        def sweep():
            svd_inputs.clear()
            return sweep_csv(rank_sweep(model, spec, cfg, residual_ranks=[1, 2], lora_ranks=[],
                                        seeds=[0, 1]))

        shared = sweep()
        m = len(model.adapters())
        assert len(svd_inputs) == len(set(svd_inputs)) == m == 4
        unshared = experiment.finetune_run
        monkeypatch.setattr(experiment, "finetune_run",
                            lambda pre, sp, c, svd_cache=None: unshared(pre, sp, c))
        assert sweep() == shared
        assert len(svd_inputs) == 2 * 2 * m and len(set(svd_inputs)) == m

    def test_trainable_counts_monotone(self):
        spec, model = self.make_pretrained()
        cfg = TrainConfig(iters=2, seed=0)
        rows = rank_sweep(model, spec, cfg, residual_ranks=[4, 2, 1], lora_ranks=[], seeds=[0])
        counts = [r["trainable_params"] for r in rows if r["regime"] == "svd"]
        assert counts == sorted(counts, reverse=True)

    def test_csv_deterministic(self):
        spec, model = self.make_pretrained()
        cfg = TrainConfig(iters=5, seed=0)
        rows1 = rank_sweep(model, spec, cfg, residual_ranks=[2], lora_ranks=[1], seeds=[0, 1])
        rows2 = rank_sweep(model, spec, cfg, residual_ranks=[2], lora_ranks=[1], seeds=[0, 1])
        assert sweep_csv(rows1) == sweep_csv(rows2)
        header = sweep_csv(rows1).splitlines()[0]
        assert header == ("regime,rank,seed,auc_seen,auc_unseen,acc_seen,acc_unseen,"
                          "rank_before,rank_after,trainable_params,error")

    def test_metrics_present(self):
        spec, model = self.make_pretrained()
        cfg = TrainConfig(iters=30, seed=0)
        rows = rank_sweep(model, spec, cfg, residual_ranks=[], lora_ranks=[2], seeds=[0])
        lora_row = rows[0]
        assert 0.0 <= lora_row["auc_seen"] <= 1.0
        assert lora_row["trainable_params"] > 0
