"""Acceptance gate.

One test per criterion; each prints a PASS/FAIL line (run pytest with -s to
see them on success). Criteria 6-10 share the session-scoped experiment
bundle from conftest: five seeded worlds, four fine-tuning regimes each, at
the default desk-scale recipe (20000 iterations, lr 2e-4, batch 32).
"""

import itertools
import json

import numpy as np

from orthoadapt.adapters import SvdResidualAdapter
from orthoadapt.analysis import asymmetry_trace
from orthoadapt.cli import main as cli_main
from orthoadapt.experiment import _regularizers, accuracy_at_half, roc_auc
from orthoadapt.linalg import frobenius_sq, reconstruct, split, svd
from orthoadapt.model import (
    BackboneConfig,
    adapt_model,
    cls_loss,
    cls_loss_grad,
    init_model,
    model_backward,
    model_forward,
)

from conftest import FINETUNE_ITERS
from test_adapters import make_identity_split


def report_line(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_01_svd_correctness():
    rng = np.random.default_rng(2024)
    worst_rec, worst_orth, worst_eq5 = 0.0, 0.0, 0.0
    sizes = [8] * 20 + [16] * 20 + [64] * 10
    for n in sizes:
        m = rng.standard_normal((n, n))
        f = svd(m)
        rec = np.linalg.norm((f.u * f.s) @ f.v.T - m) / np.linalg.norm(m)
        orth = max(np.linalg.norm(f.u.T @ f.u - np.eye(n)),
                   np.linalg.norm(f.v.T @ f.v - np.eye(n)))
        total = frobenius_sq(m)
        eq5 = abs(total - float(np.sum(f.s**2))) / total
        worst_rec = max(worst_rec, rec)
        worst_orth = max(worst_orth, orth)
        worst_eq5 = max(worst_eq5, eq5)
    ok = worst_rec <= 1e-8 and worst_orth <= 1e-8 and worst_eq5 <= 1e-10
    report_line(1, ok, f"svd on 50 matrices: recon {worst_rec:.2e}, "
                       f"orth {worst_orth:.2e}, energy identity {worst_eq5:.2e}")


def test_criterion_02_eckart_young():
    rng = np.random.default_rng(2025)
    ok = True
    for _ in range(20):
        m = rng.standard_normal((8, 8))
        sp = split(svd(m), 3)
        best = frobenius_sq(m - reconstruct(sp))
        for _ in range(200):
            cand = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
            if frobenius_sq(m - cand) < best - 1e-9:
                ok = False
    report_line(2, ok, "rank-3 truncation beats 200 random rank-3 competitors on 20 cases")


def test_criterion_03_function_preservation():
    rng = np.random.default_rng(2026)
    worst_rec, worst_orth, worst_sv = 0.0, 0.0, 0.0
    for n in (8, 16):
        for residual_rank in (1, 4):
            w = rng.standard_normal((n, n))
            ad = SvdResidualAdapter(w, residual_rank)
            rec = np.linalg.norm(ad.effective_weight() - w) / np.linalg.norm(w)
            worst_rec = max(worst_rec, rec)
            orth, sv, _ = ad.reg_terms(1.0, 1.0)
            worst_orth = max(worst_orth, orth)
            worst_sv = max(worst_sv, sv)
    ok = worst_rec <= 1e-8 and worst_orth <= 1e-10 and worst_sv <= 1e-10
    report_line(3, ok, f"init preservation: recon {worst_rec:.2e}, "
                       f"orth {worst_orth:.2e}, energy {worst_sv:.2e}")


def _total_loss(model, x, y, lam1, lam2):
    logits, _ = model_forward(model, x, train=True)
    loss, _, _ = cls_loss(logits, y)
    orth, sv, _ = _regularizers(model, lam1, lam2)
    return loss + lam1 * orth + lam2 * sv


def test_criterion_04_gradient_oracle():
    lam1, lam2 = 0.7, 0.9
    h = 1e-5
    ok = True
    worst = 0.0
    for kind, seq in (("mlp", 1), ("attention", 4)):
        base = init_model(BackboneConfig(kind=kind, dim=8, depth=1, seq_len=seq), seed=11)
        model = adapt_model(base, "svd", 2, seed=12)
        rng = np.random.default_rng(13)
        x = rng.standard_normal((4 * seq, 8))
        y = rng.integers(0, 2, size=4)
        for arr in model.trainable().values():
            arr += 0.05 * rng.standard_normal(arr.shape)
        logits, _ = model_forward(model, x, train=True)
        grads = model_backward(model, cls_loss_grad(logits, y))
        _, _, reg = _regularizers(model, lam1, lam2)
        for key, g in reg.items():
            grads[key] = grads.get(key, 0.0) + g
        for name, arr in model.trainable().items():
            g = np.asarray(grads[name])
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                plus = _total_loss(model, x, y, lam1, lam2)
                arr[idx] = orig - h
                minus = _total_loss(model, x, y, lam1, lam2)
                arr[idx] = orig
                fd = (plus - minus) / (2 * h)
                ga = float(g[idx])
                if max(abs(fd), abs(ga)) < 1e-3:
                    if abs(fd - ga) > 1e-8:
                        ok = False
                else:
                    rel = abs(fd - ga) / max(abs(fd), abs(ga))
                    worst = max(worst, rel)
                    if rel > 1e-5:
                        ok = False
    report_line(4, ok, f"analytic vs central differences on mlp and attention: worst rel {worst:.2e}")


def test_criterion_05_parameter_accounting():
    # counted one adapter at a time: all 144 held at once peak near 3 GB
    def total(n, count):
        return sum(SvdResidualAdapter.from_split(n, make_identity_split(n, 1)).count_trainable()
                   for _ in range(count))

    got_large = total(1024, 96)
    got_small = total(768, 48)
    formula_large = 96 * (1024 - 1023) * (2 * 1024 + 1)
    formula_small = 48 * (768 - 767) * (2 * 768 + 1)
    ok = (got_large == 196_704 == formula_large
          and got_small == 73_776 == formula_small
          and abs(got_large / 1e6 - 0.19) <= 0.01 and abs(got_small / 1e6 - 0.07) <= 0.005)
    report_line(5, ok, f"trainable counts {got_large} (0.19M scale) and {got_small} (0.07M scale)")


def test_criterion_06_asymmetry(experiment_bundle):
    hits = 0
    details = []
    for seed, world in experiment_bundle.items():
        report = world["runs"]["fft"]["report"]
        tr = asymmetry_trace(report)
        good = False
        if tr.crossing_iter is not None and tr.crossing_iter <= 0.2 * FINETUNE_ITERS:
            idx = int(np.nonzero(tr.iters == tr.crossing_iter)[0][0])
            frac = float(np.mean(tr.fake_loss[idx + 1:] < tr.real_loss[idx + 1:]))
            good = frac >= 0.8
            details.append(f"s{seed}:cross={tr.crossing_iter},frac={frac:.2f}")
        else:
            details.append(f"s{seed}:cross={tr.crossing_iter}")
        hits += good
    report_line(6, hits >= 4, f"fake-class lock-in on {hits}/5 seeds ({' '.join(details)})")


def test_criterion_07_rank_preservation(experiment_bundle):
    pre_ranks, svd_ranks, fft_ranks = [], [], []
    order_hits = 0
    for world in experiment_bundle.values():
        runs = world["runs"]
        pre_ranks.append(runs["svd"]["report"].rank_before)
        svd_ranks.append(runs["svd"]["report"].rank_after)
        fft_ranks.append(runs["fft"]["report"].rank_after)
        lora_rank = runs["lora"]["report"].rank_after
        if runs["svd"]["report"].rank_after > lora_rank > runs["fft"]["report"].rank_after:
            order_hits += 1
    pre, svd_m, fft_m = map(np.mean, (pre_ranks, svd_ranks, fft_ranks))
    ok = svd_m >= 0.9 * pre and fft_m <= 0.8 * pre and order_hits >= 4
    report_line(7, ok, f"semantic rank {pre:.1f} -> svd {svd_m:.1f} / fft {fft_m:.1f}; "
                       f"svd>lora>fft on {order_hits}/5 seeds")


def _unseen_means(bundle):
    means = {}
    for tag in ("svd", "svd_only", "lora", "fft"):
        means[tag] = float(np.mean(
            [w["runs"][tag]["report"].final_metrics["unseen"]["auc"] for w in bundle.values()]))
    return means


def test_criterion_08_generalization_ordering(experiment_bundle):
    means = _unseen_means(experiment_bundle)
    seen = float(np.mean(
        [w["runs"]["svd"]["report"].final_metrics["seen"]["auc"]
         for w in experiment_bundle.values()]))
    ordering = means["svd"] > means["lora"] > means["fft"]
    margin = means["svd"] - means["fft"]
    retention = seen - means["svd"]
    ok = ordering and margin >= 0.03 and retention <= 0.15
    report_line(8, ok, f"unseen AUC svd {means['svd']:.3f} > lora {means['lora']:.3f} > "
                       f"fft {means['fft']:.3f}; margin {margin:+.3f}; retention gap {retention:.3f}")


def test_criterion_09_ablation_direction(experiment_bundle):
    means = _unseen_means(experiment_bundle)
    ok = (means["svd"] >= means["svd_only"] - 0.005
          and means["svd_only"] >= means["fft"] - 0.005)
    report_line(9, ok, f"unseen AUC full {means['svd']:.3f} >= split-only "
                       f"{means['svd_only']:.3f} >= fft {means['fft']:.3f} (ties within 0.005)")


def test_criterion_10_logit_collapse(experiment_bundle):
    fft_hits = sum(w["runs"]["fft"]["collapse"].collapsed for w in experiment_bundle.values())
    svd_free = sum(not w["runs"]["svd"]["collapse"].collapsed for w in experiment_bundle.values())
    ok = fft_hits >= 4 and svd_free >= 4
    report_line(10, ok, f"collapse diagnostic: fft true on {fft_hits}/5, svd false on {svd_free}/5")


def test_criterion_11_metric_oracles():
    scores = np.array([0.05, 0.1, 0.2, 0.4, 0.5, 0.6, 0.8, 0.9])
    ok = True
    for bits in itertools.product((0, 1), repeat=8):
        y = np.array(bits)
        if y.min() == y.max():
            continue
        pos = scores[y == 1]
        neg = scores[y == 0]
        brute = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg) / (len(pos) * len(neg))
        if roc_auc(scores, y) != brute:
            ok = False
    rng = np.random.default_rng(3)
    p = rng.random(100)
    y = rng.integers(0, 2, size=100)
    direct = sum(int((pi >= 0.5) == yi) for pi, yi in zip(p, y)) / 100
    ok = ok and accuracy_at_half(p, y) == direct
    report_line(11, ok, "roc_auc exact on all 2^8 labelings; accuracy matches direct count")


def test_criterion_12_determinism(tmp_path):
    config = {
        "spec": {"dim": 16, "clusters": 4, "samples_per_split": 128, "seed": 5},
        "backbone": {"kind": "mlp", "dim": 16, "depth": 1, "seq_len": 1},
        "pretrain": {"max_iters": 200, "seed": 5},
        "train": {"iters": 30, "regime": "svd", "rank": 2, "seed": 5},
        "sweep": {"residual_ranks": [1], "lora_ranks": [], "seeds": [0]},
    }
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    artifacts = {}
    for run in ("a", "b"):
        pre = tmp_path / f"pre_{run}"
        ft = tmp_path / f"ft_{run}"
        sw = tmp_path / f"sw_{run}"
        assert cli_main(["pretrain", "--config", str(cfg_path), "--out", str(pre)]) == 0
        assert cli_main(["finetune", "--config", str(cfg_path), "--checkpoint", str(pre),
                         "--out", str(ft)]) == 0
        assert cli_main(["sweep", "--config", str(cfg_path), "--checkpoint", str(pre),
                         "--out", str(sw)]) == 0
        artifacts[run] = {
            "trace": (ft / "trace.csv").read_bytes(),
            "summary": (ft / "summary.json").read_bytes(),
            "sweep": (sw / "sweep.csv").read_bytes(),
            "pre_trace": (pre / "pretrain_trace.csv").read_bytes(),
        }
    ok = artifacts["a"] == artifacts["b"]
    report_line(12, ok, "re-runs produce byte-identical CSV/JSON artifacts")
