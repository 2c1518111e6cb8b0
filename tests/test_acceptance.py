"""Acceptance gate: every release criterion, at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and then asserts, so the suite doubles as
a human-readable checklist.  The heavyweight criteria run the frozen
desk-scale benchmark: 1000 transductive 1-shot 5-way episodes on the
reference synthetic store, compared against the golden numbers recorded in
``tests/golden/reference_benchmark.json``.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from tafssl.classify import build_prototypes, nn_classify
from tafssl.cluster import bkm, msp
from tafssl.episodes import EpisodeSpec, MoGSpec, generate_mog_store, mutual_information_diagnostic, reference_store, sample_episode
from tafssl.harness import BenchmarkConfig, evaluate_episode, parse_method, run_benchmark, write_csv
from tafssl.linalg import sym_eig
from tafssl.subspace import fit_ica, whiten

GOLDEN = json.loads((Path(__file__).parent / "golden" / "reference_benchmark.json").read_text())


def report(criterion: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def ref_store():
    return reference_store()


@pytest.fixture(scope="module")
def reference_run(ref_store):
    cfg = BenchmarkConfig(
        method="nn,pca-nn,ica-nn,ica-msp",
        episodes=GOLDEN["config"]["episodes"],
        seed=GOLDEN["config"]["seed"],
        synthetic="reference",
    )
    t0 = time.perf_counter()
    reports = {r.method: r for r in run_benchmark(cfg, store=ref_store)}
    return reports, time.perf_counter() - t0


def test_criterion_1_algebraic_identities():
    # BKM with a single cluster must equal the closed-form soft-NN posterior.
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 5))
        shots = int(rng.integers(1, 4))
        support = rng.normal(size=(n_classes * shots, 4))
        labels = np.repeat(np.arange(n_classes), shots)
        queries = rng.normal(size=(6, 4))
        pool = np.vstack([support, queries])
        post = bkm(support, labels, queries, pool, k=1, seed=seed)
        neg = -((queries[:, None, :] - support[None, :, :]) ** 2).sum(axis=2)
        w = np.exp(neg - neg.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        oracle = np.stack([w[:, labels == c].sum(axis=1) for c in range(n_classes)], axis=1)
        worst = max(worst, float(np.abs(post - oracle).max()))
    ok_bkm = worst <= 1e-12

    # MSP with zero iterations is bit-identical to the prototype baseline.
    ok_msp = True
    for seed in range(20):
        rng = np.random.default_rng((2, seed))
        support = rng.normal(size=(5, 6))
        labels = np.arange(5)
        queries = rng.normal(size=(15, 6))
        res = msp(support, labels, queries, np.vstack([support, queries]), iterations=0)
        preds, post = nn_classify(queries, build_prototypes(support, labels))
        ok_msp &= np.array_equal(res.predictions, preds) and np.array_equal(res.posterior, post)

    # Full-rank PCA cannot change nearest-prototype decisions.
    store = generate_mog_store(MoGSpec(m=10, signal_dims=4), 12, 40, seed=5)
    ok_pca = True
    for i in range(100):
        ep = sample_episode(store, EpisodeSpec(seed=(4, i)))
        raw = evaluate_episode(ep, parse_method("nn"), seed=(4, i))
        full = evaluate_episode(ep, parse_method("pca-nn", dim=10), seed=(4, i))
        ok_pca &= bool(np.array_equal(raw, full))

    report(
        "criterion 1 (algebraic identities)",
        ok_bkm and ok_msp and ok_pca,
        f"bkm k=1 max err {worst:.2e} (<=1e-12); msp N=0 bit-identical: {ok_msp}; "
        f"full-rank pca preserves decisions on 100 episodes: {ok_pca}",
    )


def test_criterion_2_numerical_core():
    t0 = time.perf_counter()

    # Symmetric eigendecomposition round trip.
    worst_eig = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((12, 12))
        C = (A + A.T) / 2
        evals, V = sym_eig(C)
        err = np.abs(V @ np.diag(evals) @ V.T - C).max() / max(1.0, np.abs(C).max())
        worst_eig = max(worst_eig, float(err))
    ok_eig = worst_eig <= 1e-8

    # Whitened covariance is the identity.
    worst_white = 0.0
    for seed in range(10):
        rng = np.random.default_rng((1, seed))
        X = rng.normal(0, rng.uniform(0.5, 8.0, size=5), size=(400, 5))
        Xw, _ = whiten(X, 5)
        worst_white = max(worst_white, float(np.abs((Xw.T @ Xw) / len(Xw) - np.eye(5)).max()))
    ok_white = worst_white <= 1e-6

    # FastICA separates two mixed uniform sources.
    recovered = 0
    for trial in range(100):
        rng = np.random.default_rng((7, trial))
        S = rng.uniform(-np.sqrt(3), np.sqrt(3), size=(1500, 2))
        A = rng.normal(size=(2, 2)) + np.eye(2)
        X = S @ A.T + rng.normal(size=2)
        R = fit_ica(X, 2, seed=trial).apply(X)
        C = np.abs(np.corrcoef(np.hstack([R, S]).T)[:2, 2:])
        if max(min(C[0, 0], C[1, 1]), min(C[0, 1], C[1, 0])) > 0.95:
            recovered += 1
    ok_ica = recovered >= 95

    elapsed = time.perf_counter() - t0
    ok_time = elapsed < 60.0
    report(
        "criterion 2 (numerical core)",
        ok_eig and ok_white and ok_ica and ok_time,
        f"eig round-trip {worst_eig:.2e} (<=1e-8); whitened cov err {worst_white:.2e} (<=1e-6); "
        f"ica recovery {recovered}/100 (>=95); numerical-core property checks {elapsed:.1f}s (<60s)",
    )


@pytest.mark.filterwarnings("ignore::tafssl.linalg.NumericalWarning")
def test_criterion_3_posterior_hygiene():
    # Degenerate-denominator fallbacks are expected here: the fuzz feeds
    # extreme scales on purpose and checks the outputs stay clean.
    rows = 0
    worst_sum = 0.0
    finite = True
    for seed in range(120):
        rng = np.random.default_rng((3, seed))
        scale = 10.0 ** rng.integers(-3, 4)
        n_classes = int(rng.integers(2, 6))
        shots = int(rng.integers(1, 4))
        support = rng.normal(size=(n_classes * shots, 5)) * scale
        labels = np.repeat(np.arange(n_classes), shots)
        queries = rng.normal(size=(30, 5)) * scale
        pool = np.vstack([support, queries])

        _, post_nn = nn_classify(queries, build_prototypes(support, labels))
        post_bkm = bkm(support, labels, queries, pool, k=min(5, len(pool)), seed=seed)
        post_msp = msp(support, labels, queries, pool).posterior
        for post in (post_nn, post_bkm, post_msp):
            rows += post.shape[0]
            worst_sum = max(worst_sum, float(np.abs(post.sum(axis=1) - 1.0).max()))
            finite &= bool(np.isfinite(post).all())
    ok = rows >= 10000 and worst_sum <= 1e-9 and finite
    report(
        "criterion 3 (posterior hygiene)",
        ok,
        f"{rows} fuzzed rows; worst |row sum - 1| = {worst_sum:.2e} (<=1e-9); all finite: {finite}",
    )


def test_criterion_4_synthetic_tafssl_effect(reference_run):
    reports, elapsed = reference_run
    nn_r, pca_r = reports["nn"], reports["pca-nn"]
    ica_r, msp_r = reports["ica-nn"], reports["ica-msp"]

    ok_pca = pca_r.accuracy > nn_r.accuracy and (pca_r.accuracy - pca_r.ci95) > (nn_r.accuracy + nn_r.ci95)
    ok_msp = msp_r.accuracy >= ica_r.accuracy and (msp_r.accuracy - msp_r.ci95) > (ica_r.accuracy + ica_r.ci95)

    tol = GOLDEN["tolerance_points"]
    drift = {m: abs(reports[m].accuracy - GOLDEN["accuracy"][m]) for m in GOLDEN["accuracy"]}
    ok_golden = all(v <= tol for v in drift.values())
    ok_time = elapsed < 300.0

    report(
        "criterion 4 (synthetic TAFSSL effect)",
        ok_pca and ok_msp and ok_golden and ok_time,
        f"pca-nn {pca_r.accuracy:.2f}±{pca_r.ci95:.2f} > nn {nn_r.accuracy:.2f}±{nn_r.ci95:.2f} (disjoint: {ok_pca}); "
        f"ica-msp {msp_r.accuracy:.2f}±{msp_r.ci95:.2f} >= ica-nn {ica_r.accuracy:.2f}±{ica_r.ci95:.2f} (disjoint: {ok_msp}); "
        f"max golden drift {max(drift.values()):.3f} (<= {tol}); runtime {elapsed:.0f}s (<300s)",
    )


def test_golden_accuracies_are_bit_identical(reference_run):
    # Criterion 4 allows 0.5 points of drift; a refactor allows none.  These
    # are the reprs the golden run has produced since the seed.
    reports, _ = reference_run
    assert {m: repr(r.accuracy) for m, r in reports.items()} == {
        "nn": "69.22399999999999",
        "pca-nn": "78.95066666666666",
        "ica-nn": "49.24933333333333",
        "ica-msp": "63.7",
    }
    assert {m: r.metadata["warnings"] for m, r in reports.items()} == dict.fromkeys(reports, 0)


def test_criterion_5_unbalance_robustness(ref_store):
    accs = {}
    for r_value in (0, 50):
        cfg = BenchmarkConfig(method="ica-msp", episodes=1000, seed=0, synthetic="reference", unbalanced_r=r_value)
        accs[r_value] = run_benchmark(cfg, store=ref_store)[0].accuracy
    # Robustness bound: skewing the query set must not degrade accuracy by
    # more than 3 points.  The method may legitimately gain, since R adds
    # queries and thereby enlarges the unlabeled pool it learns from.
    loss = accs[0] - accs[50]
    ok = loss <= 3.0
    report(
        "criterion 5 (unbalance robustness)",
        ok,
        f"ica-msp R=0 {accs[0]:.2f}%, R=50 {accs[50]:.2f}%, loss {loss:+.2f} points (<= 3)",
    )


def test_criterion_6_variance_decomposition(ref_store):
    spec = MoGSpec(m=64, signal_dims=8, rho_signal=0.8, mu_noise=0.0, sigma_noise=1.0, sigma_between=3.0, sigma_signal=1.0)
    store, cmeans = generate_mog_store(spec, 20, 500, seed=0, return_class_means=True)
    X, _ = store.stacked()
    rho_n = 1.0 - spec.rho_signal
    worst = 0.0
    for d in range(spec.m):
        if d < spec.signal_dims:
            m2 = float((cmeans[:, d] ** 2).mean())
            mix_mean = rho_n * spec.mu_noise + spec.rho_signal * float(cmeans[:, d].mean())
            theory = rho_n * (spec.mu_noise**2 + spec.sigma_noise**2) + spec.rho_signal * (m2 + spec.sigma_signal**2) - mix_mean**2
        else:
            theory = spec.sigma_noise**2
        worst = max(worst, abs(float(X[:, d].var()) - theory) / theory)
    ok_var = worst < 0.05

    mi = mutual_information_diagnostic(ref_store, bins=32)
    signal_mi, noise_mi = float(mi[:8].mean()), float(mi[8:].mean())
    ok_mi = signal_mi > noise_mi

    report(
        "criterion 6 (mixture variance + MI ranking)",
        ok_var and ok_mi,
        f"worst variance error {worst * 100:.2f}% (<5%) over 10000 samples/dim; "
        f"signal MI {signal_mi:.3f} > noise MI {noise_mi:.3f}: {ok_mi}",
    )


def test_criterion_7_throughput():
    store = generate_mog_store(MoGSpec(m=1024, signal_dims=32, sigma_between=2.0), 10, 40, seed=1)
    ep = sample_episode(store, EpisodeSpec(n_way=5, k_shot=1, queries_per_class=15, seed=1))
    assert ep.query.shape == (75, 1024)
    pipe = parse_method("ica-bkm")  # r = 10
    evaluate_episode(ep, pipe, seed=(1, 0))  # warm-up outside the budget
    best = min(_timed_episode(ep, pipe) for _ in range(3))
    ok = best < 0.2
    report(
        "criterion 7 (throughput)",
        ok,
        f"ica-bkm episode (75 queries, m=1024, r=10): {best * 1000:.0f} ms (<200 ms)",
    )


def _timed_episode(ep, pipe):
    t0 = time.perf_counter()
    evaluate_episode(ep, pipe, seed=(1, 0))
    return time.perf_counter() - t0


def test_criterion_8_determinism(ref_store, tmp_path):
    blobs = []
    for i, workers in enumerate((1, 2)):
        cfg = BenchmarkConfig(
            method="nn,pca-nn,ica-msp",
            episodes=60,
            seed=11,
            synthetic="reference",
            workers=workers,
            unbalanced_r=10,
        )
        table = [(None, run_benchmark(cfg, store=ref_store))]
        path = tmp_path / f"run{i}.csv"
        write_csv(path, table)
        blobs.append(path.read_bytes())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    report(
        "criterion 8 (determinism)",
        ok,
        f"CSV byte-identical across workers=1 and workers=2 ({len(blobs[0])} bytes): {ok}",
    )
