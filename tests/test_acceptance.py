"""End-to-end gate: ten numbered checks, one printed verdict line each.

Every check records a `[ k/10] name: PASS/FAIL (...)` line that the
conftest terminal-summary hook replays after the run (pytest captures
plain prints), and enforces both the numeric claim and its wall-clock
budget. The heavy end-to-end checks (6 and 7) dominate the runtime of
the whole suite.
"""

import csv
import time
import warnings

import numpy as np
import pytest

from helpers import ACCEPTANCE_VERDICTS, is_divergence, materialize_kron_sum, schroeder_t60
from otbss import engine
from otbss.audio import StftConfig, TimeSignal, istft, read_wav, stft
from otbss.cli import EXIT_OK, main
from otbss.engine import SeparationConfig, separate
from otbss.kron import factorized_kernel, kron_sum_cost
from otbss.metrics import improvement, sdr_sir, sdr_sir_sets
from otbss.nmf import init_nmf, is_update, variance
from otbss.roomsim import convolve_mix, image_source_rir, make_scene_sisec, synth_speech
from otbss.sinkhorn import SinkhornParams, build_cost_sq, compute_frame_marginals, gibbs_kernel


def _verdict(index, name, ok, detail, elapsed, budget):
    within = elapsed < budget
    status = "PASS" if (ok and within) else "FAIL"
    line = (
        f"[{index:2d}/10] {name}: {status} "
        f"({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    )
    ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, line
    assert within, line


def _rel_err(got, want):
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


def _speech_cell(t60, seed, duration, sample_rate=16000):
    """Simulated two-speaker scene: mixture, reference-mic images."""
    rng = np.random.default_rng(seed)
    angle1 = float(rng.uniform(10.0, 80.0))
    angle2 = float(rng.uniform(-80.0, -10.0))
    scene = make_scene_sisec(t60, angle1, angle2, sample_rate=sample_rate)
    rir = image_source_rir(scene)
    sources = [synth_speech(duration, sample_rate, seed=seed * 1000 + n) for n in range(2)]
    mixture, images = convolve_mix(sources, rir)
    refs = [TimeSignal(img.samples[:1], sample_rate) for img in images]
    return mixture, refs


def _mean_sdr_improvements(mixture, refs, methods, seed, stft_cfg, outer_iters=50):
    """Mean SDR improvement of each method; the baseline and all methods scored in one call."""
    mix0 = TimeSignal(mixture.samples[:1], mixture.sample_rate)
    spec = stft(mixture, stft_cfg)
    sets = [[mix0, mix0]]
    for method in methods:
        cfg = SeparationConfig(method=method, outer_iters=outer_iters, seed=seed, stft=stft_cfg)
        est = istft(separate(spec, cfg, n_sources=2).images)
        sets.append([TimeSignal(est.samples[n : n + 1], est.sample_rate) for n in range(2)])
    baseline, *scored = sdr_sir_sets(sets, refs)
    return [float(np.mean(improvement(s, baseline).sdr)) for s in scored]


def test_01_factorized_marginals_match_dense():
    start = time.perf_counter()
    worst = 0.0
    # tol far below reach so both backends run the same iteration count
    params = SinkhornParams(mu=100.0, gamma=10.0, max_iter=40, tol=1e-300)
    for n_bins, dims in ((12, (4, 3)), (16, (4, 4)), (36, (6, 6)), (64, (8, 8))):
        rng = np.random.default_rng(n_bins)
        u, v, a, b = (rng.uniform(0.2, 3.0, size=n_bins) for _ in range(4))
        cost = kron_sum_cost(dims)
        kron = factorized_kernel(cost, params.mu)
        dense = gibbs_kernel(materialize_kron_sum(cost), params.mu)
        worst = max(worst, _rel_err(u * kron.apply(v), u * (dense @ v)))
        worst = max(worst, _rel_err(v * kron.apply_adjoint(u), v * (dense.T @ u)))
        mk = compute_frame_marginals(a[:, None], b[:, None], kron, params)
        md = compute_frame_marginals(a[:, None], b[:, None], dense, params)
        worst = max(worst, _rel_err(mk.row, md.row), _rel_err(mk.col, md.col))
    _verdict(
        1,
        "factorized vs dense transport marginals",
        worst < 1e-12,
        f"max rel err {worst:.2e} over F in (12, 16, 36, 64)",
        time.perf_counter() - start,
        10.0,
    )


def test_02_balanced_limit_recovers_marginals():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    a = rng.uniform(0.5, 2.0, size=8)
    b = rng.uniform(0.5, 2.0, size=8)
    b *= a.sum() / b.sum()
    params = SinkhornParams(mu=100.0, gamma=1e6, max_iter=20000, tol=1e-13)
    kernel = gibbs_kernel(build_cost_sq(8), params.mu)
    marg = compute_frame_marginals(a[:, None], b[:, None], kernel, params)
    err = max(_rel_err(marg.row[:, 0], a), _rel_err(marg.col[:, 0], b))
    _verdict(
        2,
        "tight-marginal limit pins the transported mass",
        err < 1e-3,
        f"marginal rel err {err:.2e} at gamma=1e6",
        time.perf_counter() - start,
        1.0,
    )


def test_03_model_fit_never_degrades():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_slack = -np.inf
    for trial in range(100):
        power = rng.uniform(0.05, 4.0, size=(8, 8))
        model = init_nmf(8, 8, 2, seed=trial)
        fit = is_divergence(power, variance(model))
        for _ in range(3):
            model = is_update(model, power)
            nxt = is_divergence(power, variance(model))
            worst_slack = max(worst_slack, nxt - fit)
            fit = nxt
    _verdict(
        3,
        "multiplicative variance updates are monotone",
        worst_slack <= 1e-10,
        f"worst fit increase {worst_slack:.2e} over 100 instances",
        time.perf_counter() - start,
        5.0,
    )


def test_04_demixed_likelihood_is_monotone():
    start = time.perf_counter()
    stft_cfg = StftConfig(window_len=256, hop=64)
    worst = -np.inf
    for seed in range(10):
        mixture, _ = _speech_cell(0.0, seed, duration=1.5)
        cfg = SeparationConfig(method="ilrma", outer_iters=30, seed=seed, stft=stft_cfg)
        result = separate(stft(mixture, stft_cfg), cfg, n_sources=2)
        obj = np.array([r.objective for r in result.trace])
        slack = np.max((obj[:-1] - obj[1:]) / np.abs(obj[:-1]))
        worst = max(worst, float(slack))
    _verdict(
        4,
        "separation likelihood never decreases",
        worst <= 1e-6,
        f"worst relative drop {worst:.2e} over 10 runs x 30 iterations",
        time.perf_counter() - start,
        120.0,
    )


def test_05_oracle_variances_drive_demixing_home():
    # sources drawn exactly from the local Gaussian model, with per-cell
    # dominance 60 dB apart so the likelihood pins the unmixing system;
    # overlapping-spectrum sources would cap the attainable accuracy at
    # the estimator's own statistical floor instead
    start = time.perf_counter()
    from otbss.engine import init_demixing, ip_update

    n_bins, n_frames = 64, 400
    small = 1e-6
    passes = 0
    medians = []
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        off = rng.uniform(0.35, 0.7, size=2) * rng.choice([-1.0, 1.0], size=2)
        mix = np.array([[1.0, off[0]], [off[1], 1.0]])
        mask = rng.random((n_bins, n_frames)) < 0.5
        lam = np.empty((2, n_bins, n_frames))
        lam[0] = np.where(mask, 1.0, small) * rng.uniform(0.5, 2.0, size=(n_bins, n_frames))
        lam[1] = np.where(mask, small, 1.0) * rng.uniform(0.5, 2.0, size=(n_bins, n_frames))
        z = (
            rng.standard_normal((2, n_bins, n_frames))
            + 1j * rng.standard_normal((2, n_bins, n_frames))
        ) / np.sqrt(2.0)
        x = np.einsum("mn,nft->mft", mix, np.sqrt(lam) * z)
        d = init_demixing(2, n_bins)
        for _ in range(30):
            d = ip_update(d, x, lam)
        ratios = []
        for f in range(n_bins):
            g = np.abs(d[f] @ mix)
            direct = (g[0, 1] + g[1, 0]) / (g[0, 0] + g[1, 1])
            swapped = (g[0, 0] + g[1, 1]) / (g[0, 1] + g[1, 0])
            ratios.append(min(direct, swapped))
        med = float(np.median(ratios))
        medians.append(med)
        passes += med < 1e-3
    _verdict(
        5,
        "oracle variances recover the unmixing system",
        passes >= 9,
        f"{passes}/10 seeds below 1e-3 (median of medians {np.median(medians):.1e})",
        time.perf_counter() - start,
        60.0,
    )


@pytest.mark.slow
def test_06_end_to_end_separation_quality():
    start = time.perf_counter()
    stft_cfg = StftConfig(window_len=1024, hop=256)
    thresholds = {0.0: 10.0, 0.3: 3.0}
    means = {}
    ok = True
    details = []
    for t60, floor in thresholds.items():
        gains = {"ilrma": [], "sdilrma-kron": []}
        for seed in range(20):
            mixture, refs = _speech_cell(t60, seed, duration=2.0)
            improvements = _mean_sdr_improvements(mixture, refs, gains, seed, stft_cfg)
            for method, gain in zip(gains, improvements):
                gains[method].append(gain)
        for method, values in gains.items():
            mean = float(np.mean(values))
            means[(t60, method)] = mean
            ok = ok and mean > floor
            details.append(f"{method}@{t60:g}s {mean:+.1f}dB (floor {floor:g})")
    _verdict(
        6,
        "both methods separate clean and reverberant scenes",
        ok,
        ", ".join(details),
        time.perf_counter() - start,
        900.0,
    )


@pytest.mark.slow
def test_07_transport_method_keeps_pace_on_the_grid(tmp_path):
    start = time.perf_counter()
    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"schema": 1, "t60_grid": [0.0, 0.1, 0.2, 0.3], "trials": 5,'
        ' "methods": ["ilrma", "sdilrma-kron"], "duration": 2.0}'
    )
    out = tmp_path / "bench.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["benchmark", "--config", str(plan), "--out", str(out)]) == EXIT_OK
    with out.open() as fh:
        rows = [r for r in csv.DictReader(fh) if not r["t60"].startswith("#")]
    assert all(r["status"] == "ok" for r in rows)
    pooled = {
        m: np.mean([float(r["sdr_imp_db"]) for r in rows if r["method"] == m])
        for m in ("ilrma", "sdilrma-kron")
    }
    anechoic = {
        m: np.mean(
            [float(r["sdr_imp_db"]) for r in rows if r["method"] == m and r["t60"] == "0"]
        )
        for m in ("ilrma", "sdilrma-kron")
    }
    ok = (
        pooled["sdilrma-kron"] >= pooled["ilrma"] - 0.5
        and anechoic["sdilrma-kron"] > anechoic["ilrma"]
    )
    _verdict(
        7,
        "transport model keeps pace across the reverberation grid",
        ok,
        f"pooled sdilrma-kron {pooled['sdilrma-kron']:+.2f} vs ilrma {pooled['ilrma']:+.2f} dB, "
        f"anechoic {anechoic['sdilrma-kron']:+.2f} vs {anechoic['ilrma']:+.2f} dB",
        time.perf_counter() - start,
        1800.0,
    )


def test_08_dense_and_factorized_runs_agree(monkeypatch):
    start = time.perf_counter()
    fs = 16000
    stft_cfg = StftConfig(window_len=256, hop=64)
    dry = np.vstack([synth_speech(1.0, fs, seed=s).samples[0] for s in (11, 22)])
    mix = np.array([[1.0, 0.6], [0.45, 1.0]])
    spec = stft(TimeSignal(mix @ dry, fs), stft_cfg)
    common = dict(outer_iters=20, seed=3, stft=stft_cfg)
    # kron splits the 129 bins as (43, 3); the dense run gets the same
    # Kronecker-sum cost, materialized by the test oracle
    kron = separate(spec, SeparationConfig(method="sdilrma-kron", **common))
    monkeypatch.setattr(engine, "build_cost_sq", lambda n: materialize_kron_sum(kron_sum_cost((43, 3))))
    dense = separate(spec, SeparationConfig(method="sdilrma-dense", **common))
    err = float(
        np.max(np.abs(kron.estimates.data - dense.estimates.data))
        / np.max(np.abs(dense.estimates.data))
    )
    _verdict(
        8,
        "dense and factorized backends give the same separation",
        err < 1e-6,
        f"final estimate rel err {err:.2e} after 20 iterations",
        time.perf_counter() - start,
        300.0,
    )


def test_09_factorized_apply_is_fast():
    start = time.perf_counter()
    n_bins, dims = 4096, (64, 64)
    kron = factorized_kernel(kron_sum_cost(dims), 100.0)
    counted = kron.apply_cost()
    dense = gibbs_kernel(build_cost_sq(n_bins), 100.0)
    rng = np.random.default_rng(9)
    x = rng.uniform(0.1, 1.0, size=(n_bins, 8))

    def best_of(fn, repeats=7):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    t_dense = best_of(lambda: dense @ x)
    t_kron = best_of(lambda: kron.apply(x))
    speedup = t_dense / t_kron
    ok = speedup >= 5.0 and counted == n_bins * sum(dims)
    _verdict(
        9,
        "factorized kernel apply beats the dense multiply",
        ok,
        f"{speedup:.1f}x at F=4096 ({t_dense*1e3:.1f}ms vs {t_kron*1e3:.2f}ms), "
        f"counted {counted} = F*(f1+f2) multiplies",
        time.perf_counter() - start,
        60.0,
    )


def test_10_infrastructure_oracles(tmp_path):
    start = time.perf_counter()
    problems = []

    rng = np.random.default_rng(10)
    sig = TimeSignal(rng.standard_normal((2, 8000)), 16000)
    cfg = StftConfig(window_len=512, hop=128)
    round_trip = float(np.max(np.abs(istft(stft(sig, cfg)).samples - sig.samples)))
    if round_trip > 1e-10:
        problems.append(f"analysis round trip {round_trip:.1e}")

    worst_t60 = 0.0
    for t60 in (0.2, 0.3, 0.4, 0.5, 0.6):
        scene = make_scene_sisec(t60, 40.0, -40.0)
        rir = image_source_rir(scene)
        measured = schroeder_t60(rir.taps[0, 0], rir.sample_rate)
        worst_t60 = max(worst_t60, abs(measured - t60) / t60)
    if worst_t60 > 0.2:
        problems.append(f"decay-time error {worst_t60:.0%}")
    with pytest.warns(UserWarning, match="clamping"):
        image_source_rir(make_scene_sisec(0.1, 40.0, -40.0))

    n = 6000
    t = np.arange(n) / 8000.0
    ref = np.sin(2 * np.pi * 440.0 * t)
    other = np.sin(2 * np.pi * 1180.0 * t)
    noise = other - ref * (np.dot(other, ref) / np.dot(ref, ref))
    noise *= np.sqrt(np.sum(ref**2) / np.sum(noise**2) * 10 ** (-20 / 10))
    sdr = sdr_sir([ref + noise], [ref]).sdr[0]
    if abs(sdr - 20.0) > 0.5:
        problems.append(f"constructed 20 dB read back as {sdr:.2f}")

    plan = tmp_path / "plan.json"
    plan.write_text(
        '{"schema": 1, "t60_grid": [0.0], "trials": 1, "methods": ["ilrma"],'
        ' "duration": 0.8, "outer_iters": 3, "window_len": 256, "hop": 64}'
    )
    outputs = []
    for name in ("b1.csv", "b2.csv"):
        out = tmp_path / name
        assert main(["benchmark", "--config", str(plan), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        stripped = [
            ",".join(l.split(",")[:6] + l.split(",")[7:]) if not l.startswith("#") else l
            for l in lines
        ]
        outputs.append(stripped)
    if outputs[0] != outputs[1]:
        problems.append("benchmark CSV not reproducible for a fixed seed")

    _verdict(
        10,
        "infrastructure oracles hold",
        not problems,
        "; ".join(problems) if problems else
        f"round trip {round_trip:.1e}, decay err {worst_t60:.0%}, 20 dB read {sdr:.2f}",
        time.perf_counter() - start,
        120.0,
    )
