"""Output checks: properties every separation must have.

Nothing is compared with stored output. Each function returns a list
of problems, empty when the outputs pass.
"""

from __future__ import annotations

import csv
import io

import numpy as np

from otbss import kron
from otbss.sinkhorn import SinkhornParams

# relative tolerances, orders of magnitude above the rounding seen on the
# reference scene and the grid (below 1e-14)
DEMIX_TOL = 1e-10
IMAGE_SUM_TOL = 1e-9
KRON_TOL = 1e-12
# relative drop allowed between consecutive ILRMA objective values
MONOTONE_TOL = 1e-9
# the CLI writes each summary mean with four decimals
SUMMARY_TOL = 0.5e-4 + 1e-9
BENCH_HEADER = ["t60", "trial", "method", "source", "sdr_imp_db", "sir_imp_db", "wall_ms", "status"]


def rel_err(got, want) -> float:
    want = np.asarray(want)
    return float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want)))


def check_separation(mixture, spec, result, separated, ref_mic: int = 0) -> list:
    """Back-projection, demixing and finiteness properties of one separate() call.

    ``mixture`` is the time-domain mixture, ``spec`` its STFT as passed
    to separate(), ``separated`` the ISTFT of the back-projected images.
    """
    problems = []
    x = spec.data
    demixing = result.demixing
    for name, arr in (
        ("estimates", result.estimates.data),
        ("images", result.images.data),
        ("demixing", demixing),
        ("separated signals", separated.samples),
    ):
        if not np.all(np.isfinite(arr)):
            problems.append(f"{name} are not all finite")
    if problems:
        return problems
    sign, logdet = np.linalg.slogdet(demixing)
    if np.any(sign == 0) or not np.all(np.isfinite(logdet)):
        problems.append(f"{int(np.sum(sign == 0))} singular demixing matrices")
    recomputed = np.matmul(demixing, x.transpose(1, 0, 2)).transpose(1, 0, 2)
    err = rel_err(result.estimates.data, recomputed)
    if err > DEMIX_TOL:
        problems.append(f"estimates differ from D_f x by {err:.1e}")
    err = rel_err(result.images.data.sum(axis=0), x[ref_mic])
    if err > IMAGE_SUM_TOL:
        problems.append(f"images sum to the reference-mic STFT only to {err:.1e}")
    err = rel_err(separated.samples.sum(axis=0), mixture.samples[ref_mic])
    if err > IMAGE_SUM_TOL:
        problems.append(f"separated signals sum to the reference-mic mixture only to {err:.1e}")
    return problems


def check_monotone(result) -> list:
    """The ILRMA likelihood recorded in the trace never decreases."""
    obj = np.array([record.objective for record in result.trace])
    if obj.size < 2:
        return []
    drop = float(np.max((obj[:-1] - obj[1:]) / np.abs(obj[:-1])))
    return [f"objective dropped by {drop:.1e} (relative)"] if drop > MONOTONE_TOL else []


def check_sir_gain(sir) -> list:
    """Separation helps: the pooled SIR improvement of one scene is positive."""
    return [] if np.mean(sir) > 0 else [f"pooled SIR improvement {np.mean(sir):.2f} dB <= 0"]


def check_sdr_rows(ops) -> list:
    """The pooled SDR improvement of every T60 row of a round is positive."""
    rows = {}
    for op in ops:
        if op.quality and not op.failed:
            rows.setdefault(op.t60, []).extend(op.sdr)
    return [f"pooled SDR improvement {np.mean(sdr):.2f} dB <= 0 at t60={t60:g}"
            for t60, sdr in rows.items() if np.mean(sdr) <= 0]


def check_kron_apply(seed: int, n_bins: int = 513, n_cols: int = 129) -> list:
    """The factored apply equals the materialized kernel at the reference shape."""
    kernel = kron.factorized_kernel(kron.kron_sum_cost(kron.factorize_bins(n_bins, 2)), SinkhornParams().mu)
    x = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n_bins, n_cols))
    dense = kernel.materialize()
    err = max(rel_err(kernel.apply(x), dense @ x), rel_err(kernel.apply_adjoint(x), dense.T @ x))
    return [f"kron apply differs from the materialized kernel by {err:.1e}"] if err > KRON_TOL else []


def parse_bench_csv(text: str):
    """Data rows and summary lines of an ``otbss benchmark`` CSV."""
    lines = text.splitlines()
    rows = list(csv.reader(io.StringIO("\n".join(l for l in lines[1:] if not l.startswith("#")))))
    summaries = [l for l in lines if l.startswith("# summary")]
    return lines[0].split(",") if lines else [], rows, summaries


def check_bench_csv(text: str) -> list:
    """Header and summary means of one benchmark CSV."""
    header, rows, summaries = parse_bench_csv(text)
    if header != BENCH_HEADER:
        return [f"unexpected header {header}"]
    problems = [] if summaries else ["no summary lines"]
    for line in summaries:
        if line.endswith("no successful trials"):
            continue  # counted as a failed operation from the row statuses
        fields = dict(f.split("=", 1) for f in line.split()[2:])
        members = [r for r in rows if float(r[0]) == float(fields["t60"]) and r[2] == fields["method"] and r[7] == "ok"]
        if not members or int(fields.get("n", -1)) != len(members):
            problems.append(f"summary {line!r} does not count its rows")
            continue
        for key, col in (("mean_sdr_imp_db", 4), ("mean_sir_imp_db", 5)):
            mean = float(np.mean([float(r[col]) for r in members]))
            if abs(float(fields[key]) - mean) > SUMMARY_TOL:
                problems.append(f"summary {key}={fields[key]} but its rows average {mean:.6f}")
    return problems


def without_wall_ms(text: str) -> list:
    """CSV lines with the wall-clock column removed."""
    wall = BENCH_HEADER.index("wall_ms")
    return [l if l.startswith("#") else ",".join(f for i, f in enumerate(l.split(",")) if i != wall)
            for l in text.splitlines()]


def check_rounds_repeat(ops: list, round_len: int) -> list:
    """Every round separates to the same images as the first one."""
    return [f"{op.name}: images differ from the first round"
            for i, op in enumerate(ops)
            if not op.failed and not ops[i % round_len].failed and op.digest != ops[i % round_len].digest]
