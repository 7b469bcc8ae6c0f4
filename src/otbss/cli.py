"""Command-line interface tying simulation, separation, and evaluation.

Four verbs: ``simulate`` renders a two-speaker room mixture to WAV
files, ``separate`` demixes a multichannel WAV, ``evaluate`` scores
estimates against references, and ``benchmark`` sweeps a T60 grid
running simulate/separate/evaluate per cell and collecting improvement
deltas into one CSV. All commands are deterministic for a fixed seed;
exit codes are 0 on success, 2 for configuration or usage problems,
and 3 for numeric failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .audio import StftConfig, TimeSignal, istft, read_wav, stft, write_wav
from .engine import METHODS, SeparationConfig, separate
from .errors import (
    DegenerateGeometryError,
    DemixingNumericError,
    SinkhornNumericError,
    WavFormatError,
)
from .metrics import improvement, sdr_sir, sdr_sir_sets
from .roomsim import convolve_mix, image_source_rir, make_scene_sisec, synth_speech
from .sinkhorn import SinkhornParams

log = logging.getLogger("otbss")

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
N_SPEAKERS = 2
DEFAULT_T60_GRID = tuple(round(0.05 * i, 2) for i in range(13))
BENCH_FIELDS = ("t60", "trial", "method", "source", "sdr_imp_db", "sir_imp_db", "wall_ms", "status")


class ConfigError(ValueError):
    """Raised for malformed or unsupported configuration input."""


def _float_value(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}")
    return float(value)


def _int_value(value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}")
    return int(value)


def _list_value(convert):
    def check(value):
        if not isinstance(value, list):
            raise ConfigError(f"expected a list, got {value!r}")
        return [convert(x) for x in value]

    return check


def _load_config(path, known: dict) -> dict:
    """Merge a JSON config over defaults, rejecting unknown keys."""
    data = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as err:
            raise ConfigError(f"cannot read config {path}: {err}") from err
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}:{err.lineno}:{err.colno}: {err.msg}") from err
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: top level must be an object")
        if data.get("schema") != SCHEMA_VERSION:
            raise ConfigError(
                f"{path}: missing or unsupported schema (expected \"schema\": {SCHEMA_VERSION})"
            )
        unknown = sorted(set(data) - set(known) - {"schema"})
        if unknown:
            raise ConfigError(f"{path}: unknown keys: {', '.join(unknown)}")
    out = {}
    for key, (default, convert) in known.items():
        if key in data:
            try:
                out[key] = convert(data[key])
            except ConfigError as err:
                raise ConfigError(f"{path}: key {key!r}: {err}") from err
        else:
            out[key] = default
    return out


_SCENE_KEYS = {
    "t60": (0.0, _float_value),
    "angle1": (60.0, _float_value),
    "angle2": (-60.0, _float_value),
    "duration": (3.0, _float_value),
    "sample_rate": (16000, _int_value),
    "seed": (0, _int_value),
}

# the keys ``separate`` and ``benchmark`` share, with the library defaults
_SHARED_KEYS = {
    "n_basis": (SeparationConfig.n_basis, _int_value),
    "outer_iters": (SeparationConfig.outer_iters, _int_value),
    "mu": (SinkhornParams.mu, _float_value),
    "gamma": (SinkhornParams.gamma, _float_value),
    "max_iter": (SinkhornParams.max_iter, _int_value),
    "tol": (SinkhornParams.tol, _float_value),
    "window_len": (StftConfig.window_len, _int_value),
    "hop": (StftConfig.hop, _int_value),
    "seed": (SeparationConfig.seed, _int_value),
}

_SEPARATION_KEYS = {
    "method": (SeparationConfig.method, str),
    "n_sources": (None, _int_value),
    **_SHARED_KEYS,
    "ref_mic": (SeparationConfig.ref_mic, _int_value),
}

_PLAN_KEYS = {
    "t60_grid": (list(DEFAULT_T60_GRID), _list_value(_float_value)),
    "trials": (5, _int_value),
    "methods": (["ilrma", "sdilrma-kron"], _list_value(str)),
    "angle_seed": (0, _int_value),
    "duration": _SCENE_KEYS["duration"],
    "sample_rate": _SCENE_KEYS["sample_rate"],
    **_SHARED_KEYS,
}


def _source_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def _simulate_scene(cfg: dict):
    """Render the configured scene: (mixture, dry sources, mic-0 images)."""
    scene = make_scene_sisec(cfg["t60"], cfg["angle1"], cfg["angle2"], sample_rate=cfg["sample_rate"])
    rir = image_source_rir(scene)
    sources = [
        synth_speech(cfg["duration"], cfg["sample_rate"], seed=_source_seed(cfg["seed"], n))
        for n in range(N_SPEAKERS)
    ]
    mixture, images = convolve_mix(sources, rir)
    ref_images = [TimeSignal(img.samples[:1], img.sample_rate) for img in images]
    return mixture, sources, ref_images


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, _SCENE_KEYS)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if cfg["t60"] < 0:
        raise ConfigError("t60 must be nonnegative")
    if cfg["duration"] <= 0:
        raise ConfigError("duration must be positive")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mixture, sources, images = _simulate_scene(cfg)
    write_wav(out / "mixture.wav", mixture, encoding="float32")
    for n in range(N_SPEAKERS):
        write_wav(out / f"src_{n}.wav", sources[n], encoding="float32")
        write_wav(out / f"img_{n}.wav", images[n], encoding="float32")
    (out / "scene.json").write_text(json.dumps({"schema": SCHEMA_VERSION, **cfg}, indent=2, sort_keys=True) + "\n")
    log.info("simulated t60=%s into %s", cfg["t60"], out)
    return EXIT_OK


def _separation_config(cfg: dict) -> SeparationConfig:
    try:
        return SeparationConfig(
            method=cfg["method"],
            n_basis=cfg["n_basis"],
            outer_iters=cfg["outer_iters"],
            sinkhorn=SinkhornParams(
                mu=cfg["mu"], gamma=cfg["gamma"], max_iter=cfg["max_iter"], tol=cfg["tol"]
            ),
            ref_mic=cfg["ref_mic"],
            seed=cfg["seed"],
            stft=StftConfig(window_len=cfg["window_len"], hop=cfg["hop"]),
        )
    except ValueError as err:
        raise ConfigError(str(err)) from err


def cmd_separate(args) -> int:
    cfg = _load_config(args.config, _SEPARATION_KEYS)
    if args.method is not None:
        cfg["method"] = args.method
    if args.seed is not None:
        cfg["seed"] = args.seed
    sep_cfg = _separation_config(cfg)
    signal = read_wav(args.input)
    if signal.channels < 2 and (cfg["n_sources"] is None or cfg["n_sources"] > 1):
        raise ConfigError("separation needs a multichannel input")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spec = stft(signal, sep_cfg.stft)
    result = separate(spec, sep_cfg, n_sources=cfg["n_sources"])
    estimates = istft(result.images)
    for n in range(estimates.channels):
        write_wav(
            out / f"est_{n}.wav",
            TimeSignal(estimates.samples[n : n + 1], estimates.sample_rate),
            encoding="float32",
        )
    with (out / "trace.csv").open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "objective"])
        for record in result.trace:
            writer.writerow([record.iteration, f"{record.objective:.6f}"])
    # unset keys (None) are left out, so the echo passes back as --config
    echo = {"schema": SCHEMA_VERSION, **{k: v for k, v in cfg.items() if v is not None}}
    (out / "config.json").write_text(json.dumps(echo, indent=2, sort_keys=True) + "\n")
    log.info("separated %s with %s into %s", args.input, cfg["method"], out)
    return EXIT_OK


def _indexed_wavs(directory, preferred: str) -> list:
    """WAVs in a directory, preferring the conventional prefix if present."""
    path = Path(directory)
    if not path.is_dir():
        raise ConfigError(f"not a directory: {directory}")
    files = sorted(path.glob(preferred)) or sorted(path.glob("*.wav"))
    if not files:
        raise ConfigError(f"no WAV files in {directory}")
    return files


def cmd_evaluate(args) -> int:
    est_files = _indexed_wavs(args.est_dir, "est_*.wav")
    ref_files = _indexed_wavs(args.ref_dir, "img_*.wav")
    if len(est_files) != len(ref_files):
        raise ConfigError(
            f"{len(est_files)} estimates vs {len(ref_files)} references"
        )
    estimates = [read_wav(f) for f in est_files]
    references = [read_wav(f) for f in ref_files]
    try:
        result = sdr_sir(estimates, references)
    except ValueError as err:
        raise ConfigError(str(err)) from err
    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source", "sdr_db", "sir_db", "perm"])
        for j in range(len(result.sdr)):
            writer.writerow(
                [j, f"{result.sdr[j]:.4f}", f"{result.sir[j]:.4f}", result.permutation[j]]
            )
    log.info("evaluated %d sources into %s", len(result.sdr), out)
    return EXIT_OK


def _run_cell(plan: dict, configs: list, t60: float, trial: int) -> list:
    """Simulate one (t60, trial) cell, separate it with every config, score once.

    The unprocessed reference mic and every method that did not fail are
    scored in one ``sdr_sir_sets`` call against the cell's references;
    ``wall_ms`` times ``separate`` alone.
    """
    angle_rng = np.random.default_rng(plan["angle_seed"] * 1_000_003 + trial)
    angle1 = float(angle_rng.uniform(10.0, 80.0))
    angle2 = float(angle_rng.uniform(-80.0, -10.0))
    base_seed = plan["seed"] * 1_000_003 + trial
    scene_cfg = {
        "t60": t60,
        "angle1": angle1,
        "angle2": angle2,
        "duration": plan["duration"],
        "sample_rate": plan["sample_rate"],
        "seed": base_seed,
    }
    mixture, _, references = _simulate_scene(scene_cfg)
    spec = stft(mixture, configs[0].stft)
    outcomes = []  # (method, wall_ms, failure reason or None)
    sets = [[TimeSignal(mixture.samples[:1], mixture.sample_rate)] * N_SPEAKERS]
    for cfg in configs:
        start = time.perf_counter()
        try:
            result = separate(spec, replace(cfg, seed=base_seed), n_sources=N_SPEAKERS)
        except (SinkhornNumericError, DemixingNumericError) as err:
            wall_ms = (time.perf_counter() - start) * 1000.0
            outcomes.append((cfg.method, wall_ms, "failed: " + str(err).replace(",", ";")))
            continue
        outcomes.append((cfg.method, (time.perf_counter() - start) * 1000.0, None))
        estimates = istft(result.images)
        del result  # only the time-domain estimates are scored
        sets.append(
            [TimeSignal(estimates.samples[n : n + 1], estimates.sample_rate) for n in range(N_SPEAKERS)]
        )
    baseline, *scored = sdr_sir_sets(sets, references)
    rows = []
    for method, wall_ms, reason in outcomes:
        if reason is None:
            gains = improvement(scored.pop(0), baseline)
            cells = [(f"{gains.sdr[n]:.4f}", f"{gains.sir[n]:.4f}", "ok") for n in range(N_SPEAKERS)]
        else:
            cells = [("", "", reason)] * N_SPEAKERS
        for n, (sdr, sir, status) in enumerate(cells):
            rows.append((t60, trial, method, n, sdr, sir, f"{wall_ms:.1f}", status))
    log.info("benchmark cell t60=%s trial=%d done", t60, trial)
    return rows


def cmd_benchmark(args) -> int:
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    plan = _load_config(args.config, _PLAN_KEYS)
    if args.seed is not None:
        plan["seed"] = args.seed
    if plan["trials"] < 1:
        raise ConfigError("trials must be >= 1")
    if any(t < 0 for t in plan["t60_grid"]):
        raise ConfigError("t60 grid values must be nonnegative")
    if plan["duration"] <= 0 or plan["sample_rate"] <= 0:
        raise ConfigError("duration and sample_rate must be positive")
    if plan["seed"] < 0 or plan["angle_seed"] < 0:
        raise ConfigError("seed and angle_seed must be nonnegative")
    if not plan["methods"]:
        raise ConfigError("methods must name at least one method")
    # every plan error surfaces here, before the first cell simulates a scene
    defaults = {key: default for key, (default, _) in _SEPARATION_KEYS.items()}
    configs = [_separation_config({**defaults, **plan, "method": m}) for m in plan["methods"]]
    cells = [(t60, trial) for t60 in plan["t60_grid"] for trial in range(plan["trials"])]
    rows = []
    # a forking pool starts all its workers at the first submit: no more than the cells
    workers = min(args.jobs, len(cells))
    if workers > 1:
        # imported here: it loads multiprocessing, which no other verb needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, plan, configs, t60, trial) for t60, trial in cells]
            for future in futures:
                rows.extend(future.result())
    else:
        for t60, trial in cells:
            rows.extend(_run_cell(plan, configs, t60, trial))
    rows.sort(key=lambda r: (r[0], r[1], str(r[2]), r[3]))

    out = Path(args.out)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(BENCH_FIELDS)
        for row in rows:
            writer.writerow([f"{row[0]:g}", *row[1:]])
        for t60 in plan["t60_grid"]:
            for method in plan["methods"]:
                cell_rows = [r for r in rows if r[0] == t60 and r[2] == method and r[7] == "ok"]
                if cell_rows:
                    mean_sdr = np.mean([float(r[4]) for r in cell_rows])
                    mean_sir = np.mean([float(r[5]) for r in cell_rows])
                    fh.write(
                        f"# summary t60={t60:g} method={method} "
                        f"mean_sdr_imp_db={mean_sdr:.4f} mean_sir_imp_db={mean_sir:.4f} "
                        f"n={len(cell_rows)}\n"
                    )
                else:
                    fh.write(f"# summary t60={t60:g} method={method} no successful trials\n")
    log.info("benchmark finished: %d rows into %s", len(rows), out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otbss",
        description="Determined blind source separation with optimal-transport source models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="render a two-speaker room mixture to WAV files")
    sim.add_argument("--config", help="scene config JSON")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, help="override the scene seed")
    sim.set_defaults(func=cmd_simulate)

    sep = sub.add_parser("separate", help="demix a multichannel WAV file")
    sep.add_argument("input", help="multichannel mixture WAV")
    sep.add_argument("--method", choices=METHODS, help="separation method")
    sep.add_argument("--config", help="separation config JSON")
    sep.add_argument("--out", required=True, help="output directory")
    sep.add_argument("--seed", type=int, help="override the model seed")
    sep.set_defaults(func=cmd_separate)

    ev = sub.add_parser("evaluate", help="score estimates against references")
    ev.add_argument("est_dir", help="directory of estimate WAVs")
    ev.add_argument("ref_dir", help="directory of reference WAVs")
    ev.add_argument("--out", required=True, help="output CSV path")
    ev.set_defaults(func=cmd_evaluate)

    bench = sub.add_parser("benchmark", help="sweep a T60 grid and collect improvements")
    bench.add_argument("--config", help="benchmark plan JSON")
    bench.add_argument("--out", required=True, help="output CSV path")
    bench.add_argument("--jobs", type=int, default=1, help="concurrent benchmark cells, at least 1")
    bench.add_argument("--seed", type=int, help="override the plan seed")
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("OTBSS_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), format="%(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        WavFormatError,
        DegenerateGeometryError,
        FileNotFoundError,
        ValueError,
    ) as err:
        print(f"otbss: error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (SinkhornNumericError, DemixingNumericError) as err:
        context = getattr(err, "context", None)
        suffix = f" (context: {context})" if context is not None else ""
        print(f"otbss: numeric failure: {err}{suffix}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
