"""The benchmark's workloads: what one round of each one runs and checks.

A round is a fixed list of operations, so every run attempts whole
rounds of the same operations. One operation is one scene taken end to
end: simulate, STFT, separate, ISTFT, then score both the estimates
and the unprocessed reference mic.

Times are CPU time of this process (``time.process_time``). The program
runs on one thread here (one BLAS thread, ``--jobs 1``), so that is its
wall time less the time it waited for a CPU, which on a shared host
swings by tens of percent from one minute to the next (see README.md).
run.py scales them by the calibration of calibration.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from otbss import audio, cli, engine, metrics, roomsim
from otbss.errors import DemixingNumericError, SinkhornNumericError

N_SOURCES = 2
REF_MIC = 0

# The reference scene of the roadmap: `otbss simulate` defaults at
# T60 = 0.3 s, 2 s long, separated with the `otbss separate` defaults
# (F = 513 bins, T = 129 frames, 50 outer iterations).
REF_SCENE = dict(t60=0.3, angle1=60.0, angle2=-60.0, duration=2.0, sample_rate=16000, seed=0)

# The T60 sweep: each cell is one `otbss benchmark` call on one fresh
# scene; plan seeds 0 and 1 give two speaker pairs per T60.
GRID_T60 = (0.0, 0.15, 0.3, 0.45, 0.6)
GRID_PLAN_SEEDS = (0, 1)


@dataclass
class Operation:
    """Measurements and check results of one scene."""

    name: str
    scene_s: float = 0.0  # CPU time
    separate_s: float = 0.0  # CPU time
    wall_s: float = 0.0  # wall time of the scene, reported on stderr only
    sdr: tuple = ()
    sir: tuple = ()
    digest: str = ""
    failed: str = ""
    problems: list = field(default_factory=list)
    quality: bool = True  # counted in the quality metrics
    t60: float = REF_SCENE["t60"]
    csv: str = ""


def mono(signal, channel: int):
    return audio.TimeSignal(signal.samples[channel : channel + 1], signal.sample_rate)


def digest(result) -> str:
    return hashlib.sha256(np.ascontiguousarray(result.images.data).tobytes()).hexdigest()


def untraced(tracer):
    return tracer.paused() if tracer else contextlib.nullcontext()


def simulate(scene: dict):
    """Mixture and reference-mic source images, as `otbss simulate` renders them."""
    fs = scene["sample_rate"]
    room = roomsim.make_scene_sisec(scene["t60"], scene["angle1"], scene["angle2"], sample_rate=fs)
    rir = roomsim.image_source_rir(room)
    sources = [
        roomsim.synth_speech(scene["duration"], fs, seed=scene["seed"] * 1000 + n) for n in range(N_SOURCES)
    ]
    mixture, images = roomsim.convolve_mix(sources, rir)
    return mixture, [mono(img, REF_MIC) for img in images]


class RefWorkload:
    """The reference scene through separate() with one SDILRMA backend.

    The scene is the same in every run: its separation quality is a
    property of that one scene, which a seed-drawn scene would turn into
    a spread of about half the median.
    """

    round_len = 1

    def __init__(self, method: str):
        self.cfg = engine.SeparationConfig(method=method)
        self.tracer = None

    def setup(self):
        mixture, refs = simulate(REF_SCENE)
        spec = audio.stft(mixture, self.cfg.stft)
        warm = engine.separate(spec, replace(self.cfg, outer_iters=1), n_sources=N_SOURCES)
        separated = audio.istft(warm.images)
        metrics.sdr_sir([mono(separated, n) for n in range(N_SOURCES)], refs)

    def round(self) -> list:
        op = Operation(name=f"ref t60={REF_SCENE['t60']:g}")
        if self.tracer:
            self.tracer.start_scene(op.name)
        wall_start, start = time.perf_counter(), time.process_time()
        mixture, refs = simulate(REF_SCENE)
        spec = audio.stft(mixture, self.cfg.stft)
        sep_start = time.process_time()
        try:
            result = engine.separate(spec, self.cfg, n_sources=N_SOURCES)
        except (SinkhornNumericError, DemixingNumericError) as err:
            op.failed = f"{type(err).__name__}: {err}"
            return [op]
        op.separate_s = time.process_time() - sep_start
        separated = audio.istft(result.images)
        unprocessed = mono(mixture, REF_MIC)
        baseline = metrics.sdr_sir([unprocessed] * N_SOURCES, refs)
        scored = metrics.sdr_sir([mono(separated, n) for n in range(N_SOURCES)], refs)
        gains = metrics.improvement(scored, baseline)
        op.scene_s = time.process_time() - start
        op.wall_s = time.perf_counter() - wall_start
        op.sdr, op.sir = tuple(gains.sdr), tuple(gains.sir)
        op.digest = digest(result)
        with untraced(self.tracer):
            op.problems = checks.check_separation(mixture, spec, result, separated, REF_MIC)
        op.problems += checks.check_sir_gain(op.sir)
        return [op]


class GridWorkload:
    """An ILRMA T60 sweep through the `otbss benchmark` verb.

    Each cell runs `otbss benchmark --jobs 1` on a one-cell plan; the
    first cell is run once more at the end of the round and must give
    the same CSV apart from wall_ms. The separate() call and the
    mixture inside the verb are captured for the output checks.
    """

    def __init__(self, out_dir: Path):
        self.out = out_dir
        self.tracer = None
        self.cells = [(t60, k) for t60 in GRID_T60 for k in GRID_PLAN_SEEDS]
        self.round_len = len(self.cells) + 1
        self._captured = {}

    def _plan(self, name, t60, plan_seed, **extra) -> Path:
        path = self.out / f"{name}.json"
        plan = {"schema": 1, "t60_grid": [t60], "trials": 1, "methods": ["ilrma"],
                "duration": 2.0, "seed": plan_seed, "angle_seed": plan_seed, **extra}
        path.write_text(json.dumps(plan) + "\n")
        return path

    def _capture(self):
        captured = self._captured

        def separate(spec, cfg, n_sources=None):
            start = time.process_time()
            result = engine.separate(spec, cfg, n_sources=n_sources)
            captured["separate"] = (spec, result, time.process_time() - start)
            return result

        def convolve_mix(sources, rir):
            captured["mixture"], images = roomsim.convolve_mix(sources, rir)
            return captured["mixture"], images

        cli.separate = separate
        cli.convolve_mix = convolve_mix

    def setup(self):
        self.out.mkdir(parents=True, exist_ok=True)
        self._capture()
        self.plans = [self._plan(f"cell-{i}", t60, k) for i, (t60, k) in enumerate(self.cells)]
        t60, k = self.cells[0]
        warm = self._plan("warm-up", t60, k, outer_iters=1)
        if cli.main(["benchmark", "--config", str(warm), "--out", str(self.out / "warm-up.csv"), "--jobs", "1"]):
            raise RuntimeError("the warm-up benchmark call failed")

    def _cell(self, index: int, name: str) -> Operation:
        t60, plan_seed = self.cells[index]
        op = Operation(name=name, t60=t60)
        if self.tracer:
            self.tracer.start_scene(name)
        self._captured.clear()
        out = self.out / f"cell-{index}.csv"
        wall_start, start = time.perf_counter(), time.process_time()
        code = cli.main(["benchmark", "--config", str(self.plans[index]), "--out", str(out), "--jobs", "1"])
        op.scene_s = time.process_time() - start
        op.wall_s = time.perf_counter() - wall_start
        if code != 0 or "separate" not in self._captured:
            op.failed = f"otbss benchmark exited with {code}"
            return op
        text = out.read_text()
        _, rows, _ = checks.parse_bench_csv(text)
        bad = [r[7] for r in rows if r[7] != "ok"]
        if bad:
            op.failed = bad[0]
            return op
        spec, result, op.separate_s = self._captured["separate"]
        op.sdr = tuple(float(r[4]) for r in rows)
        op.sir = tuple(float(r[5]) for r in rows)
        op.digest = digest(result)
        op.csv = text
        with untraced(self.tracer):
            separated = audio.istft(result.images)
        op.problems = checks.check_bench_csv(text)
        op.problems += checks.check_separation(self._captured["mixture"], spec, result, separated, REF_MIC)
        op.problems += checks.check_monotone(result)
        op.problems += checks.check_sir_gain(op.sir)
        return op

    def round(self) -> list:
        ops = [self._cell(i, f"cell t60={t60:g} plan_seed={k}") for i, (t60, k) in enumerate(self.cells)]
        repeat = self._cell(0, "cell repeated")
        repeat.quality = False
        if not (ops[0].failed or repeat.failed):
            if checks.without_wall_ms(repeat.csv) != checks.without_wall_ms(ops[0].csv):
                repeat.problems.append("a repeated cell gave a different CSV")
        return ops + [repeat]


def make(name: str, out_dir: Path):
    if name == "ref-kron":
        return RefWorkload("sdilrma-kron")
    if name == "ref-dense":
        return RefWorkload("sdilrma-dense")
    return GridWorkload(out_dir / "grid")


def run_rounds(workload, seconds: float, start: float, ops: list, problems: list, calibration,
               once: bool = False):
    """Whole rounds until ``seconds`` have passed since ``start``, at least one (only one if ``once``).

    The calibration piece is timed after every round.
    """
    while True:
        round_ops = workload.round()
        calibration.run()
        problems += checks.check_sdr_rows(round_ops)
        ops += round_ops
        print(f"perfbench: round of {len(round_ops)} scenes done at {time.perf_counter() - start:.1f}s",
              file=sys.stderr)
        if once or time.perf_counter() - start >= seconds:
            return

