"""Command-line verbs: file layout, determinism, and exit codes.

Oracles: byte-identical reruns for fixed seeds, the mixture channel as
the exact sum of the written images, self-evaluation of references
pinned at the clamp value, and hand-counted benchmark CSV rows.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import otbss
from otbss import cli
from otbss.audio import StftConfig, TimeSignal, read_wav, write_wav
from otbss.cli import EXIT_CONFIG, EXIT_OK, main
from otbss.engine import SeparationConfig
from otbss.errors import SinkhornNumericError
from otbss.metrics import improvement, sdr_sir


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One anechoic scene rendered once and shared read-only."""
    root = tmp_path_factory.mktemp("scene")
    cfg = _write_json(root / "scene.json", {"schema": 1, "t60": 0.0, "duration": 1.0, "seed": 5})
    out = root / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
    return out


class TestSimulate:
    def test_writes_expected_files(self, sim_dir):
        names = sorted(p.name for p in sim_dir.iterdir())
        assert names == [
            "img_0.wav",
            "img_1.wav",
            "mixture.wav",
            "scene.json",
            "src_0.wav",
            "src_1.wav",
        ]
        assert read_wav(sim_dir / "mixture.wav").channels == 2

    def test_deterministic_bytes(self, sim_dir, tmp_path):
        cfg = _write_json(tmp_path / "scene.json", {"schema": 1, "t60": 0.0, "duration": 1.0, "seed": 5})
        out = tmp_path / "again"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == EXIT_OK
        for name in ("mixture.wav", "img_0.wav", "img_1.wav"):
            assert (out / name).read_bytes() == (sim_dir / name).read_bytes()

    def test_mixture_is_sum_of_images(self, sim_dir):
        mix = read_wav(sim_dir / "mixture.wav").samples[0]
        total = sum(read_wav(sim_dir / f"img_{n}.wav").samples[0] for n in range(2))
        assert np.max(np.abs(mix - total)) < 1e-8

    def test_scene_echo_has_resolved_defaults(self, sim_dir):
        echo = json.loads((sim_dir / "scene.json").read_text())
        assert echo["schema"] == 1
        assert echo["angle1"] == 60.0
        assert echo["sample_rate"] == 16000
        assert "room" not in echo

    def test_seed_flag_changes_output(self, sim_dir, tmp_path):
        cfg = _write_json(tmp_path / "scene.json", {"schema": 1, "t60": 0.0, "duration": 1.0, "seed": 5})
        out = tmp_path / "other"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "6"]) == EXIT_OK
        assert (out / "mixture.wav").read_bytes() != (sim_dir / "mixture.wav").read_bytes()

    def test_other_geometry_rejected(self, tmp_path, capsys):
        # the room is fixed, so no config names it, not even with its own size
        for room in ([5.0, 4.0, 3.0], [8.0, 8.0, 3.0]):
            cfg = _write_json(tmp_path / "scene.json", {"schema": 1, "room": room})
            assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == EXIT_CONFIG
            assert "unknown keys: room" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = _write_json(tmp_path / "scene.json", {"schema": 1, "rt60": 0.3})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == EXIT_CONFIG
        assert "unknown keys: rt60" in capsys.readouterr().err

    def test_missing_schema_rejected(self, tmp_path):
        cfg = _write_json(tmp_path / "scene.json", {"t60": 0.0})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "sim")]) == EXIT_CONFIG

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "scene.json"
        bad.write_text('{"schema": 1,\n  "t60": }\n')
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "sim")]) == EXIT_CONFIG
        assert ":2:" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "sim")]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def sep_dir(tmp_path_factory, sim_dir):
    """One ILRMA separation of the shared scene."""
    root = tmp_path_factory.mktemp("sep")
    cfg = _write_json(
        root / "sep.json",
        {"schema": 1, "method": "ilrma", "outer_iters": 12, "window_len": 256, "hop": 64},
    )
    out = root / "out"
    code = main(["separate", str(sim_dir / "mixture.wav"), "--config", cfg, "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestSeparate:
    def test_writes_estimates_trace_and_echo(self, sep_dir):
        names = sorted(p.name for p in sep_dir.iterdir())
        assert names == ["config.json", "est_0.wav", "est_1.wav", "trace.csv"]
        echo = json.loads((sep_dir / "config.json").read_text())
        assert echo["method"] == "ilrma"
        assert echo["mu"] == 100.0

    def test_trace_objective_nondecreasing(self, sep_dir):
        with (sep_dir / "trace.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["iteration"]) for r in rows] == list(range(1, 13))
        obj = np.array([float(r["objective"]) for r in rows])
        assert np.all(np.diff(obj) >= -1e-6 * np.abs(obj[:-1]))

    def test_estimates_cover_the_input_length(self, sim_dir, sep_dir):
        mix = read_wav(sim_dir / "mixture.wav")
        est = read_wav(sep_dir / "est_0.wav")
        assert est.n_samples == mix.n_samples
        assert est.channels == 1

    def test_deterministic_for_seed(self, sim_dir, sep_dir, tmp_path):
        cfg = _write_json(
            tmp_path / "sep.json",
            {"schema": 1, "method": "ilrma", "outer_iters": 12, "window_len": 256, "hop": 64},
        )
        out = tmp_path / "again"
        assert main(["separate", str(sim_dir / "mixture.wav"), "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "est_0.wav").read_bytes() == (sep_dir / "est_0.wav").read_bytes()

    def test_config_echo_passes_back_as_config(self, sim_dir, sep_dir, tmp_path):
        # the echo leaves out the unset n_sources
        out = tmp_path / "again"
        echo = str(sep_dir / "config.json")
        assert main(["separate", str(sim_dir / "mixture.wav"), "--config", echo, "--out", str(out)]) == EXIT_OK
        for name in ("est_0.wav", "est_1.wav", "trace.csv"):
            assert (out / name).read_bytes() == (sep_dir / name).read_bytes()

    def test_unknown_method_flag_exits_2(self, sim_dir, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["separate", str(sim_dir / "mixture.wav"), "--method", "fastica", "--out", str(tmp_path / "x")])
        assert excinfo.value.code == 2

    def test_unknown_method_in_config_exits_2(self, sim_dir, tmp_path, capsys):
        cfg = _write_json(tmp_path / "sep.json", {"schema": 1, "method": "fastica"})
        code = main(["separate", str(sim_dir / "mixture.wav"), "--config", cfg, "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG
        assert "unknown method" in capsys.readouterr().err

    def test_kron_method_on_prime_bin_count_falls_back(self, sim_dir, tmp_path):
        cfg = _write_json(
            tmp_path / "sep.json",
            {"schema": 1, "method": "sdilrma-kron", "outer_iters": 2, "window_len": 4, "hop": 2},
        )
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="cannot be factorized"):
            code = main(["separate", str(sim_dir / "mixture.wav"), "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        assert (out / "est_0.wav").exists()

    def test_mono_input_rejected(self, sim_dir, tmp_path):
        code = main(["separate", str(sim_dir / "src_0.wav"), "--out", str(tmp_path / "x")])
        assert code == EXIT_CONFIG

    def test_kron_dims_exits_2(self, sim_dir, tmp_path, capsys):
        # the key is gone: the split is derived from the bin count
        cfg = _write_json(tmp_path / "sep.json", {"schema": 1, "method": "sdilrma-kron", "kron_dims": [43, 3]})
        out = tmp_path / "x"
        code = main(["separate", str(sim_dir / "mixture.wav"), "--config", cfg, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "unknown keys: kron_dims" in capsys.readouterr().err
        assert not (out / "config.json").exists()

    def test_verbatim_updates_with_ilrma_exits_2(self, sim_dir, tmp_path, capsys):
        # the key is gone: config echoes from older versions carry it as false
        cfg = _write_json(tmp_path / "sep.json", {"schema": 1, "verbatim_updates": False})
        out = tmp_path / "x"
        code = main(["separate", str(sim_dir / "mixture.wav"), "--config", cfg, "--method", "ilrma", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "unknown keys: verbatim_updates" in capsys.readouterr().err
        assert not (out / "config.json").exists()


class TestEvaluate:
    def test_references_score_at_the_clamp(self, sim_dir, tmp_path):
        est = tmp_path / "est"
        est.mkdir()
        for n in range(2):
            shutil.copy(sim_dir / f"img_{n}.wav", est / f"est_{n}.wav")
        out = tmp_path / "eval.csv"
        assert main(["evaluate", str(est), str(sim_dir), "--out", str(out)]) == EXIT_OK
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["source"] for r in rows] == ["0", "1"]
        assert all(r["sdr_db"] == "100.0000" for r in rows)
        assert [r["perm"] for r in rows] == ["0", "1"]

    def test_swapped_estimates_report_permutation(self, sim_dir, tmp_path):
        est = tmp_path / "est"
        est.mkdir()
        shutil.copy(sim_dir / "img_1.wav", est / "est_0.wav")
        shutil.copy(sim_dir / "img_0.wav", est / "est_1.wav")
        out = tmp_path / "eval.csv"
        assert main(["evaluate", str(est), str(sim_dir), "--out", str(out)]) == EXIT_OK
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["perm"] for r in rows] == ["1", "0"]
        assert all(r["sir_db"] == "100.0000" for r in rows)

    def test_separated_output_scores_above_baseline(self, sim_dir, sep_dir, tmp_path):
        out = tmp_path / "eval.csv"
        assert main(["evaluate", str(sep_dir), str(sim_dir), "--out", str(out)]) == EXIT_OK
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["sdr_db"]) > 10.0 for r in rows)

    def test_count_mismatch_exits_2(self, sim_dir, tmp_path, capsys):
        est = tmp_path / "est"
        est.mkdir()
        shutil.copy(sim_dir / "img_0.wav", est / "est_0.wav")
        code = main(["evaluate", str(est), str(sim_dir), "--out", str(tmp_path / "e.csv")])
        assert code == EXIT_CONFIG
        assert "1 estimates vs 2 references" in capsys.readouterr().err

    def test_sample_rate_mismatch_exits_2(self, sim_dir, tmp_path, capsys):
        # the same samples relabelled 8 kHz: scored as they were, they read 100 dB
        est = tmp_path / "est"
        est.mkdir()
        for n in range(2):
            img = read_wav(sim_dir / f"img_{n}.wav")
            write_wav(est / f"est_{n}.wav", TimeSignal(img.samples, 8000), encoding="float32")
        out = tmp_path / "e.csv"
        assert main(["evaluate", str(est), str(sim_dir), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "8000 Hz" in err and "16000 Hz" in err
        assert not out.exists()

    def test_empty_directory_exits_2(self, sim_dir, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["evaluate", str(empty), str(sim_dir), "--out", str(tmp_path / "e.csv")]) == EXIT_CONFIG


@pytest.fixture(scope="module")
def bench_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    plan = _write_json(
        root / "plan.json",
        {
            "schema": 1,
            "t60_grid": [0.0, 0.2],
            "trials": 1,
            "methods": ["ilrma", "sdilrma-kron"],
            "duration": 1.0,
            "outer_iters": 8,
            "window_len": 256,
            "hop": 64,
        },
    )
    out = root / "bench.csv"
    assert main(["benchmark", "--config", plan, "--out", str(out)]) == EXIT_OK
    return plan, out


def _split_rows(path):
    lines = path.read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")]
    comments = [l for l in lines if l.startswith("#")]
    return data, comments


class TestBenchmark:
    def test_row_cardinality_and_header(self, bench_csv):
        _, out = bench_csv
        data, comments = _split_rows(out)
        assert data[0] == "t60,trial,method,source,sdr_imp_db,sir_imp_db,wall_ms,status"
        assert len(data) == 1 + 2 * 1 * 2 * 2
        assert len(comments) == 4
        assert all("summary" in c for c in comments)

    def test_one_line_ending(self, bench_csv):
        # rows and summaries end alike, so a line-anchored grep counts every row
        _, out = bench_csv
        text = out.read_bytes()
        assert b"\r" not in text
        assert sum(line.endswith(b",ok") for line in text.split(b"\n")) == 2 * 1 * 2 * 2

    def test_rows_sorted_and_ok(self, bench_csv):
        _, out = bench_csv
        with out.open() as fh:
            rows = [r for r in csv.DictReader(fh) if r["t60"] is not None and not r["t60"].startswith("#")]
        keys = [(float(r["t60"]), int(r["trial"]), r["method"], int(r["source"])) for r in rows]
        assert keys == sorted(keys)
        assert all(r["status"] == "ok" for r in rows)

    def test_anechoic_cell_improves(self, bench_csv):
        # quality at full iteration counts is covered elsewhere; this
        # just checks the improvement plumbing points the right way
        _, out = bench_csv
        with out.open() as fh:
            rows = [r for r in csv.DictReader(fh) if not r["t60"].startswith("#")]
        anechoic = [
            float(r["sdr_imp_db"]) for r in rows if r["t60"] == "0" and r["method"] == "ilrma"
        ]
        assert np.mean(anechoic) > 2.0
        assert all(np.isfinite(float(r["sdr_imp_db"])) for r in rows)

    def test_deterministic_modulo_wall_ms(self, bench_csv, tmp_path):
        # a rerun gives the same CSV, and so does a rerun on two workers
        plan, out = bench_csv

        def strip(path):
            data, comments = _split_rows(path)
            return [",".join(r.split(",")[:6] + r.split(",")[7:]) for r in data], comments

        for jobs in ("1", "2"):
            again = tmp_path / f"bench-jobs{jobs}.csv"
            assert main(["benchmark", "--config", plan, "--out", str(again), "--jobs", jobs]) == EXIT_OK
            assert strip(again) == strip(out), f"--jobs {jobs}"

    def test_pool_never_larger_than_the_cells(self, tmp_path, monkeypatch):
        # an inline stand-in for the pool records its size and starts no process
        import concurrent.futures

        sizes, cells = [], []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(cli, "_run_cell", lambda plan, configs, t60, trial: cells.append((t60, trial)) or [])
        plan = _write_json(tmp_path / "plan.json", {"schema": 1, "t60_grid": [0.0], "trials": 2, "methods": ["ilrma"]})
        assert main(["benchmark", "--config", plan, "--out", str(tmp_path / "b.csv"), "--jobs", "16"]) == EXIT_OK
        assert sizes == [2]
        assert cells == [(0.0, 0), (0.0, 1)]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_starts_no_cell(self, tmp_path, monkeypatch, capsys, jobs):
        cells = []
        monkeypatch.setattr(cli, "_run_cell", lambda *args: cells.append(args) or [])
        plan = _write_json(tmp_path / "plan.json", {"schema": 1, "t60_grid": [0.0], "trials": 2, "methods": ["ilrma"]})
        code = main(["benchmark", "--config", plan, "--out", str(tmp_path / "b.csv"), "--jobs", jobs])
        assert code == EXIT_CONFIG
        assert not cells
        assert not (tmp_path / "b.csv").exists()
        assert "--jobs" in capsys.readouterr().err

    def test_failed_method_leaves_the_others_scored_in_one_call(self, monkeypatch):
        separate, score = cli.separate, cli.sdr_sir_sets
        calls = []

        def failing(spec, cfg, n_sources=None):
            if cfg.method == "sdilrma-kron":
                raise SinkhornNumericError("non-finite scalings, frame 3", iteration=2, context=3)
            return separate(spec, cfg, n_sources=n_sources)

        def spy(sets, references):
            calls.append((sets, references))
            return score(sets, references)

        monkeypatch.setattr(cli, "separate", failing)
        monkeypatch.setattr(cli, "sdr_sir_sets", spy)
        plan = {"angle_seed": 0, "seed": 0, "duration": 0.5, "sample_rate": 16000}
        methods = ("ilrma", "sdilrma-kron", "sdilrma-dense")
        configs = [SeparationConfig(method=m, outer_iters=3, stft=StftConfig(256, 64)) for m in methods]
        rows = cli._run_cell(plan, configs, 0.0, 0)

        assert len(calls) == 1
        sets, references = calls[0]
        assert len(sets) == 3  # the baseline, ilrma and sdilrma-dense
        assert [r[2] for r in rows] == [m for m in methods for _ in range(2)]
        baseline = sdr_sir(sets[0], references)
        for method, estimates in zip(("ilrma", "sdilrma-dense"), sets[1:]):
            gains = improvement(sdr_sir(estimates, references), baseline)
            expected = [
                (0.0, 0, method, n, f"{gains.sdr[n]:.4f}", f"{gains.sir[n]:.4f}", "ok") for n in range(2)
            ]
            assert [r[:6] + r[7:] for r in rows if r[2] == method] == expected
        failed = [r for r in rows if r[2] == "sdilrma-kron"]
        assert [r[:6] + r[7:] for r in failed] == [
            (0.0, 0, "sdilrma-kron", n, "", "", "failed: non-finite scalings; frame 3") for n in range(2)
        ]
        assert all(float(r[6]) >= 0.0 for r in rows)

    def test_unknown_method_in_plan_exits_2(self, tmp_path, capsys):
        plan = _write_json(tmp_path / "plan.json", {"schema": 1, "methods": ["auxiva"]})
        assert main(["benchmark", "--config", plan, "--out", str(tmp_path / "b.csv")]) == EXIT_CONFIG
        assert "auxiva" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "bad",
        [
            {"window_len": 1000, "duration": 0.5},
            {"window_len": 2048, "hop": 3, "duration": 0.5},
            {"duration": 0.0},
            {"seed": -1, "duration": 0.5},
            {"t60_grid": 0.3},
            {"t60_grid": "0.3"},
            {"methods": "ilrma"},
            {"methods": {"ilrma": 1}},
        ],
        ids=["window_len", "hop", "duration", "seed", "t60_grid", "t60_grid_string", "methods_string", "methods_object"],
    )
    def test_bad_plan_value_starts_no_cell(self, tmp_path, monkeypatch, capsys, bad, jobs):
        # forked workers inherit the patch; each call leaves a line in the log
        calls = tmp_path / "calls.log"
        simulate = cli._simulate_scene

        def counted(cfg):
            with calls.open("a") as fh:
                fh.write("call\n")
            return simulate(cfg)

        monkeypatch.setattr(cli, "_simulate_scene", counted)
        plan = _write_json(
            tmp_path / "plan.json",
            {"schema": 1, "t60_grid": [0.0, 0.1], "trials": 2, "methods": ["ilrma"], "outer_iters": 1, **bad},
        )
        code = main(["benchmark", "--config", plan, "--out", str(tmp_path / "b.csv"), "--jobs", jobs])
        assert code == EXIT_CONFIG
        assert not calls.exists()
        err = capsys.readouterr().err
        assert "otbss: error:" in err
        assert next(iter(bad)) in err

    @pytest.mark.parametrize("value", ["0.3", 0.3, {"0.3": 1}], ids=["string", "number", "object"])
    @pytest.mark.parametrize("key", ["methods", "t60_grid"])
    def test_list_key_not_a_list_exits_2(self, tmp_path, capsys, key, value):
        plan = _write_json(tmp_path / "plan.json", {"schema": 1, key: value})
        assert main(["benchmark", "--config", plan, "--out", str(tmp_path / "b.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"'{key}'" in err
        assert "expected a list" in err

    def test_unknown_plan_key_exits_2(self, tmp_path):
        plan = _write_json(tmp_path / "plan.json", {"schema": 1, "reverb_grid": [0.1]})
        assert main(["benchmark", "--config", plan, "--out", str(tmp_path / "b.csv")]) == EXIT_CONFIG

    def test_default_grid_used_without_config(self):
        from otbss.cli import DEFAULT_T60_GRID

        assert DEFAULT_T60_GRID[0] == 0.0
        assert DEFAULT_T60_GRID[-1] == 0.6
        assert len(DEFAULT_T60_GRID) == 13


class TestParser:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_help_lists_verbs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for verb in ("simulate", "separate", "evaluate", "benchmark"):
            assert verb in out


class TestImports:
    def test_separation_path_loads_no_scipy(self):
        # a fresh interpreter: this test process has scipy loaded already
        script = textwrap.dedent(
            """
            import sys
            import otbss.cli as cli
            from otbss import audio, engine, metrics

            scene = {"t60": 0.2, "angle1": 40.0, "angle2": -40.0, "duration": 0.5,
                     "sample_rate": 16000, "seed": 3}
            mixture, _, refs = cli._simulate_scene(scene)
            spec = audio.stft(mixture)
            cfg = engine.SeparationConfig(method="ilrma", outer_iters=3)
            images = audio.istft(engine.separate(spec, cfg, n_sources=2).images)
            scored = metrics.sdr_sir(
                [audio.TimeSignal(images.samples[n : n + 1], 16000) for n in range(2)], refs
            )
            print(len(scored.sdr), sorted(m for m in sys.modules if m.startswith("scipy")))
            """
        )
        src = str(Path(otbss.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2", "[]"]
