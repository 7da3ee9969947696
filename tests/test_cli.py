"""Command-line surface: schemas, determinism and exit codes."""

import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import math
import struct
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qthermal.channels import EnvironmentPair, fidelity_classical
from qthermal.classify import TrainConfig
from qthermal.cli import build_parser, main


def _load_bench_runner():
    """``bench/run.py``, which imports its sibling modules by bare name."""
    bench = Path(__file__).resolve().parents[1] / "bench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


BENCH = _load_bench_runner()
REFERENCE_JOBS = [
    (job, argv)
    for jobs in BENCH.WORKLOADS.values()
    for job, argv in jobs.items()
    if (BENCH.checks.REFERENCE_DIR / f"{job}.csv").exists()
]


# noise pairs far beyond any physical value, whose fidelities once overflowed
HUGE_NOISE = [
    ["--kind", "additive", "--nuT", "1e160", "--nuB", "2e160"],
    ["--kind", "thermal", "--tau", "0.5", "--epsT", "1e160", "--epsB", "2e160"],
]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFidelityCommand:
    def test_schema_and_anchor_rows(self, capsys):
        code, out, _ = run(
            ["fidelity", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--a", "0.5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a,F"
        first = lines[1].split(",")
        assert float(first[0]) == 0.5
        expected = fidelity_classical(EnvironmentPair.additive(0.02, 0.01))
        assert float(first[1]) == pytest.approx(expected, abs=1e-12)
        assert lines[-1].startswith("inf,")
        assert float(lines[-1].split(",")[1]) == pytest.approx(0.9428090, abs=1e-7)

    def test_identical_channels_all_unity(self, capsys):
        code, out, _ = run(
            ["fidelity", "--kind", "additive", "--nuT", "0.03", "--nuB", "0.03", "--a", "0.5,2.5,10"],
            capsys,
        )
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            assert float(line.split(",")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_sweep(self, capsys):
        code, out, _ = run(
            ["fidelity", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--a", "2.5,10,100"],
            capsys,
        )
        vals = [float(l.split(",")[1]) for l in out.strip().split("\n")[1:-1]]
        assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("grid", ["", ","], ids=["empty", "comma"])
    def test_empty_squeezing_grid_is_usage_error(self, capsys, grid):
        code, out, err = run(
            ["fidelity", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--a", grid],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "error: empty squeezing grid" in err

    def test_missing_channel_flags(self, capsys):
        code, _, err = run(["fidelity", "--kind", "additive", "--nuT", "0.01"], capsys)
        assert code == 2
        assert "nuB" in err

    def test_each_distinct_warning_reaches_stderr_once(self, capsys, monkeypatch):
        import qthermal.cli as cli

        def warn_twice(pair):
            for _ in range(2):
                warnings.warn("first", RuntimeWarning)
                warnings.warn("second", UserWarning)
            return 0.5

        monkeypatch.setattr(cli, "fidelity_choi_inf", warn_twice)
        code, out, err = run(
            ["fidelity", "--kind", "thermal", "--tau", "0.9", "--epsB", "18.5",
             "--epsT", "20.2", "--a", "0.5"],
            capsys,
        )
        assert code == 0
        assert out.strip().split("\n")[-1] == "inf,0.5"
        warned = [l for l in err.splitlines() if l.startswith("warning: ")]
        assert warned == ["warning: RuntimeWarning: first", "warning: UserWarning: second"]

    @pytest.mark.parametrize("channel", HUGE_NOISE, ids=["additive", "thermal"])
    def test_huge_noise_prints_the_closed_form(self, capsys, tmp_path, channel):
        # 2 sqrt(r)/(1 + r) at r = 1/2 at every a; plain double arithmetic
        # once printed nan at a = 1/2 and 1.0 beyond, with a RuntimeWarning
        out_path = tmp_path / "huge.csv"
        code, _, err = run(["fidelity", *channel, "--a", "0.5,10", "--out", str(out_path)], capsys)
        assert code == 0
        assert err == ""
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        assert [a for a, _ in rows] == ["0.5", "10.0", "inf"]
        for _, F in rows:
            assert float(F) == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-15, abs=0.0)


class TestBoundsCommand:
    @pytest.mark.parametrize("channel", HUGE_NOISE, ids=["additive", "thermal"])
    def test_huge_noise_bounds_are_finite(self, capsys, channel):
        # a nan fidelity once made this a usage error: "fidelity must lie in [0, 1]"
        code, out, err = run(["bounds", *channel, "--m", "6", "--M", "1,10"], capsys)
        assert code == 0
        assert "error" not in err
        lines = out.strip().split("\n")
        assert len(lines) == 4
        for line in lines[1:3]:
            assert all(math.isfinite(float(v)) for v in line.split(","))
        assert not math.isnan(float(lines[-1].split("=")[1]))

    def test_schema_and_summary(self, capsys):
        code, out, _ = run(
            [
                "bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02",
                "--space", "uniform", "--m", "9", "--M", "1,50,110",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "M,q_lower,q_upper,cl_lower,mga,mpa"
        assert len(lines) == 5
        assert lines[-1].startswith("# mbar_adv = ")
        assert float(lines[-1].split("=")[1]) == pytest.approx(12.1177, abs=1e-3)
        last = [float(v) for v in lines[3].split(",")]
        assert last[4] > 0  # guaranteed advantage at M=110

    def test_bcpf_full_range_equals_uniform(self, capsys):
        args = ["--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--m", "5", "--M", "1,10,100"]
        _, out_uni, _ = run(["bounds", *args, "--space", "uniform"], capsys)
        _, out_bcpf, _ = run(["bounds", *args, "--space", "bcpf", "--k", "0,1,2,3,4,5"], capsys)
        assert out_uni == out_bcpf

    def test_bcpf_m50_table(self, capsys):
        code, out, _ = run(
            ["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02",
             "--space", "bcpf", "--m", "50", "--k", "0,1,2,3", "--M", "1,100,400"],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 5
        for line in lines[1:-1]:
            vals = [float(v) for v in line.split(",")]
            assert 0.0 <= vals[1] <= vals[2] <= 1.0

    def test_bcpf_rows_past_double_range(self, capsys):
        # at m = 1100 the spectrum of {0, m} has one pair distance, d = m,
        # whose shifted binomials underflow; its rows as printed before the
        # spectrum was regrouped by (k - l, k + l)
        code, out, _ = run(
            ["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02",
             "--m", "1100", "--space", "bcpf", "--k", "0,1100", "--M", "1,2"],
            capsys,
        )
        assert code == 0
        rows = [[float(v) for v in line.split(",")] for line in out.strip().split("\n")[1:3]]
        expected = [
            [1, 1.3494764703814683e-57, 7.347044223036835e-29, 0.038940664166088816,
             0.038940664166088816, 0.038940664166088816],
            [2, 7.284346976452931e-114, 5.397905881525893e-57, 0.0060655013027844555,
             0.0060655013027844555, 0.0060655013027844555],
        ]
        np.testing.assert_allclose(rows, expected, rtol=1e-9, atol=0.0)

    def test_finite_energy_bounds(self, capsys):
        base = ["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02",
                "--space", "uniform", "--m", "4", "--M", "20"]
        _, out_fin, _ = run([*base, "--energy", "finite", "--a", "2.5"], capsys)
        _, out_asy, _ = run([*base, "--energy", "asymptotic"], capsys)
        q_fin = float(out_fin.split("\n")[1].split(",")[1])
        q_asy = float(out_asy.split("\n")[1].split(",")[1])
        # a finitely squeezed probe distinguishes less well, so its error
        # lower bound sits above the asymptotic one
        assert q_fin > q_asy
        # a noiseless pair with nu_t + nu_b just below 0, within the
        # complete-positivity tolerance, has F_q = 1 at any squeezing
        code, out, err = run(
            ["bounds", "--kind", "additive", "--nuT=-1e-13", "--nuB", "0", "--m", "784",
             "--M", "100,1000", "--energy", "finite", "--a", "1e13"],
            capsys,
        )
        assert code == 0, err
        assert "warning:" not in err

    def test_cpf_requires_k(self, capsys):
        code, _, err = run(
            ["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02",
             "--space", "cpf", "--m", "5", "--M", "1"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--space", "uniform", "--m", "5", "--M", "2.7"],
            ["bounds", "--space", "uniform", "--m", "5", "--M", "1:2:0.5"],
            ["bounds", "--space", "cpf", "--m", "5", "--k", "3.9", "--M", "2"],
            ["bounds", "--space", "bcpf", "--m", "5", "--k", "1,2.5", "--M", "2"],
            ["simulate", "--T", "40", "--eval-size", "10", "--trials", "1", "--M", "10.5"],
        ],
        ids=["bounds-M", "bounds-M-range", "cpf-k", "bcpf-k", "simulate-M"],
    )
    def test_non_integer_grid_is_usage_error(self, capsys, argv):
        code, out, err = run(
            [*argv, "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02"], capsys
        )
        assert code == 2
        assert out == ""
        assert "grid must hold integers" in err

    def test_integer_grid_spellings(self, capsys):
        code, out, _ = run(
            ["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02",
             "--space", "cpf", "--m", "5", "--k", "2e0", "--M", "1e2"],
            capsys,
        )
        assert code == 0
        assert out.split("\n")[1].startswith("100,")

    def test_finite_energy_at_half_is_the_classical_bound(self, capsys, tmp_path):
        # F_q = F(a = 1/2) and F_cl are one value; from two routes, F_q came
        # out one ulp above F_cl here and a spurious F_q <= F_cl warning printed
        out = tmp_path / "half.csv"
        code, _, err = run(
            ["bounds", "--kind", "thermal", "--tau", "0.8354897615355993",
             "--epsB", "12.571374522890258", "--epsT", "16.713013786355255",
             "--m", "784", "--M", "100,1000", "--energy", "finite", "--a", "0.5",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "warning:" not in err
        manifest = (tmp_path / "half.csv.manifest").read_text(encoding="utf-8").splitlines()
        fields = dict(line.split(": ", 1) for line in manifest)
        assert fields["F_q"] == fields["F_cl"]

    def test_repeated_warning_printed_once(self, capsys, monkeypatch):
        import qthermal.cli as cli

        # F_q above F_cl: bounds() warns once for the grid
        monkeypatch.setattr(cli, "fidelity_choi_inf", lambda pair: 1.0)
        code, out, err = run(
            ["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02",
             "--m", "4", "--M", "1,2,3"],
            capsys,
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 5
        f_cl = fidelity_classical(EnvironmentPair.additive(0.02, 0.01))
        warned = [l for l in err.splitlines() if l.startswith("warning: ")]
        assert warned == [
            f"warning: UserWarning: expected 0 <= F_q <= F_cl <= 1, got F_q=1.0, F_cl={f_cl}"
        ]


class TestSimulateCommand:
    BASE = [
        "simulate", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02",
        "--T", "120", "--eval-size", "40", "--trials", "2", "--M", "10",
    ]

    def test_schema(self, capsys):
        code, out, err = run([*self.BASE, "--seed", "3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == (
            "M,p_cl_low,p_cl_up,p_q_low,p_q_up,E_cl_L,E_cl_U,E_q_L,E_q_U,dE_min,dE_max,stderr_max"
        )
        assert len(lines) == 2
        row = lines[1].split(",")
        assert int(row[0]) == 10
        assert "synthetic" in err

    def test_cnn_flag_defaults_are_the_train_config_defaults(self):
        args = build_parser().parse_args(self.BASE)
        defaults = TrainConfig()
        assert (args.epochs, args.batch_size, args.lr) == (
            defaults.epochs,
            defaults.batch_size,
            defaults.learning_rate,
        )

    def test_nn_training_set_is_freed_before_the_jobs(self, capsys, monkeypatch):
        import qthermal.cli as cli
        import qthermal.data as data

        datasets, alive = [], []

        def digits(*args, **kwargs):
            ds = data_digits(*args, **kwargs)
            datasets.append(weakref.ref(ds.images))
            return ds

        def regions(*args, **kwargs):
            gc.collect()
            alive.extend(ref() is not None for ref in datasets)
            return cli_regions(*args, **kwargs)

        data_digits, cli_regions = data.synthetic_digits, cli.advantage_regions
        monkeypatch.setattr(data, "synthetic_digits", digits)
        monkeypatch.setattr(cli, "advantage_regions", regions)
        code, out, _ = run([*self.BASE, "--classifier", "nn"], capsys)
        assert code == 0 and len(out.splitlines()) == 2
        # the training images are gone; the evaluation images are still used
        assert alive == [False, True]

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run([*self.BASE, "--seed", "3"], capsys)
        _, out2, _ = run([*self.BASE, "--seed", "3"], capsys)
        assert out1 == out2

    def test_thread_count_does_not_change_bytes(self, capsys):
        argv = [
            "simulate", "--classifier", "nn", "--kind", "additive", "--nuT", "0.01",
            "--nuB", "0.02", "--T", "200", "--eval-size", "20", "--trials", "3",
            "--M", "10,40", "--seed", "5",
        ]
        code1, out1, _ = run([*argv, "--threads", "1"], capsys)
        code3, out3, _ = run([*argv, "--threads", "3"], capsys)
        assert code1 == code3 == 0
        assert out1 == out3

    def test_cnn_thread_count_does_not_change_bytes(self, capsys):
        argv = [
            "simulate", "--classifier", "cnn", "--kind", "additive", "--nuT", "0.01",
            "--nuB", "0.02", "--T", "80", "--eval-size", "20", "--trials", "2",
            "--M", "10,40", "--epochs", "1", "--seed", "5",
        ]
        code1, out1, _ = run([*argv, "--threads", "1"], capsys)
        code3, out3, _ = run([*argv, "--threads", "3"], capsys)
        assert code1 == code3 == 0
        assert out1 == out3

    def test_p_override_zero(self, capsys):
        code, out, _ = run([*self.BASE, "--p-override", "0", "--seed", "1"], capsys)
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        # eval and train come from the same generator family but different
        # seeds; zero pixel noise still leaves a small clean NN error
        assert float(row[9]) == float(row[10]) == 0.0

    def test_empty_probe_grid_is_usage_error(self, capsys):
        code, out, err = run([*self.BASE, "--M", ""], capsys)
        assert code == 2
        assert out == ""
        assert "error: empty probe copy grid" in err

    def test_missing_dataset_dir(self, capsys, tmp_path):
        code, _, err = run([*self.BASE, "--data-dir", str(tmp_path)], capsys)
        assert code == 3
        assert "data error" in err

    def test_empty_idx_split_is_data_error(self, capsys, tmp_path):
        (tmp_path / "train-images-idx3-ubyte").write_bytes(
            struct.pack(">IIII", 0x00000803, 0, 28, 28)
        )
        (tmp_path / "train-labels-idx1-ubyte").write_bytes(
            struct.pack(">II", 0x00000801, 0)
        )
        code, _, err = run([*self.BASE, "--data-dir", str(tmp_path)], capsys)
        assert code == 3
        assert "data error" in err and "no images" in err

    @pytest.mark.parametrize("idx", [True, False], ids=["idx", "synthetic"])
    @pytest.mark.parametrize("flag, value", [("--T", "-3"), ("--eval-size", "-1")])
    def test_negative_image_count_is_usage_error(self, capsys, tmp_path, monkeypatch, idx, flag, value):
        # on IDX files a negative count would slice off the last images
        monkeypatch.delenv("QTHERMAL_DATASET_DIR", raising=False)
        data = []
        if idx:
            images = np.random.default_rng(0).integers(0, 256, (50, 4, 4), np.uint8)
            for split in ("train", "t10k"):
                (tmp_path / f"{split}-images-idx3-ubyte").write_bytes(
                    struct.pack(">IIII", 0x00000803, 50, 4, 4) + images.tobytes()
                )
                (tmp_path / f"{split}-labels-idx1-ubyte").write_bytes(
                    struct.pack(">II", 0x00000801, 50) + bytes(range(50))
                )
            data = ["--data-dir", str(tmp_path)]
        code, out, err = run([*self.BASE, *data, flag, value], capsys)
        assert code == 2
        assert out == ""
        assert f"must be >= 0, got {value}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "256"])
    def test_threshold_out_of_range_is_usage_error_on_the_synthetic_set(
        self, capsys, monkeypatch, value
    ):
        # the synthetic set is never binarised, so the range is checked
        # before either loader runs
        import qthermal.data as data

        def no_load(*args, **kwargs):
            raise AssertionError("a dataset was loaded before the threshold was checked")

        monkeypatch.delenv("QTHERMAL_DATASET_DIR", raising=False)
        monkeypatch.setattr(data, "synthetic_digits", no_load)
        code, out, err = run([*self.BASE, "--threshold", value], capsys)
        assert code == 2
        assert out == ""
        assert f"error: threshold must lie in [1, 255], got {value}" in err.splitlines()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--M", "0"], "probe copy number must be >= 1, got 0"),
            (["--M", "0", "--p-override", "0.1"], "probe copy number must be >= 1, got 0"),
            (["--p-override", "0.7"], "flip probability must lie in [0, 1/2], got 0.7"),
            (["--p-override", "nan"], "flip probability must lie in [0, 1/2], got nan"),
            (["--threads", "0"], "threads must be >= 1, got 0"),
            (["--classifier", "cnn", "--epochs", "0"], "epochs must be >= 1, got 0"),
            (["--classifier", "cnn", "--batch-size", "0"], "batch size must be >= 1"),
            (["--classifier", "cnn", "--lr", "nan"], "learning rate must be finite and >= 0, got nan"),
        ],
        ids=["M", "M_with_override", "p_override", "p_override_nan", "threads", "epochs", "batch_size", "lr"],
    )
    def test_flag_errors_come_before_any_dataset(self, capsys, monkeypatch, flags, message):
        import qthermal.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("a dataset was loaded before the flags were checked")

        monkeypatch.setattr(cli, "load_splits", no_load)
        code, out, err = run([*self.BASE, *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("idx", [True, False], ids=["idx", "synthetic"])
    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--trials", "trials must be >= 1, got 0"),
            ("--eval-size", "evaluation set is empty"),
            ("--T", "training set is empty"),
        ],
        ids=["trials", "eval_size", "T"],
    )
    def test_zero_counts_are_usage_errors_before_any_dataset(
        self, capsys, monkeypatch, tmp_path, idx, flag, message
    ):
        # an IDX split cut to no images would otherwise be a data error (exit 3)
        import qthermal.cli as cli

        def no_load(*args, **kwargs):
            raise AssertionError("a dataset was loaded before the counts were checked")

        monkeypatch.delenv("QTHERMAL_DATASET_DIR", raising=False)
        monkeypatch.setattr(cli, "load_splits", no_load)
        data = ["--data-dir", str(tmp_path)] if idx else []
        code, out, err = run([*self.BASE, *data, flag, "0"], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_thermal_figure_parameters(self, capsys):
        code, out, _ = run(
            [
                "simulate", "--classifier", "nn", "--kind", "thermal", "--tau", "0.99",
                "--epsB", "18.5", "--epsT", "20.2", "--M", "2500", "--T", "300",
                "--eval-size", "30", "--trials", "2", "--seed", "4",
            ],
            capsys,
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert int(row[0]) == 2500
        # quantum noise interval sits strictly inside the classical one
        assert float(row[4]) < float(row[1])

    def test_nn_output_pinned(self, capsys, tmp_path):
        # digest of the CSV written by the float32 nearest-neighbour GEMM
        # before the packed float64 one replaced it; E_cl_L, E_cl_U and E_q_U
        # are non-zero here, so a changed label anywhere shows
        out = tmp_path / "nn.csv"
        code = main(
            [
                "simulate", "--classifier", "nn", "--kind", "thermal", "--tau", "0.99",
                "--epsB", "18.5", "--epsT", "20.2", "--M", "200,400,1000", "--T", "3000",
                "--eval-size", "300", "--trials", "3", "--seed", "11", "--threads", "2",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        assert code == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert all(float(row[col]) > 0 for row in rows[:2] for col in (5, 6, 8))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "d7474834660b551e9e74d806be098078defc436944d289e0d3eef70ea80cc343"
        )

    def test_non_finite_loss_exit_code(self, capsys, monkeypatch):
        import qthermal.cnn as cnn
        from qthermal.errors import NonFiniteLossError

        def diverge(*args, **kwargs):
            raise NonFiniteLossError("loss evaluated to nan")

        monkeypatch.setattr(cnn, "loss_and_grad", diverge)
        # raised on a pool worker, re-raised in the caller
        code, out, err = run(
            [*self.BASE, "--classifier", "cnn", "--epochs", "1", "--threads", "2"], capsys
        )
        assert code == 4
        assert out == ""
        assert "error: loss evaluated to nan" in err.splitlines()
        assert "Traceback" not in err

    def test_overflowed_training_exit_code(self, capsys):
        # lr = 1e300 overflows the weights in the last SGD step of the only
        # epoch, after the last finite loss
        code, out, err = run(
            [
                "simulate", "--classifier", "cnn", "--kind", "additive", "--nuT", "0.01",
                "--nuB", "0.02", "--M", "10", "--T", "5", "--eval-size", "3", "--trials", "1",
                "--epochs", "1", "--batch-size", "4", "--lr", "1e300",
            ],
            capsys,
        )
        assert code == 4
        assert out == ""
        assert "error: a parameter is not finite after epoch 0" in err.splitlines()
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["--threads", "0"], "threads"),
            (["--threads", "-2"], "threads"),
            (["--classifier", "cnn", "--epochs", "0"], "epochs"),
            (["--classifier", "cnn", "--epochs", "-1"], "epochs"),
        ],
    )
    def test_counts_below_one_are_usage_errors(self, capsys, argv, name):
        code, out, err = run([*self.BASE, *argv], capsys)
        assert code == 2
        assert out == ""
        assert any(l.startswith(f"error: {name} must be >= 1") for l in err.splitlines())
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--trials", "0", "--threads", "2"], "error: trials must be >= 1, got 0"),
            (["--eval-size", "0", "--threads", "1"], "error: evaluation set is empty"),
        ],
        ids=["no_trials", "empty_evaluation"],
    )
    def test_empty_estimate_is_usage_error_before_training(self, capsys, monkeypatch, argv, message):
        import qthermal.cnn as cnn

        trained = []
        monkeypatch.setattr(cnn, "train", lambda *args: trained.append(args))
        code, out, err = run(
            [*self.BASE, "--M", "10,40", "--classifier", "cnn", "--epochs", "1", *argv], capsys
        )
        assert code == 2
        assert out == ""
        assert message in err.splitlines()
        assert trained == []

    @pytest.mark.parametrize("lr", ["nan", "inf"])
    def test_non_finite_learning_rate_is_usage_error(self, capsys, lr):
        code, out, err = run(
            [*self.BASE, "--classifier", "cnn", "--epochs", "1", "--lr", lr], capsys
        )
        assert code == 2
        assert out == ""
        assert any(
            l.startswith("error: learning rate must be finite and >= 0") for l in err.splitlines()
        )
        assert "Traceback" not in err

    def test_cnn_classifier_runs(self, capsys):
        code, out, _ = run(
            [
                "simulate", "--classifier", "cnn", "--kind", "additive",
                "--nuT", "0.01", "--nuB", "0.02", "--T", "80", "--eval-size", "20",
                "--trials", "1", "--M", "10", "--epochs", "1", "--seed", "2",
            ],
            capsys,
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 2


class TestTempCommand:
    def test_reference_rows(self, capsys):
        code, out, _ = run(["temp", "--eps", "18.5,20.2", "--wavelength", "1e-3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "nbar,T_K,T_C"
        r1 = [float(v) for v in lines[1].split(",")]
        r2 = [float(v) for v in lines[2].split(",")]
        assert r1[0] == 18.0 and r2[0] == pytest.approx(19.7)
        assert r1[1] == pytest.approx(266.10889993988314, rel=1e-12)
        assert r2[1] > r1[1]
        assert r1[2] == pytest.approx(r1[1] - 273.15)

    def test_vacuum_eps_is_usage_error(self, capsys):
        code, _, err = run(["temp", "--eps", "0.5"], capsys)
        assert code == 2

    def test_requires_exactly_one_input(self, capsys):
        code, _, _ = run(["temp", "--eps", "1.5", "--nbar", "1.0"], capsys)
        assert code == 2

    @pytest.mark.parametrize(
        "flag, name", [("--nbar", "occupation"), ("--eps", "thermal parameter")], ids=["nbar", "eps"]
    )
    def test_empty_grid_is_usage_error(self, capsys, flag, name):
        code, out, err = run(["temp", flag, ""], capsys)
        assert code == 2
        assert out == ""
        assert f"error: empty {name} grid" in err

    def test_range_grid_does_not_drift(self, capsys):
        code, out, _ = run(["temp", "--nbar", "0.1:1:0.1"], capsys)
        assert code == 0
        nbars = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
        assert nbars == [repr(0.1 + i * 0.1) for i in range(10)]
        assert nbars[-1] == "1.0"


@pytest.mark.parametrize(
    "argv",
    [
        ["fidelity", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--a", "0.5:inf:1"],
        ["fidelity", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--a", "inf:10:1"],
        ["fidelity", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--a", "0.5:nan:1"],
        ["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--m", "4",
         "--M", "1:inf:1"],
        ["temp", "--nbar", "1:inf:1"],
        ["temp", "--nbar", "1:2:inf"],
    ],
    ids=["fidelity-inf-stop", "fidelity-inf-start", "fidelity-nan-stop", "bounds-inf-stop",
         "temp-inf-stop", "temp-inf-step"],
)
def test_non_finite_range_is_usage_error(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"error: grid range must be finite, got {argv[-1]!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["fidelity", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--a", "0.5:1e300:1e-300"],
         "squeezing"),
        (["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--m", "4",
          "--M", "1:1e308:1e-308"], "probe copy"),
        (["temp", "--eps", "0.6:1e300:1e-300"], "thermal parameter"),
        (["temp", "--nbar", "-1e308:1e308:1"], "occupation"),
        (["temp", "--nbar", "1e308:-1e308:1"], "occupation"),
    ],
    ids=["fidelity", "bounds", "temp-eps", "temp-nbar-overflowing-span", "temp-nbar-descending"],
)
def test_range_of_uncountable_steps_is_usage_error(capsys, argv, name):
    # a finite range whose step count overflows a float names its grid
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"error: {name} grid range {argv[-1]!r} spans too many steps" in err
    assert "Traceback" not in err


def test_range_grid_point_cap_boundary(capsys, monkeypatch):
    import qthermal.cli as cli

    monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 5)
    code, out, _ = run(["temp", "--nbar", "1:5:1"], capsys)  # 4 steps, 5 points
    assert code == 0
    assert len(out.splitlines()) == 1 + 5
    code, out, err = run(["temp", "--nbar", "1:6:1"], capsys)  # 5 steps
    assert code == 2
    assert out == ""
    assert "error: occupation grid range '1:6:1' spans too many steps" in err.splitlines()


HUGE_GRID_SCRIPT = """
import resource
import sys

limit = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from qthermal.cli import main

sys.exit(main(["temp", "--eps", "0.6:1e12:1"]))
"""


def test_huge_finite_range_is_usage_error_before_any_point():
    """A range of ~1e12 points exits 2 before it builds a point.  The child
    runs under a 1 GiB address-space limit, so a grid that is built anyway
    ends in a ``MemoryError`` there, not in the memory of the machine."""
    proc = subprocess.run(
        [sys.executable, "-c", HUGE_GRID_SCRIPT],
        env=BENCH._child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stderr == (
        "error: thermal parameter grid range '0.6:1e12:1' spans too many steps\n"
    )


@pytest.mark.parametrize("target", ["missing_directory", "directory", "manifest_directory"])
def test_unwritable_out_is_usage_error(capsys, tmp_path, monkeypatch, target):
    import qthermal.cli as cli

    def no_run(args):
        raise AssertionError("the command ran before --out was checked")

    monkeypatch.setattr(cli, "cmd_temp", no_run)
    out = tmp_path / "table.csv"
    if target == "missing_directory":
        out = tmp_path / "missing" / "table.csv"
    elif target == "directory":
        out.mkdir()
    else:
        Path(f"{out}.manifest").mkdir()
    code, stdout, err = run(["temp", "--eps", "18.5", "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: cannot write output: ")
    assert "Traceback" not in err
    assert not (tmp_path / "table.csv").is_file()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["temp", "--nbar", "inf,1"], "grid values must be finite, got 'inf,1'"),
        (["temp", "--eps", "nan"], "grid values must be finite, got 'nan'"),
        (["fidelity", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--a", "0.5,inf"],
         "grid values must be finite, got '0.5,inf'"),
        (["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--m", "4",
          "--M", "1,inf"], "grid values must be finite, got '1,inf'"),
        (["temp", "--eps", "18.5", "--wavelength", "nan"],
         "wavelength must be positive and finite, got nan"),
        (["temp", "--eps", "18.5", "--wavelength", "inf"],
         "wavelength must be positive and finite, got inf"),
    ],
    ids=["temp-nbar-inf", "temp-eps-nan", "fidelity-a-inf", "bounds-M-inf",
         "temp-wavelength-nan", "temp-wavelength-inf"],
)
def test_non_finite_list_entry_is_usage_error(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_commands_take_no_covariance_matrix_or_extended_precision_route(capsys, monkeypatch):
    """Every fidelity a command prints comes from the closed forms."""
    import qthermal.channels as channels
    import qthermal.gaussian as gaussian

    def forbidden(*args, **kwargs):
        raise AssertionError("covariance-matrix or extended-precision fidelity called")

    for module, name in (
        (gaussian, "gaussian_fidelity"), (gaussian, "_fidelity_mp"), (channels, "_mp_choi_fidelity")
    ):
        monkeypatch.setattr(module, name, forbidden)
    thermal = ["--kind", "thermal", "--tau", "0.99", "--epsB", "18.5", "--epsT", "20.2"]
    additive = ["--kind", "additive", "--nuT", "0.01", "--nuB", "0.02"]
    commands = [
        ["fidelity", *thermal, "--a", "0.5,2.5,100"],
        ["fidelity", *additive, "--a", "0.5,2.5,100"],
        *(["bounds", *thermal, "--m", "784", "--M", "100,1000", "--energy", energy]
          for energy in ("asymptotic", "classical", "finite")),
        ["simulate", "--classifier", "nn", *thermal, "--T", "40", "--eval-size", "10",
         "--trials", "1", "--M", "10"],
    ]
    for argv in commands:
        code, _, err = run(argv, capsys)
        assert code == 0, (argv, err)


@pytest.mark.parametrize("job, argv", REFERENCE_JOBS, ids=[job for job, _ in REFERENCE_JOBS])
def test_benchmark_job_matches_reference(job, argv, tmp_path, capsys):
    out = tmp_path / f"{job}.csv"
    assert main([*argv, "--out", str(out)]) == 0
    reference = (BENCH.checks.REFERENCE_DIR / f"{job}.csv").read_text(encoding="utf-8")
    assert BENCH.checks.compare_reference(out.read_text(encoding="utf-8"), reference) == []


def test_benchmark_tracer_hooks_every_entry_point(capsys):
    """``bench/spans.py`` wraps entry points by module attribute, so a renamed
    target, or a target module that ``qthermal.cli`` no longer imports, breaks
    the traced benchmark; install it as ``bench/job.py`` does and run a tiny
    CNN job."""
    from qthermal import cli

    originals = {(m, a): getattr(sys.modules[m], a) for m, a, _, _ in BENCH.spans.TARGETS}
    tracer = BENCH.spans.Tracer()
    tracer.install()
    try:
        unpatched = [(m, a) for (m, a), fn in originals.items() if getattr(sys.modules[m], a) is fn]
        code = cli.main(
            [
                "simulate", "--classifier", "cnn", "--kind", "additive", "--nuT", "0.01",
                "--nuB", "0.02", "--T", "40", "--eval-size", "10", "--trials", "1",
                "--M", "10", "--epochs", "1",
            ]
        )
    finally:
        tracer.restore()
    capsys.readouterr()
    assert unpatched == []
    assert code == 0
    names = {span[2] for span in tracer.spans}
    assert {"cnn.train", "cnn.loss_and_grad", "cnn.predict_labels", "classify.estimate_error"} <= names


LAZY_CNN_SCRIPT = """
import sys

sys.path.insert(0, sys.argv[1])  # bench/, as for bench/job.py run as a script
import qthermal
from qthermal import cli

thermal = ["--kind", "thermal", "--tau", "0.99", "--epsB", "18.5", "--epsT", "20.2"]
for argv in (
    ["fidelity", *thermal, "--a", "0.5,2.5"],
    ["bounds", *thermal, "--m", "784", "--space", "cpf", "--k", "150", "--M", "100,200"],
    ["temp", "--eps", "18.5,20.2"],
):
    assert cli.main(argv) == 0, argv
loaded = {"_hashlib", "gzip", "concurrent.futures"} & set(sys.modules)
assert not loaded, f"analytic commands loaded {sorted(loaded)}"
assert cli.main(["simulate", "--classifier", "nn", *thermal, "--M", "10", "--T", "40",
                 "--eval-size", "10", "--trials", "1"]) == 0
assert {"_hashlib", "concurrent.futures"} <= set(sys.modules)
module = sys.modules["qthermal.cnn"]
assert qthermal.cnn is module
assert "train" not in object.__getattribute__(module, "__dict__"), "cnn body ran"

from spans import Tracer

tracer = Tracer()
tracer.install()
try:
    code = cli.main([
        "simulate", "--classifier", "cnn", "--kind", "additive", "--nuT", "0.01",
        "--nuB", "0.02", "--T", "40", "--eval-size", "10", "--trials", "1",
        "--M", "10", "--epochs", "1",
    ])
finally:
    tracer.restore()
assert code == 0
names = {span[2] for span in tracer.spans}
assert {"cnn.train", "cnn.loss_and_grad", "cnn.predict_labels"} <= names, names
"""


def test_analytic_commands_leave_cnn_unrun_and_tracer_hooks_it():
    """``fidelity``, ``bounds``, ``temp`` and ``simulate --classifier nn``
    run in an interpreter that imports as ``bench/job.py`` does leave
    ``qthermal.cnn`` registered with its body unrun; the three analytic
    commands load neither OpenSSL, gzip nor the thread pool, which the NN
    run loads.  The benchmark's tracer, installed afterwards, still wraps
    the CNN entry points of a ``simulate --classifier cnn`` run."""
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_CNN_SCRIPT, str(BENCH.HERE)],
        env=BENCH._child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


MICRO_CASES = {
    "gaussian.fidelity_mixed_us",
    "gaussian.fidelity_nearpure_us",
    "channels.choi_inf_thermal_ms",
    "spaces.bcpf_functional_ms",
    "classify.estimate_error_1trial_ms",
    "cnn.loss_and_grad_b64_ms",
    "cnn.predict_labels_b250_ms",
}


def test_microbenchmarks_run(tmp_path):
    """``bench/micro.py`` calls qthermal functions by module and name, so a
    rename under ``src/`` breaks the benchmark's per-call layer; run it in a
    fresh interpreter with the environment ``bench/run.py`` gives it."""
    result = tmp_path / "micro.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH.HERE / "micro.py"), str(result), "1"],
        env=BENCH._child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert set(json.loads(result.read_text(encoding="utf-8"))) == MICRO_CASES


class TestManifestAndConfig:
    MINIMAL = {
        "fidelity": ["--kind", "additive", "--nuT", "0.01", "--nuB", "0.02"],
        "bounds": ["--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--m", "4", "--M", "10"],
        "simulate": ["--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--M", "10",
                     "--T", "20", "--eval-size", "5", "--trials", "1"],
        "temp": ["--eps", "18.5"],
    }

    def test_one_parser_reads_every_subcommand(self, capsys, tmp_path):
        # one parser object holds every subcommand's flags; each command's
        # manifest records exactly the parameters that parser gives it
        parser = build_parser()
        params = {}
        for command, flags in self.MINIMAL.items():
            out = tmp_path / f"{command}.csv"
            argv = [command, *flags, "--out", str(out)]
            args = parser.parse_args(argv)
            assert (args.command, args.func.__name__) == (command, f"cmd_{command}")
            assert run(argv, capsys)[0] == 0
            params[command] = [line for line in Path(f"{out}.manifest").read_text().splitlines()
                               if line.startswith("param ")]
            assert params[command] == [
                f"param {k}: {v}" for k, v in sorted(vars(args).items()) if k not in {"command", "func"}
            ]
        defaults = TrainConfig()
        assert {
            f"param epochs: {defaults.epochs}",
            f"param batch_size: {defaults.batch_size}",
            f"param lr: {defaults.learning_rate}",
        } <= set(params["simulate"])

    def test_manifest_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _, _ = run(
            ["temp", "--eps", "18.5", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out_path.exists()
        manifest = (out_path.parent / "table.csv.manifest").read_text()
        assert "command: temp" in manifest
        assert "wall_time_s:" in manifest
        assert "param eps: 18.5" in manifest

    def test_config_file_with_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kind=additive\nnuT=0.01\nnuB=0.05\n")
        expected = fidelity_classical(EnvironmentPair.additive(0.02, 0.01))
        # every spelling of the flag reads the file and records its path
        for config in (["--config", str(cfg)], [f"--config={cfg}"], ["--conf", str(cfg)]):
            out_path = tmp_path / "fidelity.csv"
            code, _, _ = run(
                ["fidelity", *config, "--nuB", "0.02", "--a", "0.5", "--out", str(out_path)],
                capsys,
            )
            assert code == 0
            rows = out_path.read_text().split("\n")
            assert rows[0] == "a,F"
            assert float(rows[1].split(",")[1]) == pytest.approx(expected, abs=1e-12)
            manifest = Path(f"{out_path}.manifest").read_text().split("\n")
            assert f"param config: {cfg}" in manifest
            assert "param nuB: 0.02" in manifest

    def test_config_value_may_start_with_a_minus(self, capsys, tmp_path):
        # read as the single token --nuT=-1e-13
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nuT=-1e-13\n")
        code, out, _ = run(
            ["fidelity", "--kind", "additive", "--nuB", "0", "--a", "0.5", "--config", str(cfg)],
            capsys,
        )
        assert code == 0
        assert out.split("\n")[1] == "0.5,1.0"

    @pytest.mark.parametrize("value", ["-1e-13", "-1E-13", "-.5e-3"])
    def test_negative_exponent_value_may_follow_its_flag(self, capsys, tmp_path, value):
        # argparse's negative-number pattern has no exponent, so it would take
        # these for flags; the thermal kind records --nuT without using it
        csvs = []
        for i, spelling in enumerate((["--nuT", value], [f"--nuT={value}"])):
            out = tmp_path / f"{i}.csv"
            code, _, _ = run(
                ["fidelity", "--kind", "thermal", "--tau", "0.99", "--epsB", "18.5",
                 "--epsT", "20.2", "--a", "0.5,2", *spelling, "--out", str(out)],
                capsys,
            )
            assert code == 0
            manifest = (tmp_path / f"{i}.csv.manifest").read_text(encoding="utf-8")
            assert f"param nuT: {float(value)}" in manifest.splitlines()
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize(
        "argv",
        [["--config", "run.cfg", "temp", "--eps", "18.5"], ["temp", "--eps", "18.5", "--config"]],
        ids=["before-subcommand", "no-path"],
    )
    def test_misplaced_config_flag_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    BOUNDS_FLAGS = {
        "kind": "thermal", "tau": "0.99", "epsB": "18.5", "epsT": "20.2", "m": "784",
        "space": "cpf", "k": "150", "M": "100:2000:100", "energy": "finite", "a": "2.5",
    }

    @given(
        moved=st.sets(st.sampled_from(sorted(BOUNDS_FLAGS))),
        joined=st.booleans(),
        position=st.integers(0, len(BOUNDS_FLAGS)),
    )
    def test_config_file_equals_command_line(self, moved, joined, position):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            lines = [f"{k}={self.BOUNDS_FLAGS[k]}\n" for k in sorted(moved)]
            (tmp / "run.cfg").write_text("".join(lines))
            flags = [f for k, v in self.BOUNDS_FLAGS.items() for f in (f"--{k}", v)]
            kept = [f for k, v in self.BOUNDS_FLAGS.items() if k not in moved for f in (f"--{k}", v)]
            config = [f"--config={tmp / 'run.cfg'}"] if joined else ["--config", str(tmp / "run.cfg")]
            at = 2 * min(position, len(kept) // 2)
            assert main(["bounds", *flags, "--out", str(tmp / "flags.csv")]) == 0
            assert main(["bounds", *kept[:at], *config, *kept[at:], "--out", str(tmp / "cfg.csv")]) == 0
            assert (tmp / "cfg.csv").read_bytes() == (tmp / "flags.csv").read_bytes()

    @pytest.mark.parametrize("content", [None, b"M=\xff\xfe5\n"], ids=["missing", "non-utf8"])
    def test_unreadable_config_is_usage_error(self, capsys, tmp_path, content):
        cfg = tmp_path / "bad.cfg"
        if content is not None:
            cfg.write_bytes(content)
        with pytest.raises(SystemExit) as exc:
            main(["bounds", "--kind", "additive", "--nuT", "0.02", "--nuB", "0.01",
                  "--m", "4", "--M", "1", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "error: cannot read config file: " in capsys.readouterr().err

    def test_identical_manifest_params_identical_csv(self, capsys, tmp_path):
        args = ["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02",
                "--space", "uniform", "--m", "4", "--M", "1:20:1"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run([*args, "--out", str(p1)], capsys)
        run([*args, "--out", str(p2)], capsys)
        assert p1.read_bytes() == p2.read_bytes()


# Flag values for the CLI contract test, as (valid, invalid) spellings:
# huge, tiny, negative and non-finite numbers, empty and malformed grids.
EPS = ["0.5", "18.5", "20.2", "1e160", "2e160", "1e307"]
NU = ["0", "0.01", "0.02", "-1e-13", "1e-200", "1e160", "2e160", "1e308"]
BAD = ["-1", "inf", "nan", "x"]
CHANNEL = {
    "--kind": (["additive", "thermal"], ["bogus"]),
    "--tau": (["0", "0.5", "0.99", "1.5", "1e300"], BAD),
    "--epsT": (EPS, ["0.4", *BAD]),
    "--epsB": (EPS, ["0.4", *BAD]),
    "--nuT": (NU, BAD),
    "--nuB": (NU, BAD),
}
COMMANDS = {
    "fidelity": {
        **CHANNEL,
        "--a": (["0.5", "0.5,2.5,10", "0.5:100:0.0625", "1e6,1e300", "1.7e308"],
                ["0.4", "", "5:1:1", "0.5,inf", "x"]),
    },
    "bounds": {
        **CHANNEL,
        "--space": (["uniform", "cpf", "bcpf"], ["bogus"]),
        "--m": (["1", "6", "784"], ["0", "-3", "2.5"]),
        "--k": (["0", "3", "2,3", "100:149:1"], ["7", "", "x"]),
        "--M": (["1", "1,50,110", "100:20000:100", "1e308"], ["0", "1.5", ""]),
        "--energy": (["asymptotic", "classical", "finite"], ["bogus"]),
        "--a": (["0.5", "10", "1e300"], ["0.4", "inf"]),
    },
    "temp": {
        "--wavelength": (["1e-3", "1e-300", "1e300"], ["0", "-1", "inf"]),
        "--nbar": (["18", "0.5,18", "1e-300", "1e300", "5e-324"], ["0", "-1", ""]),
        "--eps": (["18.5", "0.53125:100:0.03125", "1e308"], ["0.5", "x"]),
    },
    # kept tiny: an omitted size flag would default to paper scale
    "simulate": {
        **CHANNEL,
        "--classifier": (["nn", "cnn"], ["bogus"]),
        "--M": (["1", "10,40", "1e308"], ["0"]),
        "--T": (["5", "30"], ["0", "-1"]),
        "--eval-size": (["3", "10"], ["0", "-2"]),
        "--trials": (["1", "2"], ["0"]),
        "--threads": (["1", "2"], []),
        "--p-override": (["0", "0.1", "0.5"], ["0.7", "-0.1", "nan"]),
        "--epochs": (["1"], ["0"]),
        "--batch-size": (["4"], ["0"]),
        "--lr": (["0.1", "1e300"], ["nan"]),
    },
}
# omitted, these flags would make nearly every case a usage error or too slow
ALWAYS_GIVEN = {"--kind", "--M", "--T", "--eval-size", "--trials", "--epochs"}


@st.composite
def command_lines(draw) -> list[str]:
    """One command with each flag valid (mostly), invalid or omitted."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag, (valid, invalid) in COMMANDS[command].items():
        omit = [] if flag in ALWAYS_GIVEN else [None]
        value = draw(st.sampled_from(valid * 4 + invalid + omit))
        if value is not None:
            argv += [flag, value]
    return argv


@settings(max_examples=300)
@given(command_lines())
@example(["fidelity", "--kind", "additive", "--nuT", "1e160", "--nuB", "2e160", "--a", "0.5,10"])
@example(["fidelity", "--kind", "thermal", "--tau", "0.5", "--epsT", "1e160", "--epsB", "2e160"])
@example(["bounds", "--kind", "additive", "--nuT", "1e160", "--nuB", "2e160", "--m", "6", "--M", "1"])
@example(["bounds", "--kind", "additive", "--nuT", "0.02", "--nuB", "0.02", "--m", "6", "--M", "1e308"])
@example(["temp", "--eps", "1e308"])
@example(["fidelity", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--a", "0.5:1e300:1e-300"])
@example(["bounds", "--kind", "additive", "--nuT", "0.01", "--nuB", "0.02", "--m", "4",
          "--M", "1:1e308:1e-308"])
@example(["temp", "--eps", "0.6:1e300:1e-300"])
def test_cli_contract(argv):
    """Every argument list exits 0, 2, 3 or 4 without a traceback, and a run
    that exits 0 raises no RuntimeWarning and prints only finite numbers,
    apart from the ``inf`` squeezing row of ``fidelity`` and an infinite
    ``# mbar_adv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code != 0:
        return
    assert "RuntimeWarning" not in err.getvalue()
    header, *rows = out.getvalue().splitlines()
    for row in rows:
        if row.startswith("# mbar_adv = "):
            assert not math.isnan(float(row.split("=")[1])), row
            continue
        cells = row.split(",")
        if argv[0] == "fidelity" and cells[0] == "inf":
            cells = cells[1:]
        assert all(math.isfinite(float(c)) for c in cells), row
