import csv
import json

import numpy as np
import pytest

from momentforge.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION, main
from momentforge.distributions import DiscreteDistribution, cheb_moments
from momentforge.fileio import (
    CsvFormatError,
    load_dataset_csv,
    load_distribution_csv,
    load_matrix,
    load_moments_csv,
    save_distribution_csv,
    save_moments_csv,
)


@pytest.fixture()
def moments_file(tmp_path):
    p = DiscreteDistribution(np.array([-0.4, 0.1, 0.6]), np.array([0.2, 0.5, 0.3]))
    path = tmp_path / "moments.csv"
    save_moments_csv(cheb_moments(p, 8), path)
    return path


class TestFileIo:
    def test_distribution_round_trip(self, tmp_path):
        p = DiscreteDistribution(np.array([-0.5, 0.25]), np.array([0.4, 0.6]))
        path = tmp_path / "dist.csv"
        save_distribution_csv(p, path)
        q = load_distribution_csv(path)
        assert np.array_equal(q.support, p.support)
        assert np.array_equal(q.weights, p.weights)

    def test_distribution_2d_round_trip(self, tmp_path):
        p = DiscreteDistribution(np.array([[0.1, -0.2], [0.3, 0.4]]), np.array([0.7, 0.3]))
        path = tmp_path / "dist2.csv"
        save_distribution_csv(p, path)
        q = load_distribution_csv(path)
        assert np.allclose(q.support, p.support)

    def test_off_sum_weights_warn_and_renormalize(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("x,weight\n0.0,0.5\n0.5,0.6\n")
        with pytest.warns(UserWarning):
            dist = load_distribution_csv(path)
        assert dist.weights.sum() == pytest.approx(1.0)

    def test_malformed_distribution_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,weight\n0.0,0.5\noops,0.5\n")
        with pytest.raises(CsvFormatError) as err:
            load_distribution_csv(path)
        assert err.value.line_no == 3

    def test_dataset_with_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("value\n0.5\n-0.25\n")
        assert load_dataset_csv(path) == pytest.approx([0.5, -0.25])

    def test_dataset_multi_column(self, tmp_path):
        path = tmp_path / "data2.csv"
        path.write_text("0.5,0.1\n-0.25,0.9\n")
        data = load_dataset_csv(path)
        assert data.shape == (2, 2)

    def test_moments_round_trip(self, moments_file):
        moments = load_moments_csv(moments_file)
        assert moments.k == 8

    def test_moments_need_contiguous_indices(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("j,m\n1,0.5\n3,0.25\n")
        with pytest.raises(ValueError):
            load_moments_csv(path)

    def test_matrix_market_symmetric(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "1 1 2.0\n"
            "2 1 -1.0\n"
            "3 3 0.5\n"
            "2 2 1.0\n"
        )
        a = load_matrix(path)
        assert a == pytest.approx(np.array([[2, -1, 0], [-1, 1, 0], [0, 0, 0.5]]))

    def test_matrix_dense_csv(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1.0,0.5\n0.5,2.0\n")
        assert load_matrix(path) == pytest.approx(np.array([[1, 0.5], [0.5, 2]]))


class TestExitCodes:
    def test_missing_required_flag(self):
        assert main(["recover", "--out", "q.csv"]) == EXIT_USAGE

    def test_unknown_suite(self):
        assert main(["verify", "--suite", "nope"]) == EXIT_USAGE

    def test_missing_file_is_io(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["recover", "--moments", str(tmp_path / "none.csv"), "--out", str(out)]) == EXIT_IO

    def test_malformed_row_is_io(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("j,m\n1,0.5\ntwo,0.1\n")
        out = tmp_path / "q.csv"
        assert main(["recover", "--moments", str(path), "--out", str(out)]) == EXIT_IO
        assert ":3:" in capsys.readouterr().err

    def test_validation_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("0.5\n0.1\n")
        out = tmp_path / "q.csv"
        code = main([
            "dp-synth", "--data", str(path), "--epsilon", "0.5", "--delta", "2.0",
            "--out", str(out),
        ])
        assert code == EXIT_VALIDATION


class TestRecoverCommand:
    def test_writes_outputs(self, tmp_path, moments_file):
        out = tmp_path / "q.csv"
        report = tmp_path / "r.json"
        code = main([
            "recover", "--moments", str(moments_file), "--out", str(out),
            "--report", str(report),
        ])
        assert code == EXIT_OK
        dist = load_distribution_csv(out)
        assert dist.weights.sum() == pytest.approx(1.0)
        payload = json.loads(report.read_text())
        assert payload["k"] == 8
        assert payload["converged"] is True
        assert payload["manifest"]["subcommand"] == "recover"
        assert str(moments_file) in payload["manifest"]["inputs"]

    def test_exact_moments_converge(self, tmp_path):
        # the first 5-atom draw of this seed at k = 16 used to end at the
        # first-order solver's iteration cap, exit 4
        rng = np.random.default_rng(240812385)
        p = DiscreteDistribution(rng.uniform(-1, 1, 5), rng.dirichlet(np.ones(5)))
        moments_path = tmp_path / "m.csv"
        save_moments_csv(cheb_moments(p, 16), moments_path)
        out = tmp_path / "q.csv"
        report = tmp_path / "r.json"
        code = main([
            "recover", "--moments", str(moments_path), "--out", str(out),
            "--report", str(report),
        ])
        assert code == EXIT_OK
        assert json.loads(report.read_text())["converged"] is True

    def test_mismatched_degree_is_validation(self, tmp_path, moments_file):
        out = tmp_path / "q.csv"
        code = main(["recover", "--moments", str(moments_file), "--k", "5", "--out", str(out)])
        assert code == EXIT_VALIDATION


class TestDpSynthCommand:
    def test_end_to_end_with_report(self, tmp_path):
        rng = np.random.default_rng(0)
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, rng.uniform(-1, 1, 64), fmt="%.8f")
        out = tmp_path / "q.csv"
        report = tmp_path / "r.json"
        code = main([
            "dp-synth", "--data", str(data_path), "--epsilon", "0.5", "--delta", "0.01",
            "--seed", "7", "--out", str(out), "--report", str(report), "--evaluate",
        ])
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["n"] == 64
        assert payload["k"] == 64
        assert payload["w1_vs_input"] > 0
        assert payload["manifest"]["seed"] == 7

    def test_byte_identical_outputs_same_manifest(self, tmp_path):
        rng = np.random.default_rng(1)
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, rng.uniform(-1, 1, 40), fmt="%.8f")
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"q_{tag}.csv"
            code = main([
                "dp-synth", "--data", str(data_path), "--epsilon", "0.5",
                "--delta", "0.01", "--seed", "3", "--out", str(out),
            ])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSdeCommand:
    def test_small_matrix(self, tmp_path):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(12, 12))
        a = 0.5 * (a + a.T)
        path = tmp_path / "a.csv"
        np.savetxt(path, a, delimiter=",", fmt="%.10f")
        out = tmp_path / "q.csv"
        report = tmp_path / "r.json"
        code = main([
            "sde", "--matrix", str(path), "--eps", "0.2", "--delta", "0.1",
            "--seed", "5", "--out", str(out), "--report", str(report),
        ])
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["n"] == 12
        assert payload["path"] == "dense"
        assert payload["matvecs"] == 12


class TestPopmleCommand:
    def test_with_truth(self, tmp_path):
        rng = np.random.default_rng(3)
        biases = rng.choice([0.25, 0.75], size=2000)
        obs = rng.binomial(8, biases)
        obs_path = tmp_path / "obs.csv"
        np.savetxt(obs_path, obs, fmt="%d")
        truth_path = tmp_path / "truth.csv"
        truth = DiscreteDistribution(np.array([0.25, 0.75]) * 2 - 1, np.array([0.5, 0.5]))
        save_distribution_csv(truth, truth_path)
        out = tmp_path / "q.csv"
        report = tmp_path / "r.json"
        code = main([
            "popmle", "--obs", str(obs_path), "--t", "8", "--grid", "201",
            "--out", str(out), "--report", str(report), "--truth", str(truth_path),
        ])
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["w1_vs_truth"] < payload["w1_naive_vs_truth"]
        trace = payload["log_likelihood_trace"]
        assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


class TestExperimentCommand:
    def test_row_counts_and_columns(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main([
            "experiment-dp", "--dist", "gaussian", "--nmin", "32", "--nmax", "64",
            "--trials", "3", "--seed", "11", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert set(rows[0]) == {"n", "trial", "w1", "expected_bound"}
        from momentforge.dpsynth import expected_error_curve

        for row in rows:
            n = int(row["n"])
            assert float(row["expected_bound"]) == pytest.approx(expected_error_curve(n, 0.5, 1.0 / n**2))

    def test_jobs_flag_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        base = ["experiment-dp", "--dist", "sine", "--nmin", "32", "--nmax", "32",
                "--trials", "2", "--seed", "4"]
        assert main(base + ["--out", str(serial)]) == EXIT_OK
        assert main(base + ["--out", str(parallel), "--jobs", "2"]) == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()


class TestVerifyCommand:
    def test_all_suites_pass(self, capsys):
        assert main(["verify"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "FAIL" not in out

    def test_decay_suite_prints_values(self, capsys):
        assert main(["verify", "--suite", "decay"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pi/2" in out


class TestSeedEnvVar:
    def test_env_seed_used_as_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MOMENTFORGE_SEED", "99")
        rng = np.random.default_rng(5)
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, rng.uniform(-1, 1, 30), fmt="%.8f")
        out = tmp_path / "q.csv"
        report = tmp_path / "r.json"
        code = main([
            "dp-synth", "--data", str(data_path), "--epsilon", "0.5",
            "--delta", "0.01", "--out", str(out), "--report", str(report),
        ])
        assert code == EXIT_OK
        payload = json.loads(report.read_text())
        assert payload["manifest"]["seed"] == 99
