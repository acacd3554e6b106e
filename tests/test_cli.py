import csv
import functools
import gzip
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import load_dataset_csv_rows, save_distribution_csv_rows

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
    sha256_file,
)


load_counts_csv = functools.partial(load_dataset_csv, dtype=np.int64)

INT64_MAX = int(np.iinfo(np.int64).max)

# integer forms the int64 parse reads, and forms only the float64 parse reads
_PLAIN_FORMS = {
    "plain": str,
    "signed": lambda v: ("+" if v >= 0 else "") + str(v),
    "zeros": lambda v: ("-" if v < 0 else "") + "00" + str(abs(v)),
    "padded": lambda v: f" {v}\t",
}
_FLOAT_FORMS = {
    "point": lambda v: f"{v}.0",
    "exponent": lambda v: f"{v}e0",
}


# bad dataset files, each read as float64 and as int64 counts
DATASET_BAD_ROWS = [
    ("value\n0.5\n\n , ,\n0.25\nabc\n", 6, "non-numeric field"),
    ("x,y\n1,2\n\n3,4\n5\n", 5, "wrong number of fields"),
    ("1\n1_000\n", 2, "non-numeric field"),
    ("", 1, "no data rows"),
    ("value\n\n", 2, "no data rows"),
    ("3\n5\nfive\n", 3, "non-numeric field"),
    ("3\n3.0\n\n , ,\n4,5\n", 5, "wrong number of fields"),
    ("x\n9223372036854775808\nnan\n1e2\n0x10\n", 5, "non-numeric field"),
]


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
        # indices parse as floats, so 1.5 must be refused as well as a gap
        path = tmp_path / "m.csv"
        for text in ("j,m\n1,0.5\n3,0.25\n", "j,m\n1.5,0.5\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="indices"):
                load_moments_csv(path)

    @pytest.mark.parametrize(
        "loader,text,line_no,message",
        [(loader, *case) for loader in (load_dataset_csv, load_counts_csv) for case in DATASET_BAD_ROWS]
        + [
            (load_moments_csv, "j,m\n1,0.5\n\n2,oops\n", 4, "non-numeric field"),
            (load_matrix, "1.0,0.5\n\n0.5,x\n", 3, "non-numeric field"),
            (load_moments_csv, "j,m\n", 2, "no data rows"),
        ],
    )
    def test_bad_row_line_number(self, tmp_path, loader, text, line_no, message):
        # the count includes the header and the skipped blank lines
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(CsvFormatError, match=message) as err:
            loader(path)
        assert err.value.line_no == line_no

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(st.floats(width=64), min_size=1, max_size=60),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 100), st.sampled_from(["", "  ", ",", " , ,", "\t"])), max_size=4),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
        st.sampled_from(["%.17g", "%r"]),
    )
    def test_dataset_matches_row_reader(self, cols, values, header, blanks, eol, trailing, fmt):
        # bit-identical to the csv + float() reader it replaced, or the same
        # error line
        rows = [values[i : i + cols] for i in range(0, len(values) - cols + 1, cols)] or [values[:1] * cols]
        lines = [",".join(fmt % v for v in row) for row in rows]
        if header:
            lines.insert(0, ",".join(["value"] * cols))
        for at, blank in blanks:
            lines.insert(at % (len(lines) + 1), blank)
        text = eol.join(lines) + (eol if trailing else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "data.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            try:
                expected = load_dataset_csv_rows(path)
            except CsvFormatError as exc:
                with pytest.raises(CsvFormatError) as err:
                    load_dataset_csv(path)
                assert err.value.line_no == exc.line_no
                return
            got = load_dataset_csv(path)
        assert got.dtype == np.float64
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 3),
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(-1000, 1000),
                    st.integers(-(2**70), 2**70),
                    st.sampled_from([INT64_MAX, INT64_MAX + 1, -INT64_MAX - 1, -INT64_MAX - 2]),
                ),
                st.sampled_from(sorted(_PLAIN_FORMS) * 4 + sorted(_FLOAT_FORMS)),
            ),
            min_size=1,
            max_size=60,
        ),
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 100), st.sampled_from(["", "  ", ",", " , ,", "\t"])), max_size=3),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    def test_counts_match_row_reader(self, cols, fields, header, blanks, eol, trailing):
        # int64 exactly when every field is a plain integer in range and no
        # line after line 1 (skipped as a header when it does not parse)
        # holds only blanks and commas, with the same values as the csv +
        # float() reader; otherwise its float64 array bit for bit, or the
        # same error line
        rows = [fields[i : i + cols] for i in range(0, len(fields) - cols + 1, cols)] or [fields[:1] * cols]
        lines = [",".join({**_PLAIN_FORMS, **_FLOAT_FORMS}[form](v) for v, form in row) for row in rows]
        if header:
            lines.insert(0, ",".join(["count"] * cols))
        for at, blank in blanks:
            lines.insert(at % (len(lines) + 1), blank)
        text = eol.join(lines) + (eol if trailing else "")
        plain = all(form in _PLAIN_FORMS and -INT64_MAX - 1 <= v <= INT64_MAX for row in rows for v, form in row)
        plain = plain and all(line == "" or line.replace(",", "").strip() for line in lines[1:])
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "counts.csv")
            with open(path, "w", newline="") as fh:
                fh.write(text)
            try:
                expected = load_dataset_csv_rows(path)
            except CsvFormatError as exc:
                with pytest.raises(CsvFormatError) as err:
                    load_counts_csv(path)
                assert err.value.line_no == exc.line_no
                return
            got = load_counts_csv(path)
        assert got.shape == expected.shape
        if plain:
            assert got.dtype == np.int64
            assert got.ravel().tolist() == [v for row in rows for v, _ in row]
            assert np.array_equal(got, expected)
        else:
            assert got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()

    @staticmethod
    def _saved_like_csv_writer(dist):
        with tempfile.TemporaryDirectory() as tmp:
            got, expected = os.path.join(tmp, "got.csv"), os.path.join(tmp, "expected.csv")
            save_distribution_csv(dist, got)
            save_distribution_csv_rows(dist, expected)
            with open(got, "rb") as fh, open(expected, "rb") as fe:
                return fh.read() == fe.read()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 30), st.data())
    def test_distribution_saver_matches_csv_writer(self, d, rows, data):
        # byte-identical to the csv.writer loop it replaced: same header,
        # "%.17g" fields and CRLF line ends
        special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308])
        coords = data.draw(st.lists(st.one_of(special, st.floats(width=64)), min_size=rows * d, max_size=rows * d))
        raw = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(0.0, 1.0)), min_size=rows, max_size=rows
        )))
        weights = raw / raw.sum() if raw.sum() > 0 else np.full(rows, 1.0 / rows)
        support = np.array(coords) if d == 1 else np.array(coords).reshape(rows, d)
        assert self._saved_like_csv_writer(DiscreteDistribution.on_real_line(support, weights))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_distribution_saver_one_row_and_extremes(self, d):
        row = np.full((1, d), -0.0)
        one = DiscreteDistribution.on_real_line(row[:, 0] if d == 1 else row, [1.0])
        extremes = np.array([[-0.0, 5e-324, 1e308], [-1e308, 2.2250738585072014e-308, 0.1]])[:, :d]
        many = DiscreteDistribution.on_real_line(extremes[:, 0] if d == 1 else extremes, [1.0 - 5e-324, 5e-324])
        assert self._saved_like_csv_writer(one)
        assert self._saved_like_csv_writer(many)

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

    def test_malformed_obs_row_is_io(self, tmp_path, capsys):
        obs = tmp_path / "obs.csv"
        obs.write_text("3\n5\nfive\n")
        out = tmp_path / "q.csv"
        assert main(["popmle", "--obs", str(obs), "--t", "8", "--out", str(out)]) == EXIT_IO
        assert ":3:" in capsys.readouterr().err

    # np.loadtxt opens a str path through NumPy's datasource, which would
    # take these names for a URL, a file to decompress and a fallback to a
    # compressed sibling; the loaders read exactly the file named, as open()
    # does, and the CLI exits as it did when every parse read a handle

    @staticmethod
    def _exit_codes(name, out):
        return (
            main(["popmle", "--obs", name, "--t", "8", "--out", out]),
            main(["sde", "--matrix", name, "--eps", "0.5", "--delta", "0.1", "--out", out]),
        )

    def test_url_like_name_reads_the_local_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        (tmp_path / "http:" / "localhost" / "obs.csv").write_text("3\n5\nfive\n")
        name = "http://localhost/obs.csv"
        for loader in (load_dataset_csv, load_matrix):
            with pytest.raises(CsvFormatError) as err:
                loader(name)
            assert err.value.line_no == 3
        assert self._exit_codes(name, "q.csv") == (EXIT_IO, EXIT_IO)
        assert capsys.readouterr().err.count(f"{name}:3: non-numeric field") == 2

    def test_gz_file_is_read_as_text(self, tmp_path, capsys):
        path = tmp_path / "obs.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("3\n5\n")
        for loader in (load_dataset_csv, load_matrix):
            with pytest.raises(UnicodeDecodeError):  # gzip's magic byte 0x8b is not UTF-8
                loader(path)
        codes = self._exit_codes(str(path), str(tmp_path / "q.csv"))
        assert codes == (EXIT_VALIDATION, EXIT_VALIDATION)
        assert capsys.readouterr().err.count("can't decode byte 0x8b") == 2

    def test_missing_name_ignores_gz_sibling(self, tmp_path, capsys):
        with gzip.open(tmp_path / "obs.csv.gz", "wt") as fh:
            fh.write("3\n5\n")
        path = tmp_path / "obs.csv"
        for loader in (load_dataset_csv, load_matrix):
            with pytest.raises(FileNotFoundError):
                loader(path)
        assert self._exit_codes(str(path), str(tmp_path / "q.csv")) == (EXIT_IO, EXIT_IO)
        assert capsys.readouterr().err.count("No such file or directory") == 2

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
        assert payload["manifest"]["inputs"] == {"moments": sha256_file(moments_file)}
        assert payload["manifest"]["parameters"]["moments"] == moments_file.name

    def test_report_independent_of_directory(self, tmp_path, moments_file):
        # the manifest names files without their directories
        reports = []
        for sub in ("a", "run-in-a-longer-directory"):
            where = tmp_path / sub
            where.mkdir()
            moments = where / "moments.csv"
            moments.write_bytes(moments_file.read_bytes())
            report = where / "r.json"
            code = main([
                "recover", "--moments", str(moments), "--out", str(where / "q.csv"),
                "--report", str(report),
            ])
            assert code == EXIT_OK
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

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
        assert set(payload) == {"release", "diagnostics"}
        assert payload["release"]["n"] == 64
        assert payload["release"]["k"] == 64
        assert payload["diagnostics"]["w1_vs_input"] > 0
        assert payload["diagnostics"]["manifest"]["seed"] == 7

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

    @staticmethod
    def _run(tmp_path, tag, values, *extra, dim=1):
        data_path = tmp_path / f"{tag}.csv"
        np.savetxt(data_path, values, fmt="%.8f", delimiter=",")
        out = tmp_path / f"{tag}.dist.csv"
        report = tmp_path / f"{tag}.json"
        code = main([
            "dp-synth", "--data", str(data_path), "--epsilon", "0.5", "--delta", "0.01",
            "--dim", str(dim), "--out", str(out), "--report", str(report), "--evaluate", *extra,
        ])
        assert code == EXIT_OK
        return json.loads(report.read_text()), out.read_bytes()

    @pytest.mark.parametrize("dim", [1, 2])
    def test_release_part_ignores_the_clamp_count(self, tmp_path, dim):
        # a point at 1.5 clamps to 1.0: the rounded data, and so the release,
        # are those of the dataset with the point at 1.0; only the private
        # diagnostics see the difference
        values = np.random.default_rng(3).uniform(-1, 1, (48, dim)).squeeze()
        inside, outside = values.copy(), values.copy()
        inside[0], outside[0] = 1.0, 1.5
        a, a_out = self._run(tmp_path, "inside", inside, "--seed", "5", dim=dim)
        b, b_out = self._run(tmp_path, "outside", outside, "--seed", "5", dim=dim)
        assert json.dumps(a["release"], sort_keys=True) == json.dumps(b["release"], sort_keys=True)
        assert a_out == b_out
        assert a["diagnostics"]["clamped"] == 0
        assert b["diagnostics"]["clamped"] == dim  # one count per clamped coordinate

    def test_release_part_holds_no_private_key(self, tmp_path):
        values = np.random.default_rng(4).uniform(-1, 1, 40)
        payload, _ = self._run(tmp_path, "data", values, "--seed", "2")

        def keys(obj):
            if isinstance(obj, dict):
                for key, value in obj.items():
                    yield key
                    yield from keys(value)
            elif isinstance(obj, list):
                for value in obj:
                    yield from keys(value)

        assert not {"seed", "inputs", "clamped", "w1_vs_input"} & set(keys(payload["release"]))
        assert {"clamped", "w1_vs_input", "manifest"} <= set(payload["diagnostics"])

    def test_unseeded_runs_draw_fresh_seeds(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MOMENTFORGE_SEED", raising=False)
        values = np.random.default_rng(6).uniform(-1, 1, 40)
        runs = [self._run(tmp_path, f"run{i}", values) for i in range(2)]
        seeds = [payload["diagnostics"]["manifest"]["seed"] for payload, _ in runs]
        assert seeds[0] != seeds[1]
        for i, (seed, (payload, dist)) in enumerate(zip(seeds, runs)):
            assert 0 <= seed < 2**63
            again, again_dist = self._run(tmp_path, f"run{i}", values, "--seed", str(seed))
            assert again_dist == dist
            assert again["release"] == payload["release"]


    @pytest.mark.parametrize("columns,dim", [(3, 2), (2, 3), (2, 1), (1, 2)])
    def test_dim_must_match_the_file(self, tmp_path, capsys, columns, dim):
        data_path = tmp_path / "data.csv"
        values = np.random.default_rng(8).uniform(-1, 1, (40, columns)).squeeze()
        np.savetxt(data_path, values, fmt="%.8f", delimiter=",")
        out, report = tmp_path / "q.csv", tmp_path / "r.json"
        code = main([
            "dp-synth", "--data", str(data_path), "--epsilon", "0.5", "--delta", "0.01",
            "--seed", "1", "--dim", str(dim), "--out", str(out), "--report", str(report),
        ])
        assert code == EXIT_VALIDATION
        assert f"--dim {dim}" in capsys.readouterr().err
        assert not out.exists() and not report.exists()


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

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_entry_rejected(self, tmp_path, capsys, bad):
        path = tmp_path / "a.csv"
        path.write_text(f"1,{bad}\n{bad},1\n")
        out = tmp_path / "q.csv"
        code = main([
            "sde", "--matrix", str(path), "--eps", "0.2", "--delta", "0.1",
            "--seed", "5", "--out", str(out),
        ])
        assert code == EXIT_VALIDATION
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


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

    @staticmethod
    def _popmle(obs_path, out, report):
        return main(["popmle", "--obs", str(obs_path), "--t", "8", "--grid", "101",
                     "--out", str(out), "--report", str(report)])

    def test_integer_and_float_counts_give_the_same_fit(self, tmp_path):
        # same file names in two directories, so the manifests differ only
        # in the input digest
        obs = np.random.default_rng(5).binomial(8, 0.3, 500)
        outputs = []
        for fmt in ("%d", "%.1f"):
            run = tmp_path / fmt.strip("%.")
            run.mkdir()
            np.savetxt(run / "obs.csv", obs, fmt=fmt)
            assert self._popmle(run / "obs.csv", run / "q.csv", run / "r.json") == EXIT_OK
            outputs.append(((run / "q.csv").read_bytes(), json.loads((run / "r.json").read_text())))
        (int_dist, int_report), (float_dist, float_report) = outputs
        assert int_dist == float_dist
        assert int_report["manifest"].pop("inputs") != float_report["manifest"].pop("inputs")
        assert int_report == float_report

    @pytest.mark.parametrize("text", ["3,4\n5,6\n", "3\n4.5\n"])
    def test_two_columns_and_fractions_are_validation_errors(self, tmp_path, text):
        obs = tmp_path / "obs.csv"
        obs.write_text(text)
        assert self._popmle(obs, tmp_path / "q.csv", tmp_path / "r.json") == EXIT_VALIDATION


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

    @pytest.mark.parametrize("bounds", [["--nmin", "0"], ["--nmin", "-4"], ["--nmin", "64", "--nmax", "32"]])
    def test_bad_n_range_is_validation(self, tmp_path, bounds):
        # a subprocess with a timeout, so that a sweep that never ends fails
        # the test rather than hanging it
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        out = tmp_path / "rows.csv"
        run = subprocess.run(
            [sys.executable, "-m", "momentforge.cli", "experiment-dp", "--dist", "sine", *bounds,
             "--trials", "1", "--seed", "0", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == EXIT_VALIDATION, run.stderr
        assert "--nm" in run.stderr
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [["--nmin", "0"], ["--nmin", "256", "--nmax", "128"]])
    def test_scaling_script_refuses_the_same_ranges(self, tmp_path, bounds):
        # the script shares the CLI's n list; it used to print a NaN slope
        # after a RuntimeWarning at --nmax < --nmin
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
        out = tmp_path / "rows.csv"
        run = subprocess.run(
            [sys.executable, str(root / "scripts" / "run_dp_scaling.py"), "--dist", "sine", *bounds,
             "--trials", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert run.returncode == EXIT_VALIDATION, run.stderr
        assert "--nm" in run.stderr
        assert not out.exists()

    def test_jobs_flag_matches_serial(self, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        base = ["experiment-dp", "--dist", "sine", "--nmin", "32", "--nmax", "32",
                "--trials", "2", "--seed", "4"]
        assert main(base + ["--out", str(serial)]) == EXIT_OK
        assert main(base + ["--out", str(parallel), "--jobs", "2"]) == EXIT_OK
        assert serial.read_bytes() == parallel.read_bytes()

    def test_jobs_capped_at_task_count(self, tmp_path, monkeypatch):
        # a pool may start all its workers at once; a fake one records
        # how many were asked for and runs the tasks in this process
        import momentforge.experiments

        asked = []

        class SerialPool:
            def __init__(self, max_workers, mp_context=None):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(momentforge.experiments, "ProcessPoolExecutor", SerialPool)
        serial, capped = tmp_path / "serial.csv", tmp_path / "capped.csv"
        base = ["experiment-dp", "--dist", "sine", "--nmin", "32", "--nmax", "32", "--seed", "4"]
        assert main(base + ["--trials", "3", "--out", str(serial)]) == EXIT_OK
        assert main(base + ["--trials", "3", "--out", str(capped), "--jobs", "64"]) == EXIT_OK
        assert main(base + ["--trials", "1", "--out", str(tmp_path / "one.csv"), "--jobs", "64"]) == EXIT_OK
        assert asked == [3]
        assert serial.read_bytes() == capped.read_bytes()


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
        assert payload["diagnostics"]["manifest"]["seed"] == 99

    def test_env_seed_read_on_every_call(self, tmp_path, monkeypatch):
        # the parser is built once per process, so the variable must be read
        # per call; an explicit --seed still wins
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, np.random.default_rng(5).uniform(-1, 1, 30), fmt="%.8f")
        report = tmp_path / "r.json"

        def recorded_seed(env, *extra):
            if env is None:
                monkeypatch.delenv("MOMENTFORGE_SEED", raising=False)
            else:
                monkeypatch.setenv("MOMENTFORGE_SEED", env)
            code = main([
                "dp-synth", "--data", str(data_path), "--epsilon", "0.5", "--delta", "0.01",
                "--out", str(tmp_path / "q.csv"), "--report", str(report), *extra,
            ])
            assert code == EXIT_OK
            return json.loads(report.read_text())["diagnostics"]["manifest"]["seed"]

        assert recorded_seed("7") == 7
        assert recorded_seed("8") == 8
        assert recorded_seed("8", "--seed", "3") == 3
        # without either, dp-synth draws a secret seed rather than 0
        assert recorded_seed(None) != recorded_seed(None)

    @pytest.mark.parametrize("subcommand", ["sde", "dp-synth"])
    def test_non_integer_env_seed_is_a_validation_error(self, tmp_path, monkeypatch, capsys, subcommand):
        monkeypatch.setenv("MOMENTFORGE_SEED", "abc")
        out = tmp_path / "q.csv"
        if subcommand == "sde":
            path = tmp_path / "a.csv"
            path.write_text("1,0.5\n0.5,1\n")
            argv = ["sde", "--matrix", str(path), "--eps", "0.2", "--delta", "0.1"]
        else:
            path = tmp_path / "data.csv"
            np.savetxt(path, np.random.default_rng(5).uniform(-1, 1, 30), fmt="%.8f")
            argv = ["dp-synth", "--data", str(path), "--epsilon", "0.5", "--delta", "0.01"]
        code = main([*argv, "--out", str(out)])
        assert code == EXIT_VALIDATION
        assert "MOMENTFORGE_SEED" in capsys.readouterr().err
        assert not out.exists()
