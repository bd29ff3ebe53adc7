"""End-to-end command line tests via subprocess."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def cli_env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def run_cli(*args, expect=0, memory_limit=None):
    env = cli_env()
    limit = None
    if memory_limit is not None:
        env["OPENBLAS_NUM_THREADS"] = "1"

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (memory_limit, memory_limit))

    completed = subprocess.run(
        [sys.executable, "-m", "spinaxes.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
        timeout=60,
    )
    assert completed.returncode == expect, (
        f"exit {completed.returncode}, expected {expect}\n"
        f"stdout: {completed.stdout}\nstderr: {completed.stderr}"
    )
    return completed


PAPER_TERMS = [
    "--term", "0.25,pi/2,0",
    "--term", "0.25,pi/2,pi",
    "--term", "0.25,0,0",
    "--term", "0.25,pi,0",
]


def paper_state_file(tmp_path):
    out = run_cli("ensemble", "--n", "2", *PAPER_TERMS, "--json")
    p = tmp_path / "state.json"
    p.write_text(out.stdout)
    return p


class TestEnsemble:
    def test_inline_terms_json(self, tmp_path):
        doc = json.loads(run_cli("ensemble", "--n", "2", *PAPER_TERMS, "--json").stdout)
        assert doc["schema_version"] == 1
        assert doc["j_doubled"] == 2
        m = doc["matrix"]
        assert m[0][0][0] == pytest.approx(0.375, abs=1e-12)
        assert m[1][1][0] == pytest.approx(0.25, abs=1e-12)
        assert m[0][2][0] == pytest.approx(0.125, abs=1e-12)

    def test_text_output_has_purity(self):
        out = run_cli("ensemble", "--n", "2", *PAPER_TERMS)
        assert "purity: 0.375" in out.stdout

    def test_file_input(self, tmp_path):
        doc = {
            "schema_version": 1,
            "n_qubits": 2,
            "terms": [
                {"weight": 0.5, "theta": 0.0, "phi": 0.0},
                {"weight": 0.5, "theta": math.pi, "phi": 0.0},
            ],
        }
        p = tmp_path / "ens.json"
        p.write_text(json.dumps(doc))
        out = json.loads(run_cli("ensemble", str(p), "--json").stdout)
        assert out["matrix"][1][1][0] == pytest.approx(0.0, abs=1e-15)

    def test_needs_input(self):
        res = run_cli("ensemble", expect=2)
        assert "term" in res.stderr

    def test_bad_weight_sum(self):
        res = run_cli("ensemble", "--n", "2", "--term", "0.7,0,0", expect=2)
        assert "sum" in res.stderr


class TestRho2tAndBack:
    def test_tensor_values(self, tmp_path):
        state = paper_state_file(tmp_path)
        doc = json.loads(run_cli("rho2t", str(state), "--json").stdout)
        table = {(e["k"], e["q"]): complex(e["re"], e["im"]) for e in doc["entries"]}
        assert table[(2, 0)].real == pytest.approx(1.0 / (4.0 * math.sqrt(2.0)), abs=1e-12)
        assert table[(2, 2)].real == pytest.approx(math.sqrt(3.0) / 8.0, abs=1e-12)

    def test_pipe_back_to_state(self, tmp_path):
        state = paper_state_file(tmp_path)
        tensor = tmp_path / "tensor.json"
        tensor.write_text(run_cli("rho2t", str(state), "--json").stdout)
        doc = json.loads(run_cli("t2rho", str(tensor), "--json").stdout)
        original = json.loads(state.read_text())
        for a in range(3):
            for b in range(3):
                assert doc["matrix"][a][b][0] == pytest.approx(original["matrix"][a][b][0], abs=1e-12)

    def test_json_reports_physicality(self, tmp_path):
        state = paper_state_file(tmp_path)
        tensor = tmp_path / "tensor.json"
        tensor.write_text(run_cli("rho2t", str(state), "--json").stdout)
        doc = json.loads(run_cli("t2rho", str(tensor), "--json").stdout)
        # the paper state's eigenvalues are 1/2, 1/4, 1/4
        assert doc["min_eigenvalue"] == pytest.approx(0.25, abs=1e-12)
        assert doc["physical"] is True
        assert doc["warnings"] == []
        # the report fields do not stop the document from loading as a state
        back = tmp_path / "back.json"
        back.write_text(json.dumps(doc))
        again = json.loads(run_cli("rho2t", str(back), "--json").stdout)["entries"]
        for e, f in zip(again, json.loads(tensor.read_text())["entries"], strict=True):
            assert (e["k"], e["q"]) == (f["k"], f["q"])
            assert complex(e["re"], e["im"]) == pytest.approx(complex(f["re"], f["im"]), abs=1e-14)

    def test_json_reports_non_physical_table(self, tmp_path):
        tensor = tmp_path / "tensor.json"
        entries = [{"k": 0, "q": 0, "re": 1.0, "im": 0.0}, {"k": 1, "q": 0, "re": 1.5, "im": 0.0}]
        tensor.write_text(json.dumps({"schema_version": 1, "j_doubled": 1, "entries": entries}))
        doc = json.loads(run_cli("t2rho", str(tensor), "--json").stdout)
        assert doc["min_eigenvalue"] == pytest.approx(-0.25, abs=1e-12)
        assert doc["physical"] is False
        assert len(doc["warnings"]) == 1
        assert "minimum eigenvalue -0.25" in doc["warnings"][0]

    @pytest.mark.parametrize("physical", [True, False])
    def test_one_eigendecomposition_per_state(self, tmp_path, monkeypatch, capsys, physical):
        from spinaxes import cli

        entries = [{"k": 0, "q": 0, "re": 1.0, "im": 0.0}, {"k": 1, "q": 0, "re": 0.5 if physical else 1.5, "im": 0.0}]
        tensor = tmp_path / "tensor.json"
        tensor.write_text(json.dumps({"schema_version": 1, "j_doubled": 1, "entries": entries}))
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        assert cli.main(["t2rho", str(tensor)]) == 0
        assert len(calls) == 1
        assert ("state: physical" in capsys.readouterr().out) is physical
        assert cli.main(["t2rho", str(tensor), "--json"]) == 0
        assert len(calls) == 2
        assert json.loads(capsys.readouterr().out)["physical"] is physical

    def test_text_mode_reports_physicality(self, tmp_path):
        state = paper_state_file(tmp_path)
        tensor = tmp_path / "tensor.json"
        tensor.write_text(run_cli("rho2t", str(state), "--json").stdout)
        out = run_cli("t2rho", str(tensor))
        assert "state: physical" in out.stdout

    def test_non_hermitian_exit_2(self, tmp_path):
        p = tmp_path / "nh.json"
        p.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "j_doubled": 1,
                    "matrix": [[[0.6, 0.0], [0.2, 0.1]], [[0.2, 0.3], [0.4, 0.0]]],
                }
            )
        )
        res = run_cli("rho2t", str(p), expect=2)
        assert "hermiticity" in res.stderr

    def test_missing_file_exit_2(self):
        res = run_cli("rho2t", "/no/such/file.json", expect=2)
        assert "cannot read" in res.stderr


NAN_STATE = {"schema_version": 1, "j_doubled": 1, "matrix": [[[0.5, 0.0], [math.nan, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
NEGATIVE_STATE = {"schema_version": 1, "j_doubled": -3, "matrix": []}
NEGATIVE_TENSOR = {"schema_version": 1, "j_doubled": -3, "entries": []}
# before its j check, a table this size would allocate about 160 GB of blocks
HUGE_TENSOR = {"schema_version": 1, "j_doubled": 100000, "entries": []}
# a block per degree up to this l_max would take tens of GB
HUGE_EXPANSION = {"schema_version": 1, "l_max": 100000000, "coeffs": []}
# the ladder-basis matrix of this many qubits would take 142 PiB
HUGE_ENSEMBLE = {"schema_version": 1, "n_qubits": 100000000, "terms": [{"weight": 1.0, "theta": 0.0, "phi": 0.0}]}
# raw bytes that json.loads rejects: not UTF-8 (b"\xff\xfe" reads as a UTF-16 mark), nested past the
# recursion limit, and an integer past Python's 4300-digit limit
NOT_UTF8 = b"\xff\xfe{}"
LATIN1_STATE = b'{"schema_version": 1, "j_doubled": 1, "matrix": "\xe9"}'
DEEP_ARRAY = b"[" * 200000 + b"]" * 200000
LONG_INTEGER = b'{"schema_version": 1, "j_doubled": ' + b"1" * 5000 + b', "matrix": []}'


class TestMalformedFiles:
    @pytest.mark.parametrize(
        "command, doc",
        [
            ("rho2t", NAN_STATE),
            ("mar", NAN_STATE),
            ("rho2t", NEGATIVE_STATE),
            ("mar", NEGATIVE_STATE),
            ("t2rho", NEGATIVE_TENSOR),
            ("mar", NEGATIVE_TENSOR),
            ("t2rho", HUGE_TENSOR),
            ("mar", HUGE_TENSOR),
            ("ensemble", HUGE_ENSEMBLE),
            ("mar", HUGE_ENSEMBLE),
            ("rho2t", NOT_UTF8),
            ("mar", LATIN1_STATE),
            ("t2rho", DEEP_ARRAY),
            ("mar", DEEP_ARRAY),
            ("rho2t", LONG_INTEGER),
            ("mar", LONG_INTEGER),
        ],
        ids=["nan-rho2t", "nan-mar", "neg-state-rho2t", "neg-state-mar",
             "neg-tensor-t2rho", "neg-tensor-mar", "huge-tensor-t2rho", "huge-tensor-mar",
             "huge-ensemble-ensemble", "huge-ensemble-mar", "not-utf8-rho2t", "latin1-mar",
             "deep-array-t2rho", "deep-array-mar", "long-integer-rho2t", "long-integer-mar"],
    )
    def test_one_error_line_and_exit_2(self, tmp_path, command, doc):
        p = tmp_path / "input.json"
        p.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        res = run_cli(command, str(p), expect=2, memory_limit=2 << 30)
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "source, flags",
        [
            ("expansion", []),
            ("uniform", ["--lmax", "100000000"]),
            ("uniform", ["--lmax", "-5"]),
            ("y2:l=100000000,m=0", []),
        ],
        ids=["huge-l_max-file", "huge-lmax-flag", "negative-lmax-flag", "huge-y2-degree"],
    )
    def test_pfunc_degree_bound(self, tmp_path, source, flags):
        if source == "expansion":
            source = tmp_path / "input.json"
            source.write_text(json.dumps(HUGE_EXPANSION))
        res = run_cli("pfunc", str(source), "--j", "1", *flags, expect=2, memory_limit=2 << 30)
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize("j", ["5000", "100000", "-3"])
    def test_pfunc_spin_bound(self, j):
        # the spin is checked before the quadrature grid of band 2j is built
        res = run_cli("pfunc", "uniform", "--j", j, expect=2, memory_limit=2 << 30)
        assert res.stdout == ""
        assert res.stderr.startswith("error: j ")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "command, target",
        [(["mar", "ENSEMBLE"], "missing/axes.csv"), (["pfunc", "uniform", "--j", "1"], ".")],
        ids=["mar-missing-directory", "pfunc-directory"],
    )
    def test_emit_plot_that_cannot_be_written(self, tmp_path, command, target):
        # one line naming the path, and nothing on stdout: the plot is written before any report
        ens = tmp_path / "ens.json"
        ens.write_text(json.dumps({"schema_version": 1, "n_qubits": 2, "terms": [{"weight": 1.0, "theta": 0.0, "phi": 0.0}]}))
        plot = str(tmp_path / target)
        res = run_cli(*[str(ens) if a == "ENSEMBLE" else a for a in command], "--emit-plot", plot, expect=2)
        assert res.stdout == ""
        assert res.stderr.startswith(f"error: cannot write {plot}: ")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr

    def test_huge_qubit_count_flag(self):
        res = run_cli("ensemble", "--n", "100000000", "--term", "1,0,0", expect=2, memory_limit=2 << 30)
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")
        assert res.stderr.count("\n") == 1
        assert "Traceback" not in res.stderr


class TestMar:
    def test_tolerance_must_be_finite_and_non_negative(self, tmp_path):
        # axes along z and x: a NaN tolerance used to turn "no" into "yes"
        ens = tmp_path / "ens.json"
        terms = [{"weight": 0.5, "theta": 0.0, "phi": 0.0}, {"weight": 0.5, "theta": math.pi / 2, "phi": 0.0}]
        ens.write_text(json.dumps({"schema_version": 1, "n_qubits": 2, "terms": terms}))
        assert "collinear: no" in run_cli("mar", str(ens)).stdout
        for args in (
            ["mar", str(ens), "--tol", "nan"],
            ["mar", str(ens), "--json", "--tol", "nan"],
            ["mar", str(ens), "--tol", "inf"],
            ["pfunc", "y2:l=1,m=0", "--j", "1", "--tol", "-1"],
        ):
            res = run_cli(*args, expect=2)
            assert res.stdout == ""
            assert res.stderr.startswith("error: tolerance ")
            assert res.stderr.count("\n") == 1

    def test_text_report(self, tmp_path):
        state = paper_state_file(tmp_path)
        out = run_cli("mar", str(state)).stdout
        assert "rank 1: radius 0" in out
        assert "radius 0.433012702" in out
        assert "collinear: yes" in out

    def test_json_report(self, tmp_path):
        state = paper_state_file(tmp_path)
        doc = json.loads(run_cli("mar", str(state), "--json").stdout)
        assert doc["j_doubled"] == 2
        two = doc["ranks"][1]
        assert two["rank"] == 2
        assert two["radius"] == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-9)
        assert two["sign"] == -1
        assert len(two["axes"]) == 2
        for axis in two["axes"]:
            assert axis["theta"] == pytest.approx(math.pi / 2.0, abs=1e-8)
            assert axis["phi"] == pytest.approx(math.pi / 2.0, abs=1e-8)
        assert doc["collinear"] is True

    def test_spin_zero_state(self, tmp_path):
        p = tmp_path / "state.json"
        p.write_text(json.dumps({"schema_version": 1, "j_doubled": 0, "matrix": [[[1.0, 0.0]]]}))
        doc = json.loads(run_cli("mar", str(p), "--json").stdout)
        assert doc == {"j_doubled": 0, "ranks": [], "collinear": True}

    def test_accepts_ensemble_and_tensor_files(self, tmp_path):
        ens = tmp_path / "ens.json"
        ens.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "n_qubits": 2,
                    "terms": [{"weight": 1.0, "theta": 0.0, "phi": 0.0}],
                }
            )
        )
        out = run_cli("mar", str(ens)).stdout
        assert "rank 2" in out
        state = paper_state_file(tmp_path)
        tensor = tmp_path / "t.json"
        tensor.write_text(run_cli("rho2t", str(state), "--json").stdout)
        out2 = run_cli("mar", str(tensor)).stdout
        assert "radius 0.433012702" in out2

    @pytest.mark.parametrize("kind", ["state", "ensemble", "tensor"])
    def test_reads_a_pipe(self, tmp_path, kind):
        # a pipe can be read only once, so the kind and the content come from one read
        ens = tmp_path / "ensemble.json"
        ens.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "n_qubits": 4,
                    "terms": [{"weight": 0.5, "theta": 0.3, "phi": 0.0}, {"weight": 0.5, "theta": 1.2, "phi": 2.0}],
                }
            )
        )
        state = tmp_path / "state.json"
        state.write_text(run_cli("ensemble", str(ens), "--json").stdout)
        tensor = tmp_path / "tensor.json"
        tensor.write_text(run_cli("rho2t", str(state), "--json").stdout)
        path = tmp_path / f"{kind}.json"
        piped = subprocess.run(
            [sys.executable, "-m", "spinaxes.cli", "mar", "/dev/stdin", "--json"],
            input=path.read_text(),
            capture_output=True,
            text=True,
            env=cli_env(),
            timeout=60,
        )
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout == run_cli("mar", str(path), "--json").stdout

    def test_tilted_product_state(self, tmp_path):
        # each rank k has one k-fold axis, tilted 0.1 rad from z
        state = tmp_path / "state.json"
        state.write_text(run_cli("ensemble", "--n", "10", "--term", "1,0.1,0", "--json").stdout)
        doc = json.loads(run_cli("mar", str(state), "--json").stdout)
        assert doc["collinear"] is True
        for entry in doc["ranks"]:
            assert len(entry["axes"]) == entry["rank"]
            for axis in entry["axes"]:
                assert axis["theta"] == pytest.approx(0.1, abs=1e-8)
                assert axis["phi"] == pytest.approx(0.0, abs=1e-8)

    def test_emit_plot_csv(self, tmp_path):
        state = paper_state_file(tmp_path)
        csv = tmp_path / "axes.csv"
        run_cli("mar", str(state), "--emit-plot", str(csv))
        lines = csv.read_text().strip().split("\n")
        assert lines[0] == "rank,x1,y1,z1,x2,y2,z2"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "2"
            u = [float(v) for v in cells[1:4]]
            v = [float(v) for v in cells[4:7]]
            assert u[1] == pytest.approx(1.0, abs=1e-8)
            assert v[1] == pytest.approx(-1.0, abs=1e-8)

    def test_plot_empty_for_maximally_mixed(self, tmp_path):
        doc = {
            "schema_version": 1,
            "j_doubled": 2,
            "matrix": [
                [[1 / 3, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [1 / 3, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [1 / 3, 0.0]],
            ],
        }
        p = tmp_path / "mixed.json"
        p.write_text(json.dumps(doc))
        csv = tmp_path / "axes.csv"
        out = run_cli("mar", str(p), "--emit-plot", str(csv)).stdout
        assert "rank 1: radius 0" in out
        assert csv.read_text().strip() == "rank,x1,y1,z1,x2,y2,z2"


class TestPfunc:
    def test_uniform_is_maximally_mixed(self):
        out = run_cli("pfunc", "uniform", "--j", "3/2").stdout
        assert "rank 1: radius 0" in out
        assert "rank 3: radius 0" in out
        assert "negativity: none" in out

    def test_builtin_harmonic_square(self):
        doc = json.loads(run_cli("pfunc", "y2:l=1,m=0", "--j", "1", "--json").stdout)
        table = {(e["k"], e["q"]): e["re"] for e in doc["tensor"]["entries"]}
        assert table[(2, 0)] == pytest.approx(math.sqrt(2.0) / 5.0, abs=1e-12)
        assert doc["non_classical"] is False
        two = doc["mar"]["ranks"][1]
        for axis in two["axes"]:
            assert axis["theta"] == pytest.approx(0.0, abs=1e-8)

    def test_closed_pipe_exits_quietly(self):
        # stdout is a pipe whose reader is already gone, as after `| head -0`
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = subprocess.run(
                [sys.executable, "-m", "spinaxes.cli", "pfunc", "y2:l=2,m=1", "--j", "3/2"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=cli_env(),
            )
        finally:
            os.close(write_end)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "Exception ignored" not in res.stderr

    def test_expansion_file(self, tmp_path):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        p = tmp_path / "e.json"
        p.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "l_max": 1,
                    "coeffs": [
                        {"l": 0, "m": 0, "re": a, "im": 0.0},
                        {"l": 1, "m": 0, "re": 0.1, "im": 0.0},
                    ],
                }
            )
        )
        out = run_cli("pfunc", str(p), "--j", "1").stdout
        assert "rank 1: radius" in out

    def test_reality_violation_exit_2(self, tmp_path):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        p = tmp_path / "bad.json"
        p.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "l_max": 1,
                    "coeffs": [
                        {"l": 0, "m": 0, "re": a, "im": 0.0},
                        {"l": 1, "m": 1, "re": 0.2, "im": 0.0},
                    ],
                }
            )
        )
        res = run_cli("pfunc", str(p), "--j", "1", expect=2)
        assert "reality" in res.stderr

    def test_negative_weight_flagged_but_allowed(self, tmp_path):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        p = tmp_path / "neg.json"
        p.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "l_max": 1,
                    "coeffs": [
                        {"l": 0, "m": 0, "re": a, "im": 0.0},
                        {"l": 1, "m": 0, "re": 0.4, "im": 0.0},
                    ],
                }
            )
        )
        out = run_cli("pfunc", str(p), "--j", "1").stdout
        assert "non-classical" in out

    def test_json_reports_captured_warnings(self, tmp_path):
        a = 1.0 / math.sqrt(4.0 * math.pi)
        p = tmp_path / "neg.json"
        coeffs = [{"l": 0, "m": 0, "re": a, "im": 0.0}, {"l": 1, "m": 0, "re": 0.4, "im": 0.0}]
        p.write_text(json.dumps({"schema_version": 1, "l_max": 1, "coeffs": coeffs}))
        doc = json.loads(run_cli("pfunc", str(p), "--j", "1", "--json").stdout)
        assert doc["non_classical"] is True
        assert len(doc["warnings"]) == 1
        assert "negative on the grid" in doc["warnings"][0]
        doc = json.loads(run_cli("pfunc", "uniform", "--j", "1", "--json").stdout)
        assert doc["warnings"] == []

    def test_lmax_below_the_expansion_degree_exit_2(self, tmp_path):
        # a random positive expansion of degree 6: lambda = 1/(4 pi) + sum over l = 1 .. 6 of terms that
        # are each at most |a^l| sqrt((2l+1)/(4 pi)) = 1/(48 pi) in magnitude (addition theorem)
        rng = np.random.default_rng(5)
        coeffs = [{"l": 0, "m": 0, "re": 1.0 / math.sqrt(4.0 * math.pi), "im": 0.0}]
        for l in range(1, 7):
            half = rng.normal(size=l + 1) + 1j * rng.normal(size=l + 1)  # a^l_m for m = 0 .. l
            half[0] = half[0].real
            block = np.concatenate([(-1.0) ** np.arange(l, 0, -1) * half[:0:-1].conj(), half])
            block /= 48.0 * math.pi * np.linalg.norm(block) * math.sqrt((2 * l + 1) / (4.0 * math.pi))
            coeffs += [{"l": l, "m": m, "re": a.real, "im": a.imag} for m, a in zip(range(-l, l + 1), block)]
        p = tmp_path / "l6.json"
        p.write_text(json.dumps({"schema_version": 1, "l_max": 6, "coeffs": coeffs}))
        # a grid for band 0 + 2j would alias degree 6 into the ranks
        res = run_cli("pfunc", str(p), "--j", "1", "--lmax", "0", expect=2)
        assert res.stdout == ""
        assert res.stderr.startswith("error: --lmax 0 ")
        assert res.stderr.count("\n") == 1
        # a band above the expansion's only refines the grid
        tables = []
        for flags in ([], ["--lmax", "40"]):
            doc = json.loads(run_cli("pfunc", str(p), "--j", "1", "--json", *flags).stdout)
            assert doc["non_classical"] is False
            tables.append({(e["k"], e["q"]): complex(e["re"], e["im"]) for e in doc["tensor"]["entries"]})
        assert max(abs(tables[0][key] - tables[1][key]) for key in tables[0]) < 1e-14


class TestPaperExample:
    def test_passes_and_is_deterministic(self):
        one = run_cli("paper-example").stdout
        two = run_cli("paper-example").stdout
        assert one == two
        assert "0.176776695" in one
        assert "0.216506351" in one
        assert "0.433012702" in one
        assert "roots: +1j x2, -1j x2" in one
        assert one.rstrip().endswith("axes: (pi/2, pi/2) x2 - collinear")

    def test_json_mode(self):
        doc = json.loads(run_cli("paper-example", "--json").stdout)
        assert doc["pass"] is True
        assert doc["max_deviation"] <= 1e-9
        assert doc["count_at_infinity"] == 0
        assert sorted(r["multiplicity"] for r in doc["roots"]) == [2, 2]
        assert doc["radius"] == pytest.approx(math.sqrt(3.0) / 4.0, abs=1e-9)


class TestCgAndTau:
    def test_cg_exact_text(self):
        out = run_cli("cg", "1/2", "1/2", "0", "-1/2", "1/2", "0").stdout
        assert "-sqrt(1/2)" in out
        assert "-0.707106781" in out

    def test_cg_zero(self):
        out = run_cli("cg", "1", "1", "1", "1", "1", "0").stdout.strip()
        assert out.endswith("= 0")

    def test_cg_json(self):
        doc = json.loads(run_cli("cg", "1", "1", "2", "1", "-1", "0", "--json").stdout)
        assert doc["sign"] == 1
        assert doc["magnitude_squared"] == {"numerator": 1, "denominator": 6}
        assert doc["value"] == pytest.approx(1.0 / math.sqrt(6.0))

    def test_cg_domain_error(self):
        res = run_cli("cg", "1/2", "1/2", "0", "1/2", "1/4", "0", expect=2)
        assert res.stderr.startswith("error:")

    def test_tau_text(self):
        out = run_cli("tau", "--j", "1/2", "1", "0").stdout
        assert "1+0j 0+0j" in out
        assert "0+0j -1+0j" in out

    def test_tau_json(self):
        doc = json.loads(run_cli("tau", "--j", "1", "2", "-2", "--json").stdout)
        assert doc["matrix"][2][0][0] == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_tau_out_of_range(self):
        run_cli("tau", "--j", "1/2", "2", "0", expect=2)

    def test_tau_out_of_range_names_the_rank(self):
        res = run_cli("tau", "--j", "1", "5", "0", expect=2)
        assert res.stderr == "error: rank k = 5 outside 0 .. 2\n"
