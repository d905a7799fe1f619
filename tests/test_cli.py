"""Command-line interface: exit codes, determinism, file formats."""

import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tnngrass
from tnngrass import amplituhedron_map
from tnngrass import RationalMatrix, UserInputError, build_setup
from tnngrass.cli import (
    EXIT_FALSE_VERDICT,
    EXIT_FALSIFIED,
    EXIT_OK,
    EXIT_USAGE,
    canonical_json,
    draw_nodes,
    main,
    random_top_cell_point,
)
from helpers import HOSTILE_ENTRIES, count_computed_tables, identity, power_draw_nodes, power_top_cell_point, vandermonde_setup


def run_python(*args, **run_kwargs):
    """A child Python process that imports this same package."""
    package_root = str(Path(tnngrass.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, **run_kwargs
    )


def run_cli(*args, **run_kwargs):
    """``python -m tnngrass.cli`` in a child process that imports this same package."""
    return run_python("-m", "tnngrass.cli", *args, **run_kwargs)


def write(path, payload):
    path.write_text(canonical_json(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    m = RationalMatrix([[1, 1, 1], [1, 2, 3]])
    return write(tmp_path / "matrix.json", m.to_json_dict())


@pytest.fixture
def setup_file(tmp_path):
    setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
    return write(tmp_path / "setup.json", setup.to_json_dict())


class TestCheckTnn:
    def test_identity_passes(self, tmp_path):
        path = write(tmp_path / "id.json", identity(2).to_json_dict())
        assert main(["check-tnn", path]) == EXIT_OK

    def test_negative_minor_fails_with_witness(self, tmp_path, capsys):
        path = write(
            tmp_path / "bad.json", RationalMatrix([[1, 0], [0, -1]]).to_json_dict()
        )
        assert main(["check-tnn", path]) == EXIT_FALSE_VERDICT
        out = capsys.readouterr().out
        assert "violation" in out and "[1, 2]" in out

    def test_vandermonde_sample_file(self, matrix_file):
        assert main(["check-tnn", matrix_file]) == EXIT_OK

    def test_missing_file_is_usage_error(self):
        assert main(["check-tnn", "/nonexistent.json"]) == EXIT_USAGE


def _cap_address_space():
    # runs in the child only: an oversized allocation there fails fast
    # with MemoryError instead of taking the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


class TestTableSizeLimit:
    """A few KB of input asking for C(40, 20) or C(41, 20) minors or for a
    C(20, 10)-square projection, or a few bytes asking for a matrix of more
    entries than that limit or a z0 setup of more than 64 columns, is
    refused before the matrix is built."""

    REQUESTS = {
        "fiber-campaign": ["fiber-campaign", "--k", "20", "--m", "20", "--trials", "1"],
        # 10^8 default nodes; a 3000 x 3001 Vandermonde matrix with only 3001 minors
        "sample-n": ["sample", "--k", "1", "--n", "100000000"],
        "sample-k": ["sample", "--k", "3000", "--n", "3001"],
        "z0": ["z0", "--k", "100000001", "--m", "0"],
        # a 441 x 442 matrix of only 194922 entries: n is refused above 64
        "z0-n": ["z0", "--k", "1", "--m", "440"],
    }

    @pytest.mark.parametrize("command", ["check-tnn", "embed", *REQUESTS])
    def test_refused_quickly_without_traceback(self, tmp_path, command):
        if command == "check-tnn":
            rows = [[int(i == j) for j in range(40)] for i in range(20)]
            args = [command, write(tmp_path / "wide.json", RationalMatrix(rows).to_json_dict())]
        elif command == "embed":
            # (k, m) = (10, 10): a C(20, 10) x C(20, 10) projection, 3.4e10 entries
            nodes = [Fraction(i) for i in range(1, 22)]
            setup = write(tmp_path / "setup.json", vandermonde_setup(10, 10, nodes).to_json_dict())
            point = RationalMatrix([[x ** i for x in nodes] for i in range(10)])
            args = [command, setup, write(tmp_path / "point.json", point.to_json_dict())]
        else:
            args = self.REQUESTS[command]
        start = time.perf_counter()
        out = run_cli(*args, preexec_fn=_cap_address_space, timeout=60)
        assert time.perf_counter() - start < 20.0
        assert out.returncode == EXIT_USAGE
        assert "error:" in out.stderr and "exceed" in out.stderr
        assert "Traceback" not in out.stderr


class TestCellMember:
    def test_member(self, tmp_path, matrix_file):
        cell = write(tmp_path / "cell.json", {"k": 2, "n": 3, "nonbases": []})
        assert main(["cell-member", matrix_file, cell]) == EXIT_OK

    def test_not_member(self, tmp_path, matrix_file):
        cell = write(tmp_path / "cell.json", {"k": 2, "n": 3, "nonbases": [[1, 2]]})
        assert main(["cell-member", matrix_file, cell]) == EXIT_FALSE_VERDICT


class TestSampleAndMap:
    def test_sample_writes_matrix(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["sample", "--k", "2", "--n", "4", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["rows"] == 2 and payload["cols"] == 4

    def test_map_identity_boundary(self, tmp_path):
        setup = build_setup(2, 0, identity(2))
        setup_path = write(tmp_path / "s.json", setup.to_json_dict())
        v_path = write(tmp_path / "v.json", RationalMatrix([[1, 0], [2, 1]]).to_json_dict())
        out = tmp_path / "image.json"
        assert main(["map", setup_path, v_path, "--out", str(out)]) == EXIT_OK
        image = json.loads(out.read_text())["image"]
        assert RationalMatrix.from_json_dict(image) == RationalMatrix([[1, 0], [2, 1]])


class TestGridSampler:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.integers(1, 5),
        st.integers(0, 6),
        st.fractions(min_value=-20, max_value=20, max_denominator=9),
        st.fractions(min_value=Fraction(1, 9), max_value=30, max_denominator=9),
    )
    def test_matches_the_node_per_draw_sampler(self, seed, k, extra, lo, span):
        # same rng calls, same matrix, entry for entry
        n = k + extra
        rng, oracle_rng = Random(seed), Random(seed)
        point = random_top_cell_point(rng, k, n, lo, lo + span)
        assert point.matrix == power_top_cell_point(oracle_rng, k, n, lo, lo + span)
        assert rng.getstate() == oracle_rng.getstate()
        assert draw_nodes(rng, 65, lo, lo + span) == power_draw_nodes(oracle_rng, 65, lo, lo + span)

    @pytest.mark.parametrize("lo, hi", [(Fraction(2), Fraction(2)), (Fraction(3), Fraction(1))])
    def test_empty_node_range_refused(self, lo, hi):
        # lo == hi used to loop forever once two distinct nodes were asked for
        with pytest.raises(UserInputError):
            draw_nodes(Random(0), 2, lo, hi)


class TestFiberCommands:
    def test_fiber_check_trivial_pair(self, tmp_path, setup_file):
        u = write(tmp_path / "u.json", RationalMatrix([[1, 1, 1, 1]]).to_json_dict())
        out = tmp_path / "cert.json"
        assert main(["fiber-check", setup_file, u, u, "--out", str(out)]) == EXIT_OK
        cert = json.loads(out.read_text())
        assert cert["verdict"] is True

    def test_campaign_deterministic_bytes(self, tmp_path):
        args = ["fiber-campaign", "--k", "1", "--m", "2", "--trials", "4", "--seed", "11"]
        dir_a, dir_b, dir_c = (tmp_path / x for x in ("a", "b", "c"))
        assert main(args + ["--out-dir", str(dir_a)]) == EXIT_OK
        assert main(args + ["--out-dir", str(dir_b)]) == EXIT_OK
        assert main(
            ["fiber-campaign", "--k", "1", "--m", "2", "--trials", "4", "--seed", "12",
             "--out-dir", str(dir_c)]
        ) == EXIT_OK
        for name in ("certificate_00000.json", "certificate_00003.json", "report.json"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        assert (dir_a / "certificate_00000.json").read_bytes() != (
            dir_c / "certificate_00000.json"
        ).read_bytes()

    @pytest.mark.parametrize("zero_col", [[], ["--zero-col", "3"]], ids=["top", "zeroed"])
    def test_campaign_counts_lambda_halvings(self, tmp_path, zero_col):
        args = ["fiber-campaign", "--k", "2", "--m", "1", "--trials", "20", *zero_col]
        assert main(args + ["--out-dir", str(tmp_path)]) == EXIT_OK
        counters = json.loads((tmp_path / "report.json").read_text())["counters"]
        # a zeroed column pins every partner to V = U, which takes no halving
        assert counters["accepted"] == 20
        assert (counters["lambda_halvings"] == 0) == bool(zero_col)

    def test_campaign_zero_column_cells(self, tmp_path):
        out_dir = tmp_path / "certs"
        assert main(
            ["fiber-campaign", "--k", "2", "--m", "1", "--trials", "3", "--seed", "5",
             "--zero-col", "2", "--out-dir", str(out_dir)]
        ) == EXIT_OK
        cert = json.loads((out_dir / "certificate_00000.json").read_text())
        assert cert["cell"]["nonbases"]
        for entry in cert["minors"]:
            if entry["cols"] in cert["cell"]["nonbases"]:
                assert entry["alpha"] == "0" and entry["beta"] == "0"

    def test_campaign_computes_each_table_once(self, tmp_path, monkeypatch):
        args = ["fiber-campaign", "--k", "3", "--m", "4", "--trials", "200", "--seed", "1",
                "--zero-col", "3", "--out-dir", str(tmp_path)]
        tables = count_computed_tables(monkeypatch)
        assert main(args) == EXIT_OK
        counters = json.loads((tmp_path / "report.json").read_text())["counters"]
        # the setup, then per trial the point, its zeroed copy and U + d^T a, and the
        # lambda = 2 table unless x = 0, where it is V's own table again
        assert counters["degenerate_pairs"] == 200
        assert len(tables) == 1 + 3 * 200 == len(set(tables))

    def test_campaign_wrong_n_is_usage_error(self):
        # n is always k + m + 1, so the command takes no --n
        for n in ("4", "5"):
            with pytest.raises(SystemExit) as exc:
                main(["fiber-campaign", "--k", "1", "--m", "2", "--n", n, "--trials", "1"])
            assert exc.value.code == EXIT_USAGE

    def test_campaign_hundred_trials_all_true(self, capsys):
        assert main(
            ["fiber-campaign", "--k", "1", "--m", "2", "--trials", "100", "--seed", "42"]
        ) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS] all_certificates_valid" in out
        assert "trials = 100" in out

    @staticmethod
    def _inconsistent(monkeypatch):
        import tnngrass.cli as cli_mod
        from tnngrass import InternalConsistencyError

        def inconsistent(setup, cell, u, v):
            # convexity_certificate returns a true verdict or raises this
            raise InternalConsistencyError("lambda = 2 minor differs from its affine prediction")

        monkeypatch.setattr(cli_mod, "convexity_certificate", inconsistent)

    def test_internal_consistency_maps_to_exit_3(self, tmp_path, setup_file, monkeypatch):
        self._inconsistent(monkeypatch)
        u = write(tmp_path / "u.json", RationalMatrix([[1, 1, 1, 1]]).to_json_dict())
        assert main(["fiber-check", setup_file, u, u]) == EXIT_FALSIFIED

    def test_internal_consistency_in_a_campaign_maps_to_exit_3(self, monkeypatch):
        self._inconsistent(monkeypatch)
        assert main(["fiber-campaign", "--k", "1", "--m", "2", "--trials", "2"]) == EXIT_FALSIFIED


class TestZ0Command:
    def test_k1_m2_kernel_in_json(self, tmp_path):
        out = tmp_path / "z0.json"
        assert main(["z0", "--k", "1", "--m", "2", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["kernel"] == ["1", "-1", "1", "-1"]
        assert payload["allMinorsPositive"] is True

    def test_odd_m_usage_error(self):
        assert main(["z0", "--k", "1", "--m", "1"]) == EXIT_USAGE

    def test_precision_above_ceiling_usage_error(self, capsys):
        assert main(["z0", "--k", "1", "--m", "2", "--precision", "700"]) == EXIT_USAGE
        assert "640" in capsys.readouterr().err

    def test_k2_m2_positive(self, tmp_path):
        out = tmp_path / "z0.json"
        assert main(["z0", "--k", "2", "--m", "2", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["allMinorsPositive"] is True

    def test_exhausted_precision_budget_usage_error(self, tmp_path, monkeypatch, capsys):
        # rows of zeros never pass: every precision up to the ceiling fails, then ConstructionError
        def zero_rows(k, m, n, digits):
            return [[Fraction(0)] * n for _ in range(k + m)]

        monkeypatch.setattr(amplituhedron_map, "_trig_rows", zero_rows)
        out = tmp_path / "z0.json"
        assert main(["z0", "--k", "1", "--m", "2", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "640 digits" in err
        assert not out.exists()


class TestLogLevel:
    @pytest.mark.parametrize("level", ["bogus", "", "10"])
    def test_unknown_level_is_usage_error(self, monkeypatch, level):
        monkeypatch.setenv("AMP_LOG", level)
        result = run_cli("sample", "--k", "1", "--n", "3")
        assert result.returncode == EXIT_USAGE
        assert result.stderr.startswith("error: AMP_LOG must be one of")
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_known_level_in_any_case(self, monkeypatch):
        monkeypatch.setenv("AMP_LOG", "debug")
        result = run_cli("sample", "--k", "1", "--n", "3")
        assert result.returncode == EXIT_OK
        assert "Traceback" not in result.stderr


class TestEmbedAndEquivalence:
    def test_embed(self, tmp_path, setup_file):
        v = write(tmp_path / "v.json", RationalMatrix([[1, 0, 0, 0]]).to_json_dict())
        out = tmp_path / "emb.json"
        assert main(["embed", setup_file, v, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["entries"][0][0] == "1/3"

    def test_same_file_twice_identity_certificate(self, tmp_path, setup_file):
        out = tmp_path / "eq.json"
        assert main(["equivalence", setup_file, setup_file, "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["D_diag"] == ["1", "1", "1", "1"]
        assert payload["detC"] == "1"

    def test_vandermonde_vs_cyclic(self, tmp_path, setup_file):
        z0_path = tmp_path / "z0.json"
        assert main(["z0", "--k", "1", "--m", "2", "--out", str(z0_path)]) == EXIT_OK
        out = tmp_path / "eq.json"
        assert main(["equivalence", setup_file, str(z0_path), "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        assert Fraction(payload["detC"]) > 0

    def test_report_lists_three_verdicts(self, tmp_path, setup_file, capsys):
        out = tmp_path / "eq.json"
        assert main(["equivalence", setup_file, setup_file, "--out", str(out)]) == EXIT_OK
        lines = [line.split()[-1] for line in capsys.readouterr().out.splitlines() if "[PASS]" in line]
        assert lines == ["certificate_exact", "det_C_positive", "D_diagonal_positive"]

    @pytest.mark.parametrize("option", [["--spot-checks", "3"], ["--seed", "1"]])
    def test_spot_check_options_are_gone(self, tmp_path, setup_file, option, capsys):
        out = tmp_path / "eq.json"
        with pytest.raises(SystemExit) as exc:
            main(["equivalence", setup_file, setup_file, *option, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_degenerate_kernel_precondition_report(self, tmp_path):
        degenerate = build_setup(1, 1, RationalMatrix([[1, 1, 0], [0, 0, 1]]))
        bad = write(tmp_path / "bad.json", degenerate.to_json_dict())
        good = write(
            tmp_path / "good.json",
            vandermonde_setup(1, 1, [Fraction(i) for i in (1, 2, 3)]).to_json_dict(),
        )
        assert main(["equivalence", good, bad]) == EXIT_USAGE


class TestReport:
    def test_recheck_certificates(self, tmp_path, setup_file):
        z0_path = tmp_path / "z0.json"
        main(["z0", "--k", "1", "--m", "2", "--out", str(z0_path)])
        eq_path = tmp_path / "eq.json"
        main(["equivalence", setup_file, str(z0_path), "--out", str(eq_path)])
        assert main(["report", str(eq_path)]) == EXIT_OK

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 2), m=st.integers(1, 2), data=st.data())
    def test_written_certificates_pass(self, k, m, data):
        nodes_st = st.lists(st.integers(1, 40), min_size=k + m + 1, max_size=k + m + 1, unique=True)
        with tempfile.TemporaryDirectory() as tmp:
            a, b, eq = (str(Path(tmp) / name) for name in ("a.json", "b.json", "eq.json"))
            for path in (a, b):
                nodes = sorted(Fraction(x, 4) for x in data.draw(nodes_st))
                write(Path(path), vandermonde_setup(k, m, nodes).to_json_dict())
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                assert main(["equivalence", a, b, "--out", eq]) == EXIT_OK
                assert main(["report", eq]) == EXIT_OK
        assert "[PASS] setups_positive_corank_one" in sink.getvalue()

    def test_tampered_certificate_fails(self, tmp_path, setup_file):
        z0_path = tmp_path / "z0.json"
        main(["z0", "--k", "1", "--m", "2", "--out", str(z0_path)])
        eq_path = tmp_path / "eq.json"
        main(["equivalence", setup_file, str(z0_path), "--out", str(eq_path)])
        payload = json.loads(eq_path.read_text())
        payload["detC"] = "-1"
        eq_path.write_text(json.dumps(payload))
        assert main(["report", str(eq_path)]) == EXIT_FALSE_VERDICT

    def test_report_with_no_verdict_fails(self, tmp_path, capsys):
        path = write(tmp_path / "r.json", {"verdicts": []})
        assert main(["report", path]) == EXIT_FALSE_VERDICT
        assert f"{path}: [FAIL] lists_a_verdict" in capsys.readouterr().out

    @pytest.mark.parametrize("resize", [lambda d: d[:-1], lambda d: d + ["1"]], ids=["short", "long"])
    def test_diagonal_of_wrong_length_is_usage_error(self, tmp_path, setup_file, resize, capsys):
        eq_path = tmp_path / "eq.json"
        assert main(["equivalence", setup_file, setup_file, "--out", str(eq_path)]) == EXIT_OK
        payload = json.loads(eq_path.read_text())
        payload["D_diag"] = resize(payload["D_diag"])
        capsys.readouterr()
        assert main(["report", write(eq_path, payload)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_equivalence_checks_the_identity_once(self, tmp_path, setup_file, monkeypatch):
        calls = []
        original = RationalMatrix.__matmul__

        def counted(a, b):
            calls.append((a.rows, a.cols, b.cols))
            return original(a, b)

        monkeypatch.setattr(RationalMatrix, "__matmul__", counted)
        args = ["equivalence", setup_file, setup_file, "--out", str(tmp_path / "eq.json")]
        assert main(args) == EXIT_OK
        # C (Z D) once for the certificate
        assert len(calls) == 1

    def test_certificate_of_nonpositive_setups_fails(self, tmp_path, capsys):
        # Z' = C Z D holds, but the minor of Z on columns {1, 3} is 0
        z = RationalMatrix([[1, 0, -5], [0, 1, 0]]).to_json_dict()
        cert = {"Z": z, "Zprime": z, "C": identity(2).to_json_dict(), "D_diag": ["1", "1", "1"],
                "detC": "1"}
        assert main(["report", write(tmp_path / "eq.json", cert)]) == EXIT_FALSE_VERDICT
        out = capsys.readouterr().out
        assert "[FAIL] setups_positive_corank_one" in out
        assert out.count("[PASS]") == 4

    def test_certificate_of_corank_two_setups_fails(self, tmp_path, capsys):
        # Z' = C Z D holds and every minor is positive, but Z is 1 x 3, not r x (r + 1)
        z = RationalMatrix([[1, 2, 3]]).to_json_dict()
        cert = {"Z": z, "Zprime": z, "C": identity(1).to_json_dict(), "D_diag": ["1", "1", "1"],
                "detC": "1"}
        assert main(["report", write(tmp_path / "eq.json", cert)]) == EXIT_FALSE_VERDICT
        assert "[FAIL] setups_positive_corank_one" in capsys.readouterr().out

    def test_setup_file_with_wrong_kernel_rejected(self, tmp_path):
        setup = vandermonde_setup(1, 2, [Fraction(i) for i in (1, 2, 3, 4)])
        payload = setup.to_json_dict()
        payload["kernel"] = ["1", "1", "1", "1"]
        bad = write(tmp_path / "bad_setup.json", payload)
        v = write(tmp_path / "v.json", RationalMatrix([[1, 0, 0, 0]]).to_json_dict())
        assert main(["map", bad, v]) == EXIT_USAGE


@pytest.fixture
def fiber_certificate(tmp_path, setup_file):
    """A genuine convexity certificate for the top cell of Gr(1, 4)."""
    u = write(tmp_path / "u.json", RationalMatrix([[1, 1, 1, 1]]).to_json_dict())
    out = tmp_path / "cert.json"
    assert main(["fiber-check", setup_file, u, u, "--out", str(out)]) == EXIT_OK
    return json.loads(out.read_text())


class TestReportFiberCertificates:
    def test_campaign_certificates_pass(self, tmp_path, capsys):
        out_dir = tmp_path / "certs"
        assert main(
            ["fiber-campaign", "--k", "2", "--m", "2", "--trials", "3", "--seed", "3",
             "--out-dir", str(out_dir)]
        ) == EXIT_OK
        certs = sorted(str(p) for p in out_dir.glob("certificate_*.json"))
        assert main(["report", *certs]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    def test_vacuous_certificate_fails(self, tmp_path, capsys):
        cert = {"cell": {"k": 1, "n": 3, "nonbases": []}, "minors": [], "verdict": True}
        assert main(["report", write(tmp_path / "c.json", cert)]) == EXIT_FALSE_VERDICT
        assert "[FAIL] lists_every_subset_once" in capsys.readouterr().out

    def test_repeated_subset_fails(self, tmp_path, fiber_certificate):
        fiber_certificate["minors"][1] = fiber_certificate["minors"][0]
        path = write(tmp_path / "c.json", fiber_certificate)
        assert main(["report", path]) == EXIT_FALSE_VERDICT

    def test_forged_cell_size_fails_without_enumerating(self, tmp_path, fiber_certificate):
        fiber_certificate["cell"] = {"k": 30, "n": 60, "nonbases": []}
        path = write(tmp_path / "c.json", fiber_certificate)
        assert main(["report", path]) == EXIT_FALSE_VERDICT

    def test_forged_huge_cell_size_fails_quickly(self, tmp_path, capsys):
        cert = {"cell": {"k": 2000000, "n": 4000000, "nonbases": []}, "minors": [],
                "verdict": True}
        path = write(tmp_path / "c.json", cert)
        start = time.perf_counter()
        assert main(["report", path]) == EXIT_FALSE_VERDICT
        assert time.perf_counter() - start < 2.0
        assert "[FAIL] lists_every_subset_once" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda c: c["minors"][0].pop("beta"),
            lambda c: c.pop("cell"),
            lambda c: c.__setitem__("verdict", "yes"),
            lambda c: c["minors"][0].__setitem__("alpha", 0.5),
            lambda c: c["minors"][0].__setitem__("alpha", "1/0"),
            lambda c: c["minors"][0].__setitem__("cols", 2),
            lambda c: c["minors"][0].__setitem__("cols", [1.0]),
            lambda c: c["cell"].__setitem__("n", 4.0),
            lambda c: c.__setitem__("minors", [3]),
        ],
    )
    def test_missing_or_mistyped_field_is_usage_error(
        self, tmp_path, fiber_certificate, tamper, capsys
    ):
        tamper(fiber_certificate)
        path = write(tmp_path / "c.json", fiber_certificate)
        assert main(["report", path]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_mistyped_report_verdict_is_usage_error(self, tmp_path):
        report = {"verdicts": [{"name": "x", "ok": "true"}]}
        assert main(["report", write(tmp_path / "r.json", report)]) == EXIT_USAGE

    @pytest.mark.parametrize("name", [["x"], 1, None, "x\nother.json: [PASS] verdict", "x\r", "x\u2028y"])
    def test_verdict_name_that_is_no_single_line_is_usage_error(self, tmp_path, name, capsys):
        # a list printed as "[PASS] ['x']", or a line break that forges a PASS line for another file
        report = {"verdicts": [{"name": name, "ok": True}]}
        assert main(["report", write(tmp_path / "r.json", report)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


class TestReportArtifacts:
    """A report file passes only if every artifact it lists is there and passes."""

    @pytest.fixture
    def campaign(self, tmp_path):
        out_dir = tmp_path / "fc"
        args = ["fiber-campaign", "--k", "2", "--m", "1", "--trials", "3", "--out-dir", str(out_dir)]
        assert main(args) == EXIT_OK
        return out_dir

    def test_campaign_report_rechecks_each_certificate(self, campaign, capsys):
        capsys.readouterr()
        assert main(["report", str(campaign / "report.json")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        for t in range(3):
            assert f"{campaign / f'certificate_{t:05d}.json'}: [PASS] verdict" in out

    def test_missing_certificate_fails(self, campaign, capsys):
        (campaign / "certificate_00001.json").unlink()
        capsys.readouterr()
        assert main(["report", str(campaign / "report.json")]) == EXIT_FALSE_VERDICT
        assert f"{campaign / 'certificate_00001.json'}: [FAIL] artifact_exists" in capsys.readouterr().out

    def test_edited_certificate_fails(self, campaign, capsys):
        path = campaign / "certificate_00002.json"
        cert = json.loads(path.read_text())
        cert["minors"][0]["alpha"] = "-1"
        write(path, cert)
        assert main(["report", str(campaign / "report.json")]) == EXIT_FALSE_VERDICT
        assert "[FAIL] coefficients_support_verdict" in capsys.readouterr().out

    @pytest.mark.parametrize("listed", ["report.json", "other.json"])
    def test_listed_report_fails_without_recursing(self, campaign, listed, capsys):
        report = json.loads((campaign / "report.json").read_text())
        report["artifacts"].append(listed)
        write(campaign / "report.json", report)
        write(campaign / "other.json", report)
        capsys.readouterr()
        assert main(["report", str(campaign / "report.json")]) == EXIT_FALSE_VERDICT
        assert f"{campaign / listed}: [FAIL] artifact_is_certificate" in capsys.readouterr().out

    @pytest.mark.parametrize("artifacts", [[3], "certificate_00000.json", {"a": 1}])
    def test_mistyped_artifacts_are_usage_error(self, campaign, artifacts, capsys):
        report = json.loads((campaign / "report.json").read_text())
        report["artifacts"] = artifacts
        assert main(["report", write(campaign / "report.json", report)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_artifact_name_with_a_line_break_is_usage_error(self, campaign, capsys):
        report = json.loads((campaign / "report.json").read_text())
        report["artifacts"].append("missing.json\nother.json: [PASS] verdict")
        capsys.readouterr()
        assert main(["report", write(campaign / "report.json", report)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out and captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "listed",
        [
            "../runB/certificate_00000.json",
            "{absolute}",
            "runB/certificate_00000.json",
            "",
            ".",
            "..",
        ],
        ids=["parent-dir", "absolute", "subdir", "empty", "dot", "dot-dot"],
    )
    def test_artifact_that_is_no_plain_file_name_is_usage_error(self, campaign, listed, capsys):
        # a valid certificate of another run, beside the report's directory and inside it
        for run_dir in (campaign.parent / "runB", campaign / "runB"):
            run_dir.mkdir()
            shutil.copy(campaign / "certificate_00000.json", run_dir)
        report = json.loads((campaign / "report.json").read_text())
        report["artifacts"] = [listed.format(absolute=campaign.parent / "runB" / "certificate_00000.json")]
        capsys.readouterr()
        assert main(["report", write(campaign / "report.json", report)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out and captured.err.startswith("error:")
        assert "a plain file name expected" in captured.err

    @pytest.mark.parametrize(
        "command",
        [
            ["check-tnn", "{matrix}"],
            ["cell-member", "{matrix}", "{cell}"],
            ["fiber-campaign", "--k", "1", "--m", "2", "--trials", "2"],
        ],
        ids=["check-tnn", "cell-member", "fiber-campaign"],
    )
    def test_written_reports_pass(self, tmp_path, matrix_file, command):
        cell = write(tmp_path / "cell.json", {"k": 2, "n": 3, "nonbases": []})
        args = [arg.format(matrix=matrix_file, cell=cell) for arg in command]
        if command[0] == "fiber-campaign":
            args += ["--out-dir", str(tmp_path / "fc")]
            report = tmp_path / "fc" / "report.json"
        else:
            report = tmp_path / "report.json"
            args += ["--out", str(report)]
        assert main(args) == EXIT_OK
        assert main(["report", str(report)]) == EXIT_OK


json_scalar_st = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-3, 8),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["1", "-2/3", "0", "1/0", "0.5", "1e400"]),
)
json_value_st = st.recursive(
    json_scalar_st,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def maybe(strategy):
    """The strategy's value most of the time, any JSON value otherwise."""
    return st.one_of(strategy, strategy, strategy, json_value_st)


small_int_st = st.integers(-1, 6)
cols_st = maybe(st.lists(small_int_st, max_size=4))
rational_st = maybe(st.sampled_from(["0", "1", "-1", "1/2", "3", "-5/4"]))
minor_entry_st = maybe(st.fixed_dictionaries({"cols": cols_st, "alpha": rational_st,
                                              "beta": rational_st}))
cell_st = maybe(st.fixed_dictionaries({
    "k": maybe(small_int_st | st.integers(0, 10**12) | st.floats()),
    "n": maybe(small_int_st | st.integers(0, 10**12) | st.floats()),
    "nonbases": maybe(st.lists(cols_st, max_size=3)),
}))
fiber_cert_st = st.fixed_dictionaries(
    {"cell": cell_st, "minors": maybe(st.lists(minor_entry_st, max_size=6)),
     "verdict": maybe(st.booleans())}
)
matrix_st = maybe(st.fixed_dictionaries({
    "rows": maybe(small_int_st), "cols": maybe(small_int_st),
    "entries": maybe(st.lists(st.lists(rational_st, max_size=3), max_size=3)),
}))
equivalence_cert_st = st.fixed_dictionaries(
    {"Z": matrix_st, "Zprime": matrix_st, "C": matrix_st,
     "D_diag": maybe(st.lists(rational_st, max_size=3)), "detC": rational_st}
)
stored_report_st = st.fixed_dictionaries(
    {"verdicts": maybe(st.lists(maybe(st.fixed_dictionaries(
        {"name": maybe(st.text(max_size=5)), "ok": maybe(st.booleans())})), max_size=3))},
    # the fuzzed file is c.json, so listing it makes the report list itself
    optional={"artifacts": maybe(st.lists(
        maybe(st.sampled_from(["c.json", "missing.json", "", ".", "/"])), max_size=3))},
)


class TestReportFuzz:
    """``report`` maps any JSON file to exit 0, 1 or 2 and never raises."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(fiber_cert_st, equivalence_cert_st, stored_report_st, json_value_st))
    def test_any_json_gives_an_exit_code(self, payload):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = main(["report", str(path)])
        assert rc in (EXIT_OK, EXIT_FALSE_VERDICT, EXIT_USAGE)

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"cell": {"k": Infinity, "n": 3, "nonbases": []}, "minors": [], "verdict": true}',
            b'{"cell": {"k": 1e400, "n": 3, "nonbases": []}, "minors": [], "verdict": true}',
            b"\xff\xfe",
            b'{"a": ' + b"1" * 5000 + b"}",
            b"[" * 100_000 + b"]" * 100_000,
        ],
        ids=["infinity", "float-overflow", "not-utf8", "digit-limit", "deep-nesting"],
    )
    def test_hostile_file_is_usage_error(self, tmp_path, raw, capsys):
        path = tmp_path / "c.json"
        path.write_bytes(raw)
        assert main(["report", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")


setup_st = maybe(st.fixed_dictionaries(
    {"k": maybe(small_int_st), "m": maybe(small_int_st), "Z": matrix_st},
    optional={"kernel": maybe(st.lists(rational_st, max_size=4)),
              "allMinorsPositive": maybe(st.booleans())},
))
entry_st = st.sampled_from(["0", "1", "-1", "1/2", "3", "-5/4"])
shaped_matrix_st = st.integers(1, 3).flatmap(
    lambda cols: st.lists(st.lists(entry_st, min_size=cols, max_size=cols), min_size=1, max_size=3)
).map(lambda entries: {"rows": len(entries), "cols": len(entries[0]), "entries": entries})


def near(*payloads):
    """Each payload as it is, or with one field replaced by any JSON value."""
    return st.sampled_from(payloads).flatmap(
        lambda payload: st.just(payload) | st.builds(
            lambda key, value: {**payload, key: value}, st.sampled_from(sorted(payload)), json_value_st
        )
    )


# genuine inputs and near misses, so the fuzz also reaches the code behind
# the loaders: U and V lie in one fiber of the setup, whose kernel is (1, -2, 1)
VALID_SETUP = vandermonde_setup(1, 1, [Fraction(i) for i in (1, 2, 3)]).to_json_dict()
VALID_U = RationalMatrix([[1, 1, 1]]).to_json_dict()
VALID_V = RationalMatrix([["5/4", "1/2", "5/4"]]).to_json_dict()
loader_setup_st = near(VALID_SETUP) | setup_st
loader_matrix_st = near(VALID_U, VALID_V) | shaped_matrix_st
loader_cell_st = near({"k": 1, "n": 3, "nonbases": []}, {"k": 1, "n": 3, "nonbases": [[2]]}) | cell_st
LOADER_INPUTS = {
    "check-tnn": st.tuples(loader_matrix_st),
    "cell-member": st.tuples(loader_matrix_st, loader_cell_st),
    "map": st.tuples(loader_setup_st, loader_matrix_st),
    "fiber-check": st.tuples(loader_setup_st, loader_matrix_st, loader_matrix_st)
    | st.tuples(loader_setup_st, loader_matrix_st, loader_matrix_st, loader_cell_st),
}


class TestLoaderFuzz:
    """Every command that loads JSON maps any input to exit 0, 1 or 2 and never raises."""

    @pytest.mark.parametrize("command", sorted(LOADER_INPUTS))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_any_json_gives_an_exit_code(self, command, data):
        payloads = data.draw(LOADER_INPUTS[command])
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for i, payload in enumerate(payloads):
                path = Path(tmp) / f"in{i}.json"
                path.write_text(json.dumps(payload), encoding="utf-8")
                paths.append(str(path))
            if command == "fiber-check" and len(paths) == 4:
                paths[3:] = ["--cell", paths[3]]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = main([command, *paths])
        assert rc in (EXIT_OK, EXIT_FALSE_VERDICT, EXIT_USAGE)


class TestStrictIntegers:
    """Integer fields must be JSON integers: no float, string or boolean is converted."""

    def test_certificate_with_float_cell_size_is_usage_error(self, tmp_path):
        cert = {
            "cell": {"k": 1.9, "n": 3.7, "nonbases": []},
            "minors": [{"cols": [i], "alpha": "1", "beta": "0"} for i in (1, 2, 3)],
            "verdict": True,
        }
        out = run_cli("report", write(tmp_path / "c.json", cert))
        assert out.returncode == EXIT_USAGE
        assert "error:" in out.stderr and "Traceback" not in out.stderr

    def test_matrix_with_mistyped_shape_is_usage_error(self, tmp_path):
        matrix = {"rows": True, "cols": "2", "entries": [["1", "2"]]}
        out = run_cli("check-tnn", write(tmp_path / "m.json", matrix))
        assert out.returncode == EXIT_USAGE
        assert "error:" in out.stderr and "Traceback" not in out.stderr

    @pytest.mark.parametrize("value", [1.0, "1", True, None])
    def test_cell_size_field(self, tmp_path, matrix_file, value):
        cell = write(tmp_path / "cell.json", {"k": value, "n": 3, "nonbases": []})
        assert main(["cell-member", matrix_file, cell]) == EXIT_USAGE

    @pytest.mark.parametrize("member", [1.0, "1", True])
    def test_nonbasis_member(self, tmp_path, matrix_file, member):
        cell = write(tmp_path / "cell.json", {"k": 2, "n": 3, "nonbases": [[member, 3]]})
        assert main(["cell-member", matrix_file, cell]) == EXIT_USAGE

    @pytest.mark.parametrize("n", [99, "x"])
    def test_setup_stated_n_must_be_the_columns_of_z(self, tmp_path, n, capsys):
        # a 2 x 3 Z: the setup has n = 3, and a stated n of another value or type is refused
        payload = {**VALID_SETUP, "n": n}
        bad = write(tmp_path / "bad_setup.json", payload)
        v = write(tmp_path / "v.json", VALID_U)
        assert main(["map", bad, v]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    def test_setup_without_n_loads(self, tmp_path):
        payload = {key: value for key, value in VALID_SETUP.items() if key != "n"}
        assert payload["Z"]["cols"] == 3
        setup = write(tmp_path / "setup.json", payload)
        assert main(["map", setup, write(tmp_path / "v.json", VALID_U)]) == EXIT_OK

    @pytest.mark.parametrize("field", ["k", "m"])
    def test_setup_field(self, tmp_path, setup_file, field):
        payload = json.loads(Path(setup_file).read_text())
        payload[field] = float(payload[field])
        bad = write(tmp_path / "bad_setup.json", payload)
        v = write(tmp_path / "v.json", RationalMatrix([[1, 0, 0, 0]]).to_json_dict())
        assert main(["map", bad, v]) == EXIT_USAGE


class TestStrictFlags:
    @pytest.mark.parametrize("flag", ["false", 0, [], None])
    def test_setup_positivity_flag_must_be_a_boolean(self, tmp_path, setup_file, flag):
        # "false" on a positive Z used to read as true and pass
        payload = json.loads(Path(setup_file).read_text())
        payload["allMinorsPositive"] = flag
        bad = write(tmp_path / "bad_setup.json", payload)
        out = run_cli("equivalence", bad, setup_file)
        assert out.returncode == EXIT_USAGE
        assert "true or false expected" in out.stderr and "Traceback" not in out.stderr


class TestStrictLists:
    """List fields must be JSON arrays: no string or object is iterated in place of one."""

    def test_matrix_with_string_row_is_usage_error(self, tmp_path):
        matrix = {"rows": 1, "cols": 2, "entries": ["12"]}
        out = run_cli("check-tnn", write(tmp_path / "m.json", matrix))
        assert out.returncode == EXIT_USAGE
        assert "error:" in out.stderr and "Traceback" not in out.stderr

    def test_equivalence_certificate_with_string_diagonal_is_usage_error(
        self, tmp_path, setup_file
    ):
        eq_path = tmp_path / "eq.json"
        assert main(["equivalence", setup_file, setup_file, "--out", str(eq_path)]) == EXIT_OK
        payload = json.loads(eq_path.read_text())
        assert payload["D_diag"] == ["1", "1", "1", "1"]
        payload["D_diag"] = "1111"
        out = run_cli("report", write(eq_path, payload))
        assert out.returncode == EXIT_USAGE
        assert "error:" in out.stderr and "Traceback" not in out.stderr

    @pytest.mark.parametrize("entries", ["12", {"12": 0}, [{"1": 0, "2": 0}]])
    def test_matrix_entries(self, tmp_path, entries):
        path = write(tmp_path / "m.json", {"rows": 1, "cols": 2, "entries": entries})
        assert main(["check-tnn", path]) == EXIT_USAGE

    def test_setup_kernel(self, tmp_path):
        # the kernel (1, 0, 0) also reads back from the string "100"
        setup = build_setup(1, 1, RationalMatrix([[0, 1, 0], [0, 0, 1]]))
        payload = setup.to_json_dict()
        assert payload["kernel"] == ["1", "0", "0"]
        payload["kernel"] = "100"
        bad = write(tmp_path / "setup.json", payload)
        v = write(tmp_path / "v.json", RationalMatrix([[1, 0, 0]]).to_json_dict())
        assert main(["map", bad, v]) == EXIT_USAGE

    @pytest.mark.parametrize("nonbases", [{}, "", {"12": 0}])
    def test_cell_nonbases(self, tmp_path, matrix_file, nonbases):
        cell = write(tmp_path / "cell.json", {"k": 2, "n": 3, "nonbases": nonbases})
        assert main(["cell-member", matrix_file, cell]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda c: c.__setitem__("minors", {}),
            lambda c: c["minors"][0].__setitem__("cols", "1"),
            lambda c: c["cell"].__setitem__("nonbases", {}),
        ],
    )
    def test_fiber_certificate_lists(self, tmp_path, fiber_certificate, tamper):
        tamper(fiber_certificate)
        assert main(["report", write(tmp_path / "c.json", fiber_certificate)]) == EXIT_USAGE

    @pytest.mark.parametrize("verdicts", [{}, "", {"x": True}])
    def test_report_verdicts(self, tmp_path, verdicts):
        path = write(tmp_path / "r.json", {"verdicts": verdicts})
        assert main(["report", path]) == EXIT_USAGE


class TestStrictRationals:
    @pytest.mark.parametrize("entry", ["0.5", "1e3", "1e400", " 1", "1/0"])
    def test_matrix_file_entry_rejected(self, tmp_path, entry):
        path = write(tmp_path / "m.json", {"rows": 1, "cols": 2, "entries": [["1", entry]]})
        assert main(["check-tnn", path]) == EXIT_USAGE

    @pytest.mark.parametrize("entry", HOSTILE_ENTRIES, ids=range(len(HOSTILE_ENTRIES)))
    def test_hostile_matrix_entry_is_usage_error(self, tmp_path, entry, capsys):
        path = write(tmp_path / "m.json", {"rows": 2, "cols": 2, "entries": [["1", "2/3"], ["-4", entry]]})
        assert main(["check-tnn", path]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "args",
        [
            ["--node-lo", "1/0"],
            ["--node-lo", "0.5"],
            ["--node-hi", "1e400"],
            ["--node-hi", " 10"],
        ],
    )
    def test_campaign_node_range_rejected(self, args):
        with pytest.raises(SystemExit) as exc:
            main(["fiber-campaign", "--k", "1", "--m", "2", "--trials", "1", *args])
        assert exc.value.code == EXIT_USAGE

    def test_sample_nodes_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--k", "1", "--n", "2", "--nodes", " 1, 2.5"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("k, m, named", [("1", "-1", "m=-1"), ("0", "2", "k=0")])
    def test_campaign_parameters_out_of_range(self, k, m, named):
        # refused before a Z with k + m rows is built
        out = run_cli("fiber-campaign", "--k", k, "--m", m, "--trials", "1")
        assert out.returncode == EXIT_USAGE
        assert out.stderr.startswith("error: ") and named in out.stderr
        assert "Traceback" not in out.stderr

    def test_rejection_has_no_traceback(self):
        out = run_cli("fiber-campaign", "--k", "1", "--m", "2", "--trials", "1", "--node-lo", "1/0")
        assert out.returncode == EXIT_USAGE
        assert "error:" in out.stderr and "Traceback" not in out.stderr


class TestEntryPoint:
    def test_cli_import_leaves_mpmath_unloaded(self):
        code = (
            "import sys, tnngrass.cli\n"
            "print('mpmath' in sys.modules)\n"
            "tnngrass.cli.main(['z0', '--k', '1', '--m', '2'])\n"
            "print('mpmath' in sys.modules)\n"
        )
        out = run_python("-c", code)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0] == "False" and lines[-1] == "False"
        assert "[PASS] kernel_sign_alternating" in out.stdout

    def test_z0_builds_with_mpmath_blocked(self):
        # a None entry in sys.modules makes every `import mpmath` raise ImportError
        code = (
            "import sys\n"
            "sys.modules['mpmath'] = None\n"
            "from tnngrass import build_z0\n"
            "for k, m in [(1, 2), (2, 4), (3, 4)]:\n"
            "    setup = build_z0(k, m)\n"
            "    print(k, m, setup.all_minors_positive, setup.kernel_alternating)\n"
        )
        out = run_python("-c", code)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["1 2 True True", "2 4 True True", "3 4 True True"]

    def test_console_script_runs(self, tmp_path):
        out = run_cli("z0", "--k", "1", "--m", "2")
        assert out.returncode == 0
        assert "kernel_sign_alternating" in out.stdout
