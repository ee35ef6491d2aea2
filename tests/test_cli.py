import json
import os
import subprocess
import sys

import pytest

from ppav import census, cli, orders, quadratic, strata
from ppav.errors import FactorError


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_f23_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["analyze", "--weil", "529,-138,32,-6,1", "--q", "23", "--json"]
        )
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[0]["type"] == "class"
        assert lines[0]["convenient"]["is_convenient"] is True
        stratum = lines[1]
        assert stratum["ratio_exact"] == "255024"
        assert stratum["surjectivity"] == "certified"

    def test_elliptic_exact_count(self, capsys):
        code, out, _ = run_cli(capsys, ["analyze", "--weil", "5,-3,1", "--q", "5", "--json"])
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert lines[1]["exact_count"] == "1"  # h(-11)

    def test_not_weil_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["analyze", "--weil", "4,0,5,0,1", "--q", "2"])
        assert code == 3
        assert "error" in err

    def test_parse_error_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, ["analyze", "--weil", "5,a,1", "--q", "5"])
        assert code == 2

    def test_non_prime_power_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, ["analyze", "--weil", "6,-5,1", "--q", "6"])
        assert code == 2

    def test_reducible_weil_is_domain_error(self, capsys):
        # (x^2 - 3x + 5)^2 passes the Weil test but is not simple
        code, _, _ = run_cli(capsys, ["analyze", "--weil", "25,-30,19,-6,1", "--q", "5"])
        assert code == 2

    def test_non_ordinary_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, ["analyze", "--weil", "5,0,1", "--q", "5"])
        assert code == 2

    def test_deterministic_output(self, capsys):
        argv = ["analyze", "--weil", "529,-138,32,-6,1", "--q", "23", "--json"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["analyze", "--weil", "5,-3,1", "--q", "5", "--frobnicate"])
        assert err.value.code == 2


class TestEcCensus:
    def test_writes_csv_and_summary(self, capsys, tmp_path):
        out = str(tmp_path / "census.csv")
        code, _, _ = run_cli(capsys, ["ec-census", "--p", "101", "--bins", "20", "--out", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 41  # header + 40 traces
        summary = json.loads(open(out + ".summary.json").read())
        assert summary["class_count"] == 40
        assert len(summary["histogram"]) == 20

    @pytest.mark.parametrize("bins", ["0", "-1"])
    def test_bins_below_one_is_domain_error(self, capsys, tmp_path, bins):
        out = str(tmp_path / "census.csv")
        code, _, err = run_cli(capsys, ["ec-census", "--p", "101", "--bins", bins, "--out", out])
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_failed_internal_check_is_exit_two(self, capsys, tmp_path, monkeypatch):
        kronecker_class_number = quadratic.kronecker_class_number

        def off_by_one(delta, factorize=None):
            return kronecker_class_number(delta, factorize) + (delta == 9 - 4 * 101)

        monkeypatch.setattr(quadratic, "kronecker_class_number", off_by_one)
        out = str(tmp_path / "census.csv")
        code, _, err = run_cli(capsys, ["ec-census", "--p", "101", "--out", out])
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_factor_error_is_exit_two(self, capsys, tmp_path, monkeypatch):
        def stalled(p, threads=1):
            raise FactorError("factorization stalled at cofactor 91", partial={7: 1})

        monkeypatch.setattr(census, "enumerate_ec", stalled)
        out = str(tmp_path / "census.csv")
        code, _, err = run_cli(capsys, ["ec-census", "--p", "101", "--out", out])
        assert code == 2
        assert err.strip() == "error: factorization stalled at cofactor 91"

    def test_io_failure_exit_code(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "census.csv")
        code, _, err = run_cli(capsys, ["ec-census", "--p", "101", "--out", out])
        assert code == 4
        assert "i/o" in err


class TestConvenient:
    def test_inconvenient_example(self, capsys, tmp_path):
        _, lattice = strata.inconvenient_example_order()
        path = tmp_path / "order.json"
        path.write_text(json.dumps(orders.lattice_to_json(lattice)))
        code, out, _ = run_cli(capsys, ["convenient", "--order-file", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["is_convenient"] is False
        assert payload["pure_imaginary_index"] == 2
        assert payload["is_gorenstein"] is True

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, ["convenient", "--order-file", str(tmp_path / "no.json")])
        assert code == 4


class TestMeasures:
    def test_constants_and_table(self, capsys, tmp_path):
        out = str(tmp_path / "table.csv")
        code, stdout, _ = run_cli(capsys, ["measures", "--n", "1", "--grid", "5", "--out", out])
        assert code == 0
        constants = json.loads(stdout)
        assert constants["v_n"] == "4"
        lines = open(out).read().strip().splitlines()
        assert len(lines) == 6

    def test_stdout_mode(self, capsys):
        code, stdout, _ = run_cli(capsys, ["measures", "--n", "2", "--grid", "4"])
        assert code == 0
        assert "theta_1,theta_2,mu,nu_nominal,nu_effective" in stdout


    def test_cli_import_does_not_load_numpy(self):
        code = "import sys, ppav.cli; assert 'numpy' not in sys.modules, 'numpy loaded'"
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr


class TestFindHeavy:
    def test_golden(self, capsys):
        code, out, _ = run_cli(capsys, ["find-heavy", "--m", "2", "--d0", "-7"])
        assert code == 0
        payload = json.loads(out)
        payload.pop("conductor_note")
        assert payload == {
            "bound": "3/4",
            "conductor": "4",
            "delta": "-112",
            "p": "29",
            "ratio": "1/2",
            "t": "2",
            "x": "1",
            "y": "1",
        }

    def test_bad_discriminant(self, capsys):
        code, _, _ = run_cli(capsys, ["find-heavy", "--m", "2", "--d0", "-5"])
        assert code == 2

    def test_limit_exhaustion_is_domain_error(self, capsys):
        code, _, _ = run_cli(capsys, ["find-heavy", "--m", "2", "--d0", "-7", "--limit", "0"])
        assert code == 2


class TestExamples:
    def test_smaller_sweep(self, capsys):
        code, out, _ = run_cli(capsys, ["examples", "--family", "smaller", "--pmax", "200"])
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [int(line["p"]) for line in lines] == [7, 23, 31, 47, 71, 79, 103, 127, 151, 167, 191, 199]
        assert all(line["bound_checked"] for line in lines)

    def test_threaded_sweep_matches(self, capsys):
        _, serial, _ = run_cli(capsys, ["examples", "--family", "small", "--pmax", "100"])
        _, threaded, _ = run_cli(
            capsys, ["--threads", "4", "examples", "--family", "small", "--pmax", "100"]
        )
        assert serial == threaded

    def test_env_threads_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("PPAV_THREADS", "2")
        parser = cli.build_parser()
        args = parser.parse_args(["examples", "--family", "small", "--pmax", "50"])
        assert args.threads == 2
