import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from functools import partial
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_oracle import INCONVENIENT_ORDER, random_sublattice
from surface_sampler import random_surface_spec
from ppav import arith, census, cli, measures, orders, quadratic, strata, weil
from ppav.errors import FactorError, InternalError


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

    def test_failed_discriminant_identity_is_exit_two(self, capsys, monkeypatch):
        delta_norm = orders.delta_norm
        monkeypatch.setattr(orders, "delta_norm", lambda g, q: delta_norm(g, q) + 1)
        code, _, err = run_cli(capsys, ["analyze", "--weil", "529,-138,32,-6,1", "--q", "23"])
        assert code == 2
        assert err.startswith("error: disc Z[pi, pibar]") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_patched_minimal_order_closed_form_is_exit_two(self, capsys, monkeypatch):
        # an off-diagonal entry of the closed form: pibar leaves the lattice
        closed = orders._closed_form_order

        def patched(ctx):
            den, rows = closed(ctx)
            return den, (rows[0], (0, 1, (rows[1][2] + 1) % den, rows[1][3]), *rows[2:])

        monkeypatch.setattr(orders, "_closed_form_order", patched)
        code, out, err = run_cli(capsys, ["analyze", "--weil", "529,-138,32,-6,1", "--q", "23"])
        assert (code, out) == (2, "")
        assert err.startswith("error: closed form den=23 rows=[(23, 0, 0, 0), (0, 1, 8, 18),")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("weil_text, q", [("529,-138,32,-6,1", "23"), ("5,-3,1", "5")])
    def test_patched_trace_det_is_exit_two(self, capsys, monkeypatch, weil_text, q):
        class Patched(orders.FieldContext):
            def __init__(self, f, q):
                super().__init__(f, q)
                self.trace_det += 1

        monkeypatch.setattr(orders, "FieldContext", Patched)
        code, out, err = run_cli(capsys, ["analyze", "--weil", weil_text, "--q", q])
        assert (code, out) == (2, "")
        assert err.startswith("error: disc Z[pi, pibar]") and len(err.strip().splitlines()) == 1

    def test_failed_surface_closed_form_is_exit_two(self, capsys, monkeypatch):
        # the certificates check their closed form against the class norms
        norms = weil.real_discriminant_norms

        def patched(g, q):
            norm, disc_g = norms(g, q)
            return norm + 1, disc_g

        monkeypatch.setattr(weil, "real_discriminant_norms", patched)
        code, _, err = run_cli(capsys, ["analyze", "--weil", "529,-138,32,-6,1", "--q", "23"])
        assert code == 2
        assert err.startswith("error: |A^2 - B'^2 rad| = 11088,")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("weil_text, q", [("529,-138,32,-6,1", "23"), ("5,-3,1", "5")])
    def test_certificate_builds_no_hnf_after_the_minimal_order(
        self, capsys, monkeypatch, weil_text, q
    ):
        built = []
        minimal_order = orders.minimal_order

        def recorded(ctx):
            built.append(minimal_order(ctx))
            return built[-1]

        def forbidden(what):
            def raise_(*args, **kwargs):
                raise AssertionError(f"analyze {what}")

            return raise_

        # the certificate is the theorem MINIMAL_ORDER_CERTIFICATE and the
        # minimal order is a closed form: no HNF, no trace dual, no inverse,
        # and no matrix product, so the context never built its conjugation
        monkeypatch.setattr(orders, "minimal_order", recorded)
        monkeypatch.setattr(arith, "lattice_hnf", forbidden("ran an HNF"))
        monkeypatch.setattr(arith, "mat_mul", forbidden("multiplied matrices"))
        monkeypatch.setattr(orders, "trace_dual", forbidden("built a trace dual"))
        monkeypatch.setattr(arith, "inverse", forbidden("inverted a matrix"))
        code, out, _ = run_cli(capsys, ["analyze", "--weil", weil_text, "--q", q, "--json"])
        assert code == 0 and json.loads(out.splitlines()[0])["convenient"]["is_convenient"]
        assert len(built) == 1
        assert "conj_int" not in vars(built[0].ctx) and "alpha_powers" not in vars(built[0].ctx)

    def test_elliptic_factors_each_number_once(self, capsys, monkeypatch):
        # t^2 - 4q for the strata and the conductor 1 twice; the prime-power
        # check, simplicity and odd ramification need no factoring
        calls = []
        factorize = arith.factorize

        def counted(n, *args, **kwargs):
            calls.append(n)
            return factorize(n, *args, **kwargs)

        monkeypatch.setattr(arith, "factorize", counted)
        argv = ["analyze", "--weil", "100000007,-3,1", "--q", "100000007", "--json"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and json.loads(out.splitlines()[0])["simple"] is True
        assert len(calls) <= 3, calls

    def test_class_number_budget_is_exit_two(self, capsys, monkeypatch):
        # t^2 - 4q = -400000019 is fundamental; the budget stops its count
        monkeypatch.setattr(quadratic, "MAX_CLASS_NUMBER_DISC", 10**8)
        argv = ["analyze", "--weil", "100000007,-3,1", "--q", "100000007", "--json"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == "error: class number needs |delta0| <= 100000000, got a 29-bit delta0\n"

    def test_not_weil_exit_code(self, capsys):
        code, _, err = run_cli(capsys, ["analyze", "--weil", "4,0,5,0,1", "--q", "2"])
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize("weil_text", ["343,0,0,0,0,0,1", "1,0,0,0,0,0,1"])
    def test_degree_above_four_is_exit_two(self, capsys, weil_text):
        # a Weil sextic and one that breaks the functional equation alike
        code, out, err = run_cli(capsys, ["analyze", "--weil", weil_text, "--q", "7"])
        assert (code, out) == (2, "")
        assert err == "error: isogeny classes are implemented up to degree 4\n"

    def test_q_beyond_the_float_range_is_exit_two(self, capsys):
        # the angles divide by the float 2 sqrt(q), which q = 2^1100 overflows
        q = str(2**1100)
        code, out, err = run_cli(capsys, ["analyze", "--weil", f"{q},1,1", "--q", q])
        assert (code, out) == (2, "")
        assert err == "error: q of 1101 bits is too large for float angles\n"

    def test_rho_stall_is_one_line_exit_two(self, capsys, monkeypatch):
        # t^2 - 4q = 1 - 2^1002 stalls rho at an 889-bit cofactor after
        # about 10 s; a small budget stalls at once, on the 997-bit cofactor
        # that trial division leaves, and the message gives its size only
        monkeypatch.setattr(arith, "factorize", partial(arith.factorize, rho_budget=1 << 16))
        q = str(2**1000)
        code, out, err = run_cli(capsys, ["analyze", "--weil", f"{q},1,1", "--q", q])
        assert (code, out) == (2, "")
        assert err == "error: factorization stalled at a 997-bit cofactor\n"

    def test_parse_error_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, ["analyze", "--weil", "5,a,1", "--q", "5"])
        assert code == 2

    def test_non_prime_power_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, ["analyze", "--weil", "6,-5,1", "--q", "6"])
        assert code == 2

    def test_huge_non_prime_power_is_quick(self, capsys):
        # the prime-power check factors nothing; factoring this q ran past 20 s
        q = str(10**72 + 1)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["analyze", "--weil", f"{q},-1,1", "--q", q])
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1 and "not a prime power" in err

    def test_reducible_weil_is_domain_error(self, capsys):
        # (x^2 - 3x + 5)^2 passes the Weil test but is not simple
        code, _, err = run_cli(capsys, ["analyze", "--weil", "25,-30,19,-6,1", "--q", "5"])
        assert code == 2
        assert "not simple" in err and len(err.strip().splitlines()) == 1

    def test_non_ordinary_is_domain_error(self, capsys, monkeypatch):
        def no_orders(*args, **kwargs):
            raise AssertionError("FieldContext built for a rejected class")

        monkeypatch.setattr(orders, "FieldContext", no_orders)
        code, _, err = run_cli(capsys, ["analyze", "--weil", "5,0,1", "--q", "5"])
        assert code == 2
        assert "not ordinary" in err

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

    def test_bins_checked_before_the_census(self, capsys, tmp_path, monkeypatch):
        def no_census(p):
            raise AssertionError("census ran with an invalid --bins")

        monkeypatch.setattr(census, "enumerate_ec", no_census)
        out = str(tmp_path / "census.csv")
        code, _, err = run_cli(capsys, ["ec-census", "--p", "1000003", "--bins", "0", "--out", out])
        assert code == 2
        assert err == "error: need at least one bin, got 0\n"
        assert not os.path.exists(out)

    def test_bins_above_the_cap_checked_before_the_census(self, capsys, tmp_path, monkeypatch):
        census.check_bins(census.MAX_BINS)

        def no_census(p):
            raise AssertionError("census ran with an invalid --bins")

        monkeypatch.setattr(census, "enumerate_ec", no_census)
        out = str(tmp_path / "census.csv")
        argv = ["ec-census", "--p", "101", "--bins", str(10**15), "--out", out]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err == f"error: need at most {census.MAX_BINS} bins, got {10**15}\n"
        assert os.listdir(tmp_path) == []

    def test_failed_internal_check_is_exit_two(self, capsys, tmp_path, monkeypatch):
        reduced_form_counts = census._reduced_form_counts

        def off_by_one(p):
            counts = reduced_form_counts(p)
            counts[3] += 1
            return counts

        monkeypatch.setattr(census, "_reduced_form_counts", off_by_one)
        out = str(tmp_path / "census.csv")
        code, _, err = run_cli(capsys, ["ec-census", "--p", "101", "--out", out])
        assert code == 2
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_factor_error_is_exit_two(self, capsys, tmp_path, monkeypatch):
        def stalled(p):
            raise FactorError("factorization stalled at cofactor 91", partial={7: 1})

        monkeypatch.setattr(census, "enumerate_ec", stalled)
        out = str(tmp_path / "census.csv")
        code, _, err = run_cli(capsys, ["ec-census", "--p", "101", "--out", out])
        assert code == 2
        assert err.strip() == "error: factorization stalled at cofactor 91"

    def test_failed_census_keeps_the_old_outputs(self, capsys, tmp_path, monkeypatch):
        enumerate_ec = census.enumerate_ec

        def stalls_at_101(p):
            if p == 101:
                raise FactorError("factorization stalled at cofactor 91", partial={7: 1})
            return enumerate_ec(p)

        monkeypatch.setattr(census, "enumerate_ec", stalls_at_101)
        out = tmp_path / "census.csv"
        out.write_text("kept\n")
        code, _, err = run_cli(capsys, ["ec-census", "--p", "101", "--out", str(out)])
        assert code == 2
        assert err == "error: factorization stalled at cofactor 91\n"
        assert out.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["census.csv"]
        # the same census at another p replaces both files and leaves nothing else
        code, _, _ = run_cli(capsys, ["ec-census", "--p", "103", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("t,")
        assert sorted(os.listdir(tmp_path)) == ["census.csv", "census.csv.summary.json"]

    def test_outputs_opened_before_the_census(self, capsys, tmp_path, monkeypatch):
        def no_census(p):
            raise AssertionError("census ran before --out was opened")

        monkeypatch.setattr(census, "enumerate_ec", no_census)
        out = str(tmp_path / "missing" / "census.csv")
        code, _, err = run_cli(capsys, ["ec-census", "--p", "1000003", "--out", out])
        assert code == 4
        assert err.startswith("i/o error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "p, message", [("1000001", "1000001 is not prime"), ("3", "census needs p >= 5")]
    )
    def test_invalid_p_touches_no_file(self, capsys, tmp_path, monkeypatch, p, message):
        def no_census(p):
            raise AssertionError("census ran with an invalid --p")

        monkeypatch.setattr(census, "enumerate_ec", no_census)
        out = tmp_path / "census.csv"
        out.write_text("kept\n")
        code, _, err = run_cli(capsys, ["ec-census", "--p", p, "--out", str(out)])
        assert code == 2
        assert err == f"error: {message}\n"
        assert out.read_text() == "kept\n"
        assert not os.path.exists(str(out) + ".summary.json")

    def test_io_failure_exit_code(self, capsys, tmp_path):
        out = str(tmp_path / "missing" / "census.csv")
        code, _, err = run_cli(capsys, ["ec-census", "--p", "101", "--out", out])
        assert code == 4
        assert "i/o" in err


class TestConvenient:
    def test_inconvenient_example(self, capsys, tmp_path):
        _, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        path = tmp_path / "order.json"
        path.write_text(json.dumps(orders.lattice_to_json(lattice)))
        code, out, _ = run_cli(capsys, ["convenient", "--order-file", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["is_convenient"] is False
        assert payload["pure_imaginary_index"] == 2
        assert payload["is_gorenstein"] is True

    def test_involution_check_fires_on_first_read(self, capsys, monkeypatch):
        # the order file's context builds its conjugation when the
        # certificate first reads it, and the involution check runs there
        powers = orders.FieldContext._powers

        def perturbed(ctx, num, den, count):
            d, rows = powers(ctx, num, den, count)
            if count == ctx.dim:
                rows[1][0] += 1
            return d, rows

        monkeypatch.setattr(orders.FieldContext, "_powers", perturbed)
        code, out, err = run_cli(capsys, ["convenient", "--order-file", INCONVENIENT_ORDER])
        assert (code, out, err) == (2, "", "error: conjugation is not an involution\n")

    def test_sextic_minimal_order(self, capsys, tmp_path):
        # Z[pi, pibar] for x^6 + x^5 + x^3 + 4x + 8 over F_2, an order of degree 6
        minimal = orders.minimal_order(orders.FieldContext([8, 4, 0, 1, 0, 1, 1], 2))
        path = tmp_path / "sextic.json"
        path.write_text(json.dumps(orders.lattice_to_json(minimal)))
        code, out, _ = run_cli(capsys, ["convenient", "--order-file", str(path)])
        assert code == 0
        payload = json.loads(out)
        assert payload["is_convenient"] is True and payload["pure_imaginary_index"] == 1
        assert payload["is_gorenstein"] is True

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, ["convenient", "--order-file", str(tmp_path / "no.json")])
        assert code == 4

    def test_byte_order_mark(self, capsys, tmp_path):
        plain = run_cli(capsys, ["convenient", "--order-file", INCONVENIENT_ORDER])
        assert plain[0] == 0 and plain[1].count("\n") == 1
        path = tmp_path / "order.json"
        with open(INCONVENIENT_ORDER, "rb") as handle:
            path.write_bytes(b"\xef\xbb\xbf" + handle.read())
        assert run_cli(capsys, ["convenient", "--order-file", str(path)]) == plain

    def test_undecodable_order_file(self, capsys, tmp_path):
        path = tmp_path / "order.json"
        path.write_bytes(b'{"den": \xff\xfe}\n')
        code, out, err = run_cli(capsys, ["convenient", "--order-file", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: order file is not JSON: ") and err.count("\n") == 1

    @staticmethod
    def _bad_order_file(capsys, tmp_path, text):
        path = tmp_path / "order.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, ["convenient", "--order-file", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @staticmethod
    def _order_payload():
        _, lattice = orders.load_order_file(INCONVENIENT_ORDER)
        return orders.lattice_to_json(lattice)

    def test_non_json_order_file(self, capsys, tmp_path):
        err = self._bad_order_file(capsys, tmp_path, "den: 2\n")
        assert "not JSON" in err

    @pytest.mark.parametrize("key", ["f", "q", "den", "basis"])
    def test_order_file_missing_key(self, capsys, tmp_path, key):
        payload = self._order_payload()
        del payload[key]
        err = self._bad_order_file(capsys, tmp_path, json.dumps(payload))
        assert f"lacks {key}" in err

    @pytest.mark.parametrize("entry", [1.5, "x"])
    def test_order_file_non_integer_entry(self, capsys, tmp_path, entry):
        payload = self._order_payload()
        payload["basis"][0][0] = entry
        err = self._bad_order_file(capsys, tmp_path, json.dumps(payload))
        assert "list of integers" in err

    @pytest.mark.parametrize("den", [0, -1])
    def test_order_file_den_not_positive(self, capsys, tmp_path, den):
        payload = self._order_payload()
        payload["den"] = den
        err = self._bad_order_file(capsys, tmp_path, json.dumps(payload))
        assert "den must be positive" in err

    @pytest.mark.parametrize(
        "reshape, message",
        [
            (lambda basis: basis[1].pop(), "4 entries"),
            (lambda basis: basis[1].append(0), "4 entries"),
            (lambda basis: basis.__setitem__(1, 3), "list of integers"),
        ],
        ids=["short", "long", "scalar"],
    )
    def test_order_file_wrongly_shaped_row(self, capsys, tmp_path, reshape, message):
        payload = self._order_payload()
        reshape(payload["basis"])
        err = self._bad_order_file(capsys, tmp_path, json.dumps(payload))
        assert message in err

    def test_order_file_not_an_object(self, capsys, tmp_path):
        err = self._bad_order_file(capsys, tmp_path, "[1, 2]")
        assert "JSON object" in err


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

    def test_stdout_is_constants_then_table(self, capsys, tmp_path):
        # stdout mode prints the constants line and then the bytes --out writes
        table = tmp_path / "table.csv"
        argv = ["measures", "--n", "2", "--grid", "4"]
        code, constants, _ = run_cli(capsys, argv + ["--out", str(table)])
        assert code == 0 and constants.count("\n") == 1
        code, stdout, _ = run_cli(capsys, argv)
        assert code == 0
        assert stdout == constants + table.read_bytes().decode()

    def test_unopenable_out_prints_nothing(self, capsys, tmp_path):
        table = str(tmp_path / "missing" / "table.csv")
        code, out, err = run_cli(capsys, ["measures", "--n", "2", "--grid", "4", "--out", table])
        assert (code, out) == (4, "")
        assert err.startswith("i/o error:") and err.count("\n") == 1

    def test_negative_grid_is_domain_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, ["measures", "--n", "2", "--grid", "-1"])
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        table = tmp_path / "table.csv"
        table.write_text("kept\n")
        argv = ["measures", "--n", "2", "--grid", "-3", "--out", str(table)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == "" and len(err.strip().splitlines()) == 1
        assert table.read_text() == "kept\n"

    @pytest.mark.parametrize("n", ["0", "5", "32"])
    def test_dimension_out_of_range_is_domain_error(self, capsys, tmp_path, n):
        # 2^(32^2) overflows a float: n = 32 must fail before any constant
        table = tmp_path / "table.csv"
        table.write_text("kept\n")
        argv = ["measures", "--n", n, "--grid", "2", "--out", str(table)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: measures supports 1 <= n <= 4, got {n}\n"
        assert table.read_text() == "kept\n"

    def test_grid_above_the_row_cap_is_refused_before_the_table(self, capsys, monkeypatch, tmp_path):
        def no_grid(n, points):
            raise AssertionError(f"grid of {points} points built")

        monkeypatch.setattr(measures, "simplex_grid", no_grid)
        table = tmp_path / "table.csv"
        table.write_text("kept\n")
        # C(130 + 3, 4) rows; the default 64 points make 766,480
        argv = ["measures", "--n", "4", "--grid", "130", "--out", str(table)]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        cap = measures.MAX_GRID_ROWS
        assert err == f"error: grid of 130 points has 12457445 rows at n = 4, above the cap {cap}\n"
        assert table.read_text() == "kept\n"
        with pytest.raises(SystemExit):
            cli.main(["measures", "--help"])
        assert f"at most {cap}" in " ".join(capsys.readouterr().out.split())

    def test_cli_import_does_not_load_numpy(self):
        # numpy blocked: the package and the measures subcommand run without it
        code = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "import ppav, ppav.cli, ppav.measures\n"
            "sys.exit(ppav.cli.main(['measures', '--n', '2', '--grid', '4']))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert "theta_1,theta_2,mu,nu_nominal,nu_effective" in result.stdout


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
        # 1 + 275 is not prime, so the search over x = y = 1 finds nothing
        code, _, err = run_cli(capsys, ["find-heavy", "--m", "5", "--d0", "-11", "--limit", "1"])
        assert code == 2
        assert err == "error: no prime x^2 + 275 y^2 with x, y <= 1\n"

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_domain_error(self, capsys, monkeypatch, limit):
        def no_search(n):
            raise AssertionError("searched with an empty limit")

        monkeypatch.setattr(arith, "is_prime", no_search)
        code, out, err = run_cli(capsys, ["find-heavy", "--m", "2", "--d0", "-7", "--limit", limit])
        assert code == 2 and out == ""
        assert err == f"error: search limit must be at least 1, got {limit}\n"


class TestExamples:
    def test_smaller_sweep(self, capsys):
        code, out, _ = run_cli(capsys, ["examples", "--family", "smaller", "--pmax", "200"])
        assert code == 0
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [int(line["p"]) for line in lines] == [7, 23, 31, 47, 71, 79, 103, 127, 151, 167, 191, 199]
        assert all(line["bound_checked"] for line in lines)

    def test_failure_keeps_the_lines_printed_before_it(self, capsys, monkeypatch):
        argv = ["examples", "--family", "smaller", "--pmax", "200"]
        _, full, _ = run_cli(capsys, argv)
        example_family = strata.example_family
        seen = []

        def third_fails(kind, p):
            seen.append(p)
            if len(seen) == 3:
                raise InternalError(f"smaller-family identity fails at p={p}")
            return example_family(kind, p)

        monkeypatch.setattr(strata, "example_family", third_fails)
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and seen == [7, 23, 31]
        assert out == "".join(full.splitlines(keepends=True)[:2])
        assert err == "error: smaller-family identity fails at p=31\n"

    def test_pmax_above_the_cap_is_refused_before_sieving(self, capsys, monkeypatch):
        def no_sieve(limit):
            raise AssertionError(f"sieved to {limit}")

        # both sieve readers go through the one bytearray sieve
        monkeypatch.setattr(arith, "_sieve", no_sieve)
        code, out, err = run_cli(capsys, ["examples", "--family", "small", "--pmax", str(10**15)])
        assert (code, out) == (2, "")
        assert err == f"error: pmax = {10**15} is above the sweep cap {strata.FAMILY_PMAX_CAP}\n"
        with pytest.raises(SystemExit):
            cli.main(["examples", "--help"])
        assert f"at most {strata.FAMILY_PMAX_CAP}" in " ".join(capsys.readouterr().out.split())

    def test_threads_option_accepted_and_env_ignored(self, capsys, monkeypatch):
        _, plain, _ = run_cli(capsys, ["examples", "--family", "small", "--pmax", "100"])
        monkeypatch.setenv("PPAV_THREADS", "abc")
        code, out, err = run_cli(
            capsys, ["--threads", "1", "examples", "--family", "small", "--pmax", "100"]
        )
        assert code == 0 and out == plain and err == ""


# (q, a, b) for the surface class x^4 + a x^3 + b x^2 + a q x + q^2: 44 from
# random_surface_spec, then prime-power fields and the q = 23 golden class
GOLDEN_SURFACES = [
    (6563, 94, 8511), (419, 46, 1225), (10853, 251, 36109), (103, -5, 78),
    (3299, 24, 1135), (47, 5, -11), (347, -22, 314), (443, 1, 746),
    (4903, -9, 8833), (277, 37, 717), (71, 7, 7), (173, 17, 273),
    (41, -8, 31), (457, 63, 1841), (31, 6, 43), (19, 5, 12),
    (103, -18, 168), (13721, -163, 15895), (3259, -144, 10156), (251, 38, 781),
    (647, 34, 591), (17, 4, 26), (7, 0, -3), (457, 7, 640),
    (379, -2, -357), (47, 13, 126), (29, -3, 5), (2789, 30, -1618),
    (349, -30, 747), (599, -79, 2681), (9311, -236, 30717), (2393, 59, 4356),
    (181, 20, 252), (4909, -37, 1163), (11, -1, 1), (16427, 206, 35193),
    (41, 6, 36), (3343, -83, 6744), (883, -21, 961), (3041, 106, 7258),
    (10391, -6, -17288), (1481, -22, 1889), (281, 44, 976), (67, -4, -28),
    (4, -2, 7), (8, 0, 11), (9, -3, 13), (25, 0, 24),
    (27, -2, 35), (49, -6, 95), (121, 6, 89), (1024, -22, 1075),
    (23, -6, 32),
]

# (q, t) for the elliptic class x^2 - t x + q: prime and prime-power fields,
# conductors above 1, and q up to 2^31 - 1
GOLDEN_ELLIPTIC = [
    (5, -3), (5, 2), (7, 1), (11, -5), (23, 4), (97, -13), (101, 18),
    (1009, 31), (4, 1), (8, -3), (9, 2), (25, 7), (27, -4), (49, 11),
    (121, -20), (1024, 33), (10007, 150), (100003, -411), (1000003, 1999),
    (100000007, -3), (2**31 - 1, 65535),
]


class TestGoldenDigests:
    """Output pinned byte for byte: any change in the angles shows here."""

    @pytest.mark.parametrize(
        "family, digest",
        [
            ("small", "e895a08a1516699f0d2582a5e435538f481ab83642c415104f795dff66654a45"),
            ("smaller", "55827167eaf8f4cd6cf2b457aca2ea9c7403d4e52f85c0800097badc697d971e"),
            ("smallest", "59c59f1e8cb295427a2148e513db2963536cb4aec1e5c83bb53ac596dc89618e"),
        ],
    )
    def test_examples_sweep(self, capsys, family, digest):
        code, out, _ = run_cli(capsys, ["examples", "--family", family, "--pmax", "2000"])
        assert code == 0
        assert len(out.splitlines()) == 78
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_analyze_corpus(self, capsys):
        h = hashlib.sha256()
        for q, a, b in GOLDEN_SURFACES:
            weil = f"{q * q},{a * q},{b},{a},1"
            code, out, _ = run_cli(capsys, ["analyze", "--weil", weil, "--q", str(q), "--json"])
            assert code == 0
            h.update(out.encode())
        assert h.hexdigest() == "af89ad3cda8e26fa1085b00a7351ff1d22c843ddc1ddff5fe7a3d315d7c6146c"

    def test_analyze_elliptic_corpus(self, capsys):
        h = hashlib.sha256()
        for q, t in GOLDEN_ELLIPTIC:
            argv = ["analyze", "--weil", f"{q},{-t},1", "--q", str(q), "--json"]
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            h.update(out.encode())
        assert h.hexdigest() == "c631da30c7e4b2e838369f9854d4fbb6a929e51325cb3f9a87b8e70a8225bb96"

    def test_convenient_order_files(self, capsys, tmp_path):
        # multiplier rings of random sublattices of minimal orders, elliptic
        # and surface in turn: the only path where colon sees quartic orders
        rng = random.Random(211)
        paths = []
        while len(paths) < 40:
            if len(paths) % 2:
                spec = random_surface_spec(rng, qmax=500)
                ctx = orders.FieldContext(list(spec.f), spec.q)
            else:
                q = rng.choice((5, 7, 11, 23, 97, 1009))
                traces = [t for t in range(1, isqrt(4 * q) + 1) if t * t < 4 * q and gcd(t, q) == 1]
                ctx = orders.FieldContext([q, -rng.choice(traces), 1], q)
            ring = orders.multiplier_ring(random_sublattice(rng, ctx, orders.minimal_order(ctx)))
            path = tmp_path / f"ring{len(paths)}.json"
            path.write_text(json.dumps(orders.lattice_to_json(ring)))
            paths.append(str(path))
        paths.append(INCONVENIENT_ORDER)
        h = hashlib.sha256()
        for path in paths:
            code, out, _ = run_cli(capsys, ["convenient", "--order-file", path])
            assert code == 0
            h.update(out.encode())
        assert h.hexdigest() == "bf8d8f53fc71b1555ddcaa12d3634ad6690fcf58b57f2313d3119a95af2b2203"

    @pytest.mark.parametrize(
        "p, csv_digest, summary_digest",
        [
            (
                10007,
                "54744ea45f68160642382b3a893eaf21dc3098acd809ab08eac51dfa7771e19f",
                "0b7abe2792358ff7175f930bdbacf1fed391e5a5a4c777e84991680a210e99b7",
            ),
            (
                120011,
                "6dc95f07fccebc982486d3002570d453f2aa87449c1b1cca99f9b2ba0f56ffbb",
                "116f97c34ea6c3eb39f5514ea64f84d4130933519c09fee001c65450b6da460f",
            ),
        ],
    )
    def test_ec_census(self, capsys, tmp_path, p, csv_digest, summary_digest):
        out = str(tmp_path / "census.csv")
        code, _, _ = run_cli(capsys, ["ec-census", "--p", str(p), "--out", out])
        assert code == 0
        for path, digest in ((out, csv_digest), (out + ".summary.json", summary_digest)):
            with open(path, "rb") as handle:
                assert hashlib.sha256(handle.read()).hexdigest() == digest


    @pytest.mark.parametrize(
        "n, constants_digest, csv_digest",
        [
            (
                1,
                "c643f4309bacc559d5397a6f752e560be0bee6cc193219b5c9b320c26e2acb75",
                "0b381cda39ca32b5bfb418e4f2f43cdb003775e706c1678883e69116e052e9ef",
            ),
            (
                2,
                "cf7fe7d155b0808b9a26d8b67ee1763e24f3ad0f5d9e8e67304440860a771ab1",
                "95f6a93f3a1fc16d847336a91a4acdc8614f176f05af4f35880c61f8fe32a23f",
            ),
            (
                3,
                "f7e5082f8664302a4952d3c5f3325277b5759e8f773c3da7aab34e466774a02d",
                "789d85d4685e601b3dfa8f6c60b8d0b790f01e95e6618179bd79fd5cea1c7b68",
            ),
            (
                4,
                "e6430d4f399d611911142f6264a74f5b91b4c79a3ad5e44481ff5f9078d79a70",
                "74812bce7f7c558fdc5331119ece303b5ecb69b1770874b9d991771814c38928",
            ),
        ],
    )
    def test_measures(self, capsys, tmp_path, n, constants_digest, csv_digest):
        out = tmp_path / "table.csv"
        argv = ["measures", "--n", str(n), "--grid", "8", "--out", str(out)]
        code, constants, _ = run_cli(capsys, argv)
        assert code == 0
        assert hashlib.sha256(constants.encode()).hexdigest() == constants_digest
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest


def class_lines(corpus):
    """(q, a, b) surfaces or (q, t) elliptic classes as `coeffs q` lines."""
    for entry in corpus:
        if len(entry) == 3:
            q, a, b = entry
            yield f"{q * q},{a * q},{b},{a},1 {q}"
        else:
            q, t = entry
            yield f"{q},{-t},1 {q}"


TOP_USAGE = (
    "ppav [-h] [--threads THREADS]\n"
    "            {analyze,ec-census,convenient,measures,find-heavy,examples} ..."
)


class TestWeilFile:
    CORPUS = list(class_lines(GOLDEN_SURFACES)) + list(class_lines(GOLDEN_ELLIPTIC))

    @pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
    def test_equals_concatenated_single_calls(self, capsys, tmp_path, flags):
        singles = []
        for line in self.CORPUS:
            weil_text, q = line.split()
            code, out, _ = run_cli(capsys, ["analyze", "--weil", weil_text, "--q", q, *flags])
            assert code == 0
            singles.append(out)
        path = tmp_path / "classes.txt"
        path.write_text("\n".join(self.CORPUS) + "\n")
        code, out, err = run_cli(capsys, ["analyze", "--weil-file", str(path), *flags])
        assert code == 0 and err == ""
        assert out == "".join(singles)

    def test_stdin(self, capsys, monkeypatch):
        lines = self.CORPUS[:3]
        expected = "".join(
            run_cli(capsys, ["analyze", "--weil", w, "--q", q, "--json"])[1]
            for w, q in (line.split() for line in lines)
        )
        data = ("\n".join(lines) + "\n").encode()
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        code, out, err = run_cli(capsys, ["analyze", "--weil-file", "-", "--json"])
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize(
        "bad, code, message",
        [
            ("4,0,5,0,1 2", 3, "roots are not all of absolute value sqrt(q)"),
            ("5,a,1 5", 2, "could not parse coefficients '5,a,1'"),
            ("6,-5,1 6", 2, "q = 6 is not a prime power"),
            ("25,-30,19,-6,1 5", 2, None),  # not simple
            ("343,0,0,0,0,0,1 7", 2, "isogeny classes are implemented up to degree 4"),
            ("5,-3,1 x", 2, "could not parse q 'x'"),
            ("5,-3,1", 2, "need 'coeffs q', got '5,-3,1'"),
        ],
    )
    def test_first_bad_line_stops_the_run(self, capsys, tmp_path, bad, code, message):
        fields = bad.split()
        if len(fields) == 2 and fields[1].isdigit():
            # the exit code and message of the same class given alone
            single = run_cli(capsys, ["analyze", "--weil", fields[0], "--q", fields[1]])
            assert single[0] == code and single[1] == ""
            message = message or single[2][len("error: ") : -1]
            assert single[2] == f"error: {message}\n"
        first = run_cli(capsys, ["analyze", "--weil", "5,-3,1", "--q", "5"])[1]
        path = tmp_path / "classes.txt"
        path.write_text(f"5,-3,1 5\n\n{bad}\n7,1,1 7\n")  # line 2 is blank
        got, out, err = run_cli(capsys, ["analyze", "--weil-file", str(path)])
        assert got == code
        assert out == first  # line 1's report stays, line 4 never runs
        assert err == f"error: line 3: {message}\n"
        assert "Traceback" not in err

    def test_non_utf8_line_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "classes.txt"
        path.write_bytes(b"5,-3,1 5\n\xff\xfe 5\n")
        code, out, err = run_cli(capsys, ["analyze", "--weil-file", str(path), "--json"])
        assert code == 2 and out.count("\n") == 2
        assert err.startswith("error: line 2: could not parse coefficients")

    def test_byte_order_mark_before_line_one(self, capsys, tmp_path):
        single = run_cli(capsys, ["analyze", "--weil", "529,-138,32,-6,1", "--q", "23"])
        path = tmp_path / "classes.txt"
        path.write_bytes(b"\xef\xbb\xbf529,-138,32,-6,1 23\n")
        assert run_cli(capsys, ["analyze", "--weil-file", str(path)]) == single
        # a mark anywhere else is junk like any other
        path.write_bytes(b"529,-138,32,-6,1 23\n\xef\xbb\xbf5,-3,1 5\n")
        code, out, err = run_cli(capsys, ["analyze", "--weil-file", str(path)])
        assert (code, out) == (2, single[1])
        assert err == "error: line 2: could not parse coefficients '\\ufeff5,-3,1'\n"

    def test_missing_file_is_io_error(self, capsys, tmp_path, monkeypatch):
        def no_analysis(*args):
            raise AssertionError("analyzed a class without an input file")

        monkeypatch.setattr(weil, "isogeny_class", no_analysis)
        path = str(tmp_path / "missing.txt")
        code, out, err = run_cli(capsys, ["analyze", "--weil-file", path])
        assert code == 4 and out == ""
        assert err.startswith("i/o error:") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--weil-file", "-", "--weil", "5,-3,1", "--q", "5"],
            ["analyze", "--weil-file", "-", "--q", "5"],
            ["analyze", "--weil", "5,-3,1"],
            ["analyze", "--q", "5"],
            ["analyze"],
        ],
    )
    def test_exactly_one_source(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, usage, message",
        [
            (
                ["analyze", "--q", "5"],
                "ppav analyze [-h] (--weil WEIL | --weil-file PATH) [--q Q] [--json]",
                "ppav analyze: error: one of the arguments --weil --weil-file is required",
            ),
            (
                ["analyze", "--weil", "5,-3,1"],
                TOP_USAGE,
                "ppav: error: analyze: the following arguments are required: --q",
            ),
            (
                ["analyze", "--weil-file", "-", "--q", "5"],
                TOP_USAGE,
                "ppav: error: analyze: argument --q: not allowed with argument --weil-file",
            ),
        ],
    )
    def test_usage_error_text(self, capsys, monkeypatch, argv, usage, message):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        with pytest.raises(SystemExit):
            cli.main(argv)
        assert capsys.readouterr().err == f"usage: {usage}\n{message}\n"


class TestParserCache:
    """The parser is built once per process and carries nothing between calls."""

    def test_default_bins_after_explicit_bins(self, capsys, tmp_path):
        out = str(tmp_path / "census.csv")
        for argv, bins in ((["--bins", "7"], 7), ([], 40)):
            code, _, _ = run_cli(capsys, ["ec-census", "--p", "101", *argv, "--out", out])
            assert code == 0
            with open(out + ".summary.json") as handle:
                assert len(json.load(handle)["histogram"]) == bins

    def test_text_after_json(self, capsys):
        argv = ["analyze", "--weil", "5,-3,1", "--q", "5"]
        _, as_json, _ = run_cli(capsys, [*argv, "--json"])
        _, text, _ = run_cli(capsys, argv)
        assert json.loads(as_json.splitlines()[0])["type"] == "class"
        assert text.startswith("Weil polynomial over F_5:")

    def test_usage_error_leaves_no_state(self, capsys):
        argv = ["analyze", "--weil", "529,-138,32,-6,1", "--q", "23", "--json"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv[:-1], "--frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()
        after_error = run_cli(capsys, argv)
        cli._parser.cache_clear()
        assert run_cli(capsys, argv) == after_error

    def test_built_once(self, capsys, tmp_path, monkeypatch):
        built = []
        build_parser = cli.build_parser

        def counted():
            built.append(1)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counted)
        for _ in range(3):
            assert run_cli(capsys, ["analyze", "--weil", "5,-3,1", "--q", "5"])[0] == 0
            assert run_cli(capsys, ["examples", "--family", "small", "--pmax", "40"])[0] == 0
            assert run_cli(capsys, ["analyze", "--weil", "5,-5,1", "--q", "5"])[0] == 3
        assert len(built) == 1

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import ppav.cli\n"
            "assert not built, 'parser built at import'\n"
            "assert ppav.cli.main(['examples', '--family', 'small', '--pmax', '40']) == 0\n"
            "assert built\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr


with open(os.path.join(os.path.dirname(__file__), "..", "data", "ex-inconvenient.json")) as handle:
    INCONVENIENT = json.load(handle)
JUNK = st.one_of(
    st.none(),
    st.integers(-3, 400),
    st.text(max_size=4),
    st.lists(st.integers(-5, 80), max_size=5),
    st.lists(st.lists(st.integers(-5, 80), max_size=5), max_size=5),
)
FUZZ = settings(derandomize=True, deadline=None, database=None)


@st.composite
def order_file_text(draw):
    """The worked order file, with one key dropped or replaced, or junk text."""
    kind = draw(st.sampled_from(["replace", "drop", "good", "text"]))
    if kind == "text":
        return draw(st.text(max_size=20))
    data = dict(INCONVENIENT)
    key = draw(st.sampled_from(sorted(data)))
    if kind == "drop":
        del data[key]
    elif kind == "replace":
        data[key] = draw(JUNK)
    return json.dumps(data)


@st.composite
def class_file(draw, tmp):
    """Path of a `coeffs q` file of valid classes and junk lines, written as drawn."""
    valid = st.sampled_from(list(class_lines(GOLDEN_SURFACES[:8] + GOLDEN_ELLIPTIC[:8])))
    q = draw(st.sampled_from([2, 4, 5, 9, 23, 25, 97]))
    junk = st.one_of(
        st.text(alphabet="0123456789,- xq\t", max_size=16),
        st.integers(-40, 40).map(lambda t: f"{q},{t},1 {q}"),  # often not Weil
        st.tuples(st.integers(-9, 9), st.integers(-99, 99)).map(
            lambda ab: f"{q * q},{ab[0] * q},{ab[1]},{ab[0]},1 {q}"
        ),
    )
    lines = draw(st.lists(valid, min_size=1, max_size=3))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    path = os.path.join(tmp, "classes.txt")
    with open(path, "w") as handle:
        handle.write("\n".join(lines))
    return path


@st.composite
def cli_argv(draw, tmp):
    """One command line of any other subcommand, with bounded sizes, or junk."""
    small = st.integers
    command = draw(
        st.sampled_from(
            ["analyze", "weil-file", "ec-census", "measures", "find-heavy", "examples", "junk"]
        )
    )
    argv = []
    if draw(st.booleans()):
        argv += ["--threads", str(draw(small(-2, 8)))]
    if command == "analyze":
        prime_powers = st.sampled_from([2, 4, 5, 9, 23, 25, 97, 1009, 9973, 99991])
        q = draw(st.one_of(prime_powers, small(-3, 10**5), st.just(10**72 + 1)))
        weil = draw(
            st.one_of(
                st.text(alphabet="0123456789,- x", max_size=12),
                st.lists(small(-(10**6), 10**6), max_size=6).map(lambda c: ",".join(map(str, c))),
                st.tuples(small(-20, 20), small(-200, 200)).map(
                    lambda ab: f"{q * q},{ab[0] * q},{ab[1]},{ab[0]},1"
                ),
                small(-700, 700).map(lambda t: f"{q},{t},1"),
            )
        )
        argv += ["analyze", "--weil", weil, "--q", str(q)]
        if draw(st.booleans()):
            argv.append("--json")
    elif command == "weil-file":
        path = draw(class_file(tmp))
        if not draw(st.integers(0, 3)):
            path = os.path.join(tmp, "missing", "classes.txt")
        argv += ["analyze", "--weil-file", path]
        if draw(st.booleans()):
            argv.append("--json")
    elif command == "ec-census":
        folder = tmp if draw(st.booleans()) else os.path.join(tmp, "missing")
        p = draw(st.one_of(st.sampled_from([5, 7, 101, 1009, 2999]), small(-5, 3000)))
        argv += ["ec-census", "--p", str(p), "--bins", str(draw(small(-2, 50)))]
        argv += ["--out", os.path.join(folder, "census.csv")]
    elif command == "measures":
        argv += ["measures", "--n", str(draw(small(-1, 5))), "--grid", str(draw(small(-2, 16)))]
        if draw(st.booleans()):
            argv += ["--out", os.path.join(tmp, "densities.csv")]
    elif command == "find-heavy":
        d0 = draw(st.one_of(st.sampled_from([-7, -8, -11, -15, -20, -43, -163]), small(-200, 10)))
        argv += ["find-heavy", "--m", str(draw(small(-1, 12))), "--d0", str(d0)]
        argv += ["--limit", str(draw(small(-2, 300)))]
    elif command == "examples":
        family = draw(st.sampled_from(["small", "smaller", "smallest", "largest"]))
        argv += ["examples", "--family", family, "--pmax", str(draw(small(-5, 300)))]
    else:
        argv += draw(st.lists(st.text(max_size=6), max_size=4))
    return argv


def exit_code_of(argv):
    """Exit code of `ppav argv`, asserting a documented one and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    return code


class TestFuzz:
    """Hypothesis fuzz of `cli.main`: 180 derandomized examples in all."""

    def test_command_lines(self):
        with tempfile.TemporaryDirectory() as tmp:

            @settings(FUZZ, max_examples=100)
            @given(cli_argv(tmp))
            def run(argv):
                exit_code_of(argv)

            run()

    def test_weil_files(self):
        # the batch stops where the first failing class would stop alone
        with tempfile.TemporaryDirectory() as tmp:

            @settings(FUZZ, max_examples=30)
            @given(class_file(tmp), st.booleans())
            def run(path, as_json):
                flags = ["--json"] if as_json else []
                expected_out, expected = [], (0, "")
                with open(path) as handle:
                    numbered = list(enumerate(handle.read().split("\n"), 1))
                for number, line in numbered:
                    fields = line.split()
                    if not fields:
                        continue
                    if len(fields) != 2 or not fields[1].isdigit():
                        expected = (2, f"error: line {number}: ")
                        break
                    argv = ["analyze", f"--weil={fields[0]}", f"--q={fields[1]}", *flags]
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                    if code:
                        message = err.getvalue().replace("error: ", f"error: line {number}: ", 1)
                        expected = (code, message)
                        break
                    expected_out.append(out.getvalue())
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(["analyze", "--weil-file", path, *flags])
                assert out.getvalue() == "".join(expected_out)
                assert code == expected[0] and err.getvalue().startswith(expected[1])
                assert err.getvalue().count("\n") == (code != 0)

            run()

    def test_order_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "order.json")

            @settings(FUZZ, max_examples=50)
            @given(order_file_text())
            def run(text):
                with open(path, "w") as handle:
                    handle.write(text)
                exit_code_of(["convenient", "--order-file", path])

            run()
            assert exit_code_of(["convenient", "--order-file", os.path.join(tmp, "none")]) == 4
