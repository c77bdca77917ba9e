import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import kept_first_ties, shown_sectors

from tokenspectra import cli, twotoken
from tokenspectra.cli import main
from tokenspectra.tokengraph import DENSE_SPECTRUM_CAP, block_sizes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


PINNED = json.loads((Path(__file__).parent / "data" / "spectrum_pinned.json").read_text())
# matrix output captured while B(z) was still rendered through a grid of
# polynomial objects; every cell is exact integer text, pinned byte for byte
MATRIX_PINNED = json.loads(
    (Path(__file__).parent / "data" / "matrix_pinned.json").read_text())

OVERLIFT_6_3 = ("spectrum", "--n", "6", "--k", "3")
CONTFRAC_8 = ("spectrum", "--n", "8", "--k", "2", "--method", "contfrac")

TEXT_PINNED = {
    OVERLIFT_6_3: """\
F_3(C_6) spectrum, method overlift: 20 eigenvalues
  0.0000  1.0000  1.0000  1.3944  1.4384  1.4384  2.0000  2.7639  3.0000  3.0000  \
4.0000  4.0000  4.0000  5.0000  5.0000  5.5616  5.5616  6.0000  7.2361  8.6056
""",
    OVERLIFT_6_3 + ("--audit",): """\
F_3(C_6) spectrum, method overlift: 20 eigenvalues
  r=0          0.0000  2.7639  6.0000  7.2361
  r=1 (= r=5)  1.0000  4.0000  5.0000  6.0000*
  r=2 (= r=4)  1.4384  3.0000  5.5616  6.0000*
  r=3          1.3944  2.0000  4.0000  8.6056
  discarded: 4 (6.0000@r=1, 6.0000@r=2, 6.0000@r=4, 6.0000@r=5)
  values marked * are not eigenvalues of the token graph
""",
    OVERLIFT_6_3 + ("--audit", "--r", "1"): """\
F_3(C_6) spectrum, method overlift: 20 eigenvalues
  r=1 (= r=5)  1.0000  4.0000  5.0000  6.0000*
  discarded: 2 (6.0000@r=1, 6.0000@r=5)
  values marked * are not eigenvalues of the token graph
""",
    OVERLIFT_6_3 + ("--format", "latex"): """\
\\begin{tabular}{lcccc}
r$=$0 & 0.0000 & 2.7639 & 6.0000 & 7.2361 \\\\
r$=$1 ($=$ r$=$5) & 1.0000 & 4.0000 & 5.0000 & 6.0000* \\\\
r$=$2 ($=$ r$=$4) & 1.4384 & 3.0000 & 5.5616 & 6.0000* \\\\
r$=$3 & 1.3944 & 2.0000 & 4.0000 & 8.6056 \\\\
\\end{tabular}
""",
    CONTFRAC_8: """\
F_2(C_8) spectrum, method contfrac: 28 eigenvalues
  0.0000  0.5858  0.5858  0.9486  0.9486  1.5060  1.7118  1.7118  2.0000  2.0000  \
2.0000  3.1260  3.1260  3.4142  3.4142  4.0000  4.0000  4.0000  4.5173  4.5173  \
4.8740  4.8740  4.8901  6.2882  6.2882  6.5341  6.5341  7.6039
""",
    CONTFRAC_8 + ("--audit",): """\
F_2(C_8) spectrum, method contfrac: 28 eigenvalues
  r=0          0.0000  1.5060  4.8901  7.6039
  r=1 (= r=7)  0.5858  3.1260  4.0000*  6.2882
  r=2 (= r=6)  0.9486  2.0000  4.5173  6.5341
  r=3 (= r=5)  1.7118  3.4142  4.0000*  4.8740
  r=4          2.0000  4.0000  4.0000  4.0000
  discarded: 4 (4.0000@r=1, 4.0000@r=3, 4.0000@r=5, 4.0000@r=7)
  values marked * are not eigenvalues of the token graph
""",
    CONTFRAC_8 + ("--audit", "--r", "1"): """\
F_2(C_8) spectrum, method contfrac: 28 eigenvalues
  r=1 (= r=7)  0.5858  3.1260  4.0000*  6.2882
  discarded: 2 (4.0000@r=1, 4.0000@r=7)
  values marked * are not eigenvalues of the token graph
""",
    CONTFRAC_8 + ("--format", "latex"): """\
\\begin{tabular}{lcccc}
r$=$0 & 0.0000 & 1.5060 & 4.8901 & 7.6039 \\\\
r$=$1 ($=$ r$=$7) & 0.5858 & 3.1260 & 4.0000* & 6.2882 \\\\
r$=$2 ($=$ r$=$6) & 0.9486 & 2.0000 & 4.5173 & 6.5341 \\\\
r$=$3 ($=$ r$=$5) & 1.7118 & 3.4142 & 4.0000* & 4.8740 \\\\
r$=$4 & 2.0000 & 4.0000 & 4.0000 & 4.0000 \\\\
\\end{tabular}
""",
}


def _assert_json_close(got, want, path="$"):
    """Same layout, keys and strings; floats within 1e-12."""
    if isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= 1e-12, path
    elif isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            _assert_json_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _assert_json_close(a, b, f"{path}[{i}]")
    else:
        assert got == want and type(got) is type(want), path


class TestPinnedOutput:
    """Spectrum output captured before the writers read the report's columns.

    Text and LaTeX print four decimals and are pinned byte for byte.
    CSV and JSON carry full precision, whose last digits may differ
    between BLAS builds, so their layout, order and kept flags are
    pinned exactly and their values within 1e-12.
    """

    @pytest.mark.parametrize("argv", list(TEXT_PINNED), ids=" ".join)
    def test_text_and_latex(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == TEXT_PINNED[argv]

    @pytest.mark.parametrize("command", list(PINNED))
    def test_csv_and_json(self, capsys, command):
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, "")
        want = PINNED[command]
        if "--format json" in command:
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
            assert out.count("\n") == want.count("\n")
            _assert_json_close(json.loads(out), json.loads(want))
        else:
            got_rows = [line.split(",") for line in out.splitlines()]
            want_rows = [line.split(",") for line in want.splitlines()]
            assert got_rows[0] == want_rows[0] == ["r", "value", "kept"]
            assert [(r, kept) for r, _, kept in got_rows] == \
                [(r, kept) for r, _, kept in want_rows]
            for (_, got, _), (_, value, _) in zip(got_rows[1:], want_rows[1:]):
                assert abs(float(got) - float(value)) <= 1e-12


class TestOrbits:
    def test_8_4(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "8", "--k", "4")
        assert code == 0
        assert "orbits of 4-subsets of Z_8: 10" in out
        assert "burnside=10 polya=10 moreau=8(aperiodic) enumerated=10" in out

    def test_7_2(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "7", "--k", "2")
        assert code == 0
        assert "orbits of 2-subsets of Z_7: 3" in out

    def test_3_1(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "3", "--k", "1")
        assert code == 0
        assert "enumerated=1" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "orbits", "--n", "6", "--k", "3",
                           "--format", "json")
        data = json.loads(out)
        assert data["burnside"] == data["polya"] == data["enumerated"] == 4
        assert sorted(data["periods"]) == [2, 6, 6, 6]

    def test_bad_arguments_exit_2(self, capsys):
        code, _, _ = run(capsys, "orbits", "--n", "6", "--k", "5")
        assert code == 2
        code, _, _ = run(capsys, "orbits", "--n", "6")
        assert code == 2


class TestMatrix:
    @pytest.mark.parametrize("command", list(MATRIX_PINNED))
    def test_pinned_output(self, capsys, command):
        code, out, err = run(capsys, *command.split())
        assert (code, out, err) == (0, MATRIX_PINNED[command], "")

    def test_6_3_canonical(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "6", "--k", "3")
        assert code == 0
        assert "-z-z^3-z^5" in out

    def test_9_2_balanced_corner(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "9", "--k", "2",
                           "--exponents", "balanced")
        assert code == 0
        assert "4-z^4-z^-4" in out

    def test_4_1_loop(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "4", "--k", "1")
        assert code == 0
        assert out.strip() == "2-z-z^3"

    def test_json_structure(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "6", "--k", "3",
                           "--format", "json")
        data = json.loads(out)
        assert data["order"] == 4
        assert data["entries"][3][1] == {"1": -1, "3": -1, "5": -1}
        assert data["text"][3][1] == "-z-z^3-z^5"

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "5", "--k", "2",
                           "--format", "latex")
        assert code == 0
        assert out.startswith("\\begin{pmatrix}")


class TestSpectrum:
    def test_6_3_audit_layout(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--k", "3",
                           "--method", "overlift", "--audit")
        assert code == 0
        assert out.count("6.0000*") == 2  # conjugate sectors merged
        assert "r=1 (= r=5)" in out
        assert "discarded: 4" in out

    def test_8_2_contfrac_audit(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "8", "--k", "2",
                           "--method", "contfrac", "--audit")
        assert code == 0
        assert "4.0000*" in out
        assert "r=4" in out

    # n = 2 mod 4: the spurious 4 of the half turn ties with kept 4s
    @pytest.mark.parametrize("n", [6, 10, 14, 18])
    @pytest.mark.parametrize("audit", [False, True])
    def test_contfrac_ties_show_kept_first(self, capsys, n, audit):
        flags = ("--audit",) if audit else ("--format", "csv")
        code, out, _ = run(capsys, "spectrum", "--n", str(n), "--k", "2",
                           "--method", "contfrac", *flags)
        assert code == 0
        assert sum(kept_first_ties(values, kept)
                   for values, kept in shown_sectors(out, audit)) > 0

    def test_audit_single_sector_24(self, capsys):
        # the row of sector 1 only, not those of r = 10, 11 and 12, and
        # only the discarded values of sectors 1 and 23
        for r in ("1", "23"):
            code, out, _ = run(capsys, "spectrum", "--n", "24", "--k", "2",
                               "--method", "contfrac", "--audit", "--r", r)
            assert code == 0
            rows = [line.split()[0] for line in out.splitlines()
                    if line.startswith("  r=")]
            assert rows == ["r=1"]
            assert "r=1 (= r=23)" in out
            assert "  discarded: 2 (4.0000@r=1, 4.0000@r=23)" in out
        code, out, _ = run(capsys, "spectrum", "--n", "24", "--k", "2",
                           "--method", "contfrac", "--audit", "--r", "12")
        assert [line.split()[0] for line in out.splitlines()
                if line.startswith("  r=")] == ["r=12"]
        assert "  discarded: 0 ()" in out

    def test_7_1_cycle_values(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "7", "--k", "1")
        assert code == 0
        for r in range(1, 4):
            val = 4 * math.sin(math.pi * r / 7) ** 2
            assert f"{val:.4f}" in out

    def test_check_against_passes(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--k", "3",
                           "--method", "overlift", "--check-against", "brute")
        assert code == 0
        assert "agree within" in out

    def test_check_against_mismatch_exit_1(self, capsys):
        # zero tolerance cannot hold between distinct floating routes
        code, _, err = run(capsys, "spectrum", "--n", "6", "--k", "3",
                           "--method", "overlift", "--check-against", "brute",
                           "--tol", "0")
        assert code == 1
        assert "MISMATCH" in err

    def test_contfrac_requires_k2(self, capsys):
        code, _, err = run(capsys, "spectrum", "--n", "6", "--k", "3",
                           "--method", "contfrac")
        assert code == 2
        assert "k = 2" in err

    @pytest.mark.parametrize("flags", [("--method", "contfrac"),
                                       ("--check-against", "contfrac")])
    def test_contfrac_k_rejected_before_any_spectrum(self, capsys, monkeypatch, flags):
        def unexpected(*args):
            raise AssertionError("a spectrum was computed before the k check")
        monkeypatch.setattr(cli, "overlift_spectrum", unexpected)
        monkeypatch.setattr(cli, "brute_spectrum", unexpected)
        code, out, err = run(capsys, "spectrum", "--n", "16", "--k", "8", *flags)
        assert (code, out) == (2, "")
        assert "method contfrac requires k = 2" in err

    @pytest.mark.parametrize("argv", [
        ("--n", "17", "--k", "8", "--check-against", "brute"),
        ("--n", "17", "--k", "8", "--method", "brute", "--check-against", "overlift"),
        ("--n", "121", "--k", "2", "--method", "contfrac", "--check-against", "brute"),
        ("--n", "121", "--k", "2", "--method", "brute", "--check-against", "contfrac"),
    ])
    def test_brute_cap_refused_before_the_other_route(self, capsys, monkeypatch, argv):
        def unexpected(*args):
            raise AssertionError("the other route was solved before the brute cap")
        monkeypatch.setattr(cli, "overlift_spectrum", unexpected)
        monkeypatch.setattr(twotoken, "spectrum_2token", unexpected)
        code, out, err = run(capsys, "spectrum", *argv)
        assert (code, out) == (2, "")
        assert "exceeds the dense spectrum cap" in err

    def test_method_named_twice_is_solved_once(self, capsys, monkeypatch):
        calls = []
        solve = cli.overlift_spectrum
        monkeypatch.setattr(cli, "overlift_spectrum", lambda n, k: calls.append(n) or solve(n, k))
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--k", "3",
                           "--check-against", "overlift")
        assert code == 0 and "agree within" in out
        assert calls == [6]

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "8", "--k", "2",
                           "--method", "contfrac", "--format", "json")
        assert code == 0
        data = json.loads(out)
        collected = sorted(v for s in data["sectors"] for v in s["eigenvalues"])
        assert collected == sorted(data["kept"])
        assert collected == list(data["kept"])
        total_disc = sum(len(s["discarded"]) for s in data["sectors"])
        assert total_disc == 4

    @pytest.mark.parametrize("n,k,method,r", [(8, 2, "contfrac", 1), (8, 2, "contfrac", 7),
                                              (24, 2, "contfrac", 12), (6, 3, "overlift", 0),
                                              (6, 3, "overlift", 2)])
    def test_json_single_sector(self, capsys, n, k, method, r):
        argv = ("spectrum", "--n", str(n), "--k", str(k), "--method", method)
        _, whole, _ = run(capsys, *argv, "--format", "json")
        code, out, _ = run(capsys, *argv, "--format", "json", "--r", str(r))
        assert code == 0
        data, whole = json.loads(out), json.loads(whole)
        assert data["sectors"] == [s for s in whole["sectors"] if s["r"] == r]
        assert data["kept"] == data["sectors"][0]["eigenvalues"]
        assert data["kept"] == sorted(data["kept"])
        assert out == json.dumps(data, indent=2) + "\n"
        _, csv_out, _ = run(capsys, *argv, "--format", "csv", "--r", str(r))
        rows = list(csv.DictReader(io.StringIO(csv_out)))
        assert data["kept"] == [float(row["value"]) for row in rows if row["kept"] == "true"]
        _, text, _ = run(capsys, *argv, "--r", str(r))
        assert text.splitlines()[1] == f"  r={r}: " + "  ".join(
            f"{v:.4f}" for v in data["kept"])

    @pytest.mark.parametrize("r", ["1", "23", "12", "0"])
    def test_latex_single_sector(self, capsys, r):
        argv = ("spectrum", "--n", "24", "--k", "2", "--method", "contfrac")
        _, whole, _ = run(capsys, *argv, "--format", "latex")
        code, out, _ = run(capsys, *argv, "--format", "latex", "--r", r)
        assert code == 0
        low = min(int(r), 24 - int(r))
        row = [line for line in whole.splitlines() if line.startswith(f"r$=${low} ")]
        assert out.splitlines() == ["\\begin{tabular}{l" + "c" * 12 + "}", *row,
                                    "\\end{tabular}"]
        _, audit, _ = run(capsys, *argv, "--audit", "--r", r)
        cells = [line.split()[-12:] for line in audit.splitlines() if line.startswith("  r=")]
        assert cells == [row[0].removesuffix(" \\\\").split(" & ")[1:]]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--k", "2",
                           "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        kept = [float(r["value"]) for r in rows if r["kept"] == "true"]
        assert len(kept) == 15
        assert len(rows) == 18  # three spurious fours

    def test_single_sector(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "7", "--k", "3", "--r", "1")
        assert code == 0
        assert "0.7530" in out

    def test_deterministic(self, capsys):
        _, out1, _ = run(capsys, "spectrum", "--n", "8", "--k", "4", "--audit")
        _, out2, _ = run(capsys, "spectrum", "--n", "8", "--k", "4", "--audit")
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--k", "3",
                           "--format", "json", "--out", str(path))
        assert code == 0 and out == ""
        data = json.loads(path.read_text())
        assert len(data["kept"]) == 20


class TestCharpoly:
    def test_5_0_exact(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "5", "--r", "0")
        assert code == 0
        assert "coefficients: 1, -4, 0" in out

    def test_8_1_smallest_root(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "8", "--r", "1")
        assert code == 0
        assert "smallest root: 0.5858" in out  # 0.585786 rounded

    def test_9_1_coefficients(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "9", "--r", "1",
                           "--format", "json")
        data = json.loads(out)
        got = data["coefficients"]
        want = [1, -15.8794, 80.1976, -136.2222, 47.7602]
        assert all(abs(a - b) < 5e-3 for a, b in zip(got, want))
        assert abs(min(data["roots"]) - 0.4679) < 1e-3

    def test_samples_csv(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "5", "--r", "1",
                           "--samples", "25", "--format", "csv")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 25
        # curve values match the polynomial evaluated independently
        sqrt5 = math.sqrt(5)
        for row in rows[:5]:
            lam = float(row["lambda"])
            want = lam * lam + (-sqrt5 / 2 - 13 / 2) * lam + 15 / 2 + sqrt5 / 2
            assert abs(float(row["phi"]) - want) < 1e-9

    def test_samples_are_the_root_product(self, capsys):
        # the monomial coefficients cancel inside the root band; the product
        # over the roots does not
        code, out, err = run(capsys, "charpoly", "--n", "300", "--r", "1", "--samples", "3",
                             "--lo", "0", "--hi", "9", "--format", "csv")
        assert (code, err) == (0, "")
        phi = {float(row["lambda"]): float(row["phi"]) for row in csv.DictReader(io.StringIO(out))}
        want = math.prod(4.5 - v for v in twotoken.sector_roots(300, 1).tolist())
        assert abs(want - 6.674e44) <= 1e-3 * 6.674e44
        assert abs(phi[4.5] - want) <= 1e-12 * abs(want)

    def test_samples_near_the_half_turn_are_finite(self, capsys):
        code, out, err = run(capsys, "charpoly", "--n", "800", "--r", "399", "--samples", "3",
                             "--format", "json")
        assert (code, err) == (0, "")
        samples = json.loads(out)["samples"]
        assert len(samples) == 3 and all(math.isfinite(y) for _, y in samples)

    def test_sample_past_the_float_range_exits_1(self, capsys):
        code, out, err = run(capsys, "charpoly", "--n", "800", "--r", "399", "--samples", "3",
                             "--hi", "1000")
        assert (code, out) == (1, "")
        assert err == ("error: F_2(C_800) sector r=399: the sector polynomial at "
                       "lambda=500.0 passes the float range\n")

    def test_requires_r(self, capsys):
        code, _, _ = run(capsys, "charpoly", "--n", "5")
        assert code == 2

    def test_csv_coefficients_are_plain_floats(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "9", "--r", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        code, text, _ = run(capsys, "charpoly", "--n", "9", "--r", "1", "--format", "json")
        assert [float(row["coefficient"]) for row in rows] == json.loads(text)["coefficients"]
        assert [int(row["degree"]) for row in rows] == list(range(4, -1, -1))

    @pytest.mark.parametrize("n,r", [(2000, 5)])
    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_overflow_exits_1(self, capsys, n, r, fmt):
        code, out, err = run(capsys, "charpoly", "--n", str(n), "--r", str(r), "--format", fmt)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: F_2(C_{n}) sector r={r}: the sector polynomial overflows")

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_near_half_turn_is_finite(self, capsys, fmt):
        code, out, err = run(capsys, "charpoly", "--n", "310", "--r", "154", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            coeffs = json.loads(out)["coefficients"]
            assert len(coeffs) == 156 and all(math.isfinite(c) for c in coeffs)

    def test_text_prints_large_coefficients_as_repr(self, capsys):
        # past 2^53 an integral float is not an exact integer, so it is
        # written as repr, the same float JSON holds
        _, text, _ = run(capsys, "charpoly", "--n", "120", "--r", "59")
        _, data, _ = run(capsys, "charpoly", "--n", "120", "--r", "59", "--format", "json")
        line = next(row for row in text.splitlines() if row.startswith("coefficients: "))
        printed = line.removeprefix("coefficients: ").split(", ")
        coeffs = json.loads(data)["coefficients"]
        large = [(p, c) for p, c in zip(printed, coeffs) if abs(c) > 2.0 ** 53]
        assert len(printed) == len(coeffs) and large
        assert all(p == repr(c) for p, c in large)

    def test_rejects_half_continued_fraction_domain(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "8", "--r", "4")
        assert code == 0  # the half-turn polynomial exists
        assert "coefficients: 1, -14, 72, -160, 128" in out


class TestVerify:
    def test_n_max_6_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "6")
        assert code == 0
        assert "all checks passed" in out
        assert "spectra compared" in out

    def test_n_max_4_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--n-max", "4")
        assert code == 0

    def test_run_verification_counts(self):
        failures, checks, spectra = cli.run_verification(12)
        assert (failures, checks, spectra) == ([], 218, 412)

    def test_injected_defect_detected(self, capsys, monkeypatch):
        # negative control: an over-lift spectrum off by 1e-3 must fail
        real = cli.overlift_spectrum

        def defective(n, k):
            report = real(n, k)
            values = report.values.copy()
            kept = np.flatnonzero(report.kept_mask)
            values[kept[np.argmin(values[kept])]] += 1e-3
            return replace(report, values=values)

        monkeypatch.setattr(cli, "overlift_spectrum", defective)
        code, _, err = run(capsys, "verify", "--n-max", "4")
        assert code == 1
        assert "overlift vs brute" in err


class TestArgumentHandling:
    def test_unknown_command(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    @pytest.mark.parametrize("argv,code,shown", [
        (("spectrum", "--n", "8", "--k", "3", "--r", "8"), 2, ""),
        (OVERLIFT_6_3, 0, TEXT_PINNED[OVERLIFT_6_3])])
    def test_run_as_module(self, argv, code, shown):
        # python -m tokenspectra.cli runs the command line, exit code included
        src = Path(cli.__file__).parents[1]
        env = {**os.environ, "PYTHONPATH": str(src)}
        done = subprocess.run([sys.executable, "-m", "tokenspectra.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert (done.returncode, done.stdout) == (code, shown)

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_sector(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--n", "6", "--k", "2",
                         "--r", "9")
        assert code == 2

    @pytest.mark.parametrize("extra", [("--r", "1"), ("--audit",), ("--format", "latex"),
                                       ("--format", "json", "--r", "0"),
                                       ("--format", "csv", "--r", "1")])
    def test_brute_has_no_sectors(self, capsys, extra):
        code, out, err = run(capsys, "spectrum", "--n", "6", "--k", "3",
                             "--method", "brute", *extra)
        assert (code, out) == (2, "")
        assert "method brute has no sectors" in err
        # the same request with sectors is fine
        code, out, _ = run(capsys, "spectrum", "--n", "6", "--k", "3", *extra)
        assert code == 0 and out

    @pytest.mark.parametrize("fmt", ["csv", "json", "latex"])
    @pytest.mark.parametrize("method", ["overlift", "contfrac"])
    def test_audit_needs_text(self, capsys, fmt, method):
        argv = ("spectrum", "--n", "6", "--k", "2", "--method", method, "--format", fmt)
        code, out, err = run(capsys, *argv, "--audit")
        assert (code, out) == (2, "")
        assert "--audit prints a text table" in err
        # the same request without --audit is fine
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out

    @pytest.mark.parametrize("command", [("orbits", "--k", "3"), ("charpoly", "--r", "1")])
    def test_latex_only_where_rendered(self, capsys, command):
        code, out, err = run(capsys, command[0], "--n", "6", *command[1:],
                             "--format", "latex")
        assert (code, out) == (2, "")
        assert "invalid choice: 'latex'" in err

    def test_verify_ceiling_is_the_last_n_whose_blocks_fit_the_brute_cap(self):
        # the parser holds a constant; block sizes grow with n
        past = next(n for n in range(3, 40) if any(
            max(block_sizes(n, k)) > DENSE_SPECTRUM_CAP for k in range(1, n // 2 + 1)))
        assert cli.VERIFY_N_MAX == past - 1 == 16
        assert cli.build_parser().parse_args(["verify", "--n-max", "16"]).n_max == 16

    @pytest.mark.parametrize("argv,flag", [
        (("charpoly", "--n", "8", "--r", "1", "--samples", "-1"), "--samples"),
        (("charpoly", "--n", "8", "--r", "1", "--samples", "2.5"), "--samples"),
        (("spectrum", "--n", "6", "--k", "2", "--check-against", "brute", "--tol", "-1"),
         "--tol"),
        (("spectrum", "--n", "6", "--k", "2", "--check-against", "brute", "--tol", "nan"),
         "--tol"),
        (("spectrum", "--n", "6", "--k", "2", "--check-against", "brute", "--tol", "inf"),
         "--tol"),
        (("verify", "--tol", "-1"), "--tol"),
        (("verify", "--tol", "nan"), "--tol"),
        (("verify", "--n-max", "2"), "--n-max"),
        (("charpoly", "--n", "8", "--r", "1", "--samples", "3", "--lo", "nan"), "--lo"),
        (("charpoly", "--n", "8", "--r", "1", "--samples", "3", "--lo", "-inf"), "--lo"),
        (("charpoly", "--n", "8", "--r", "1", "--samples", "3", "--hi", "inf"), "--hi"),
        (("charpoly", "--n", "8", "--r", "1", "--samples", "3", "--hi", "nan"), "--hi"),
        (("verify", "--n-max", "17"), "--n-max"),
        # valid values that would change nothing
        (("spectrum", "--n", "6", "--k", "2", "--tol", "1e-6"), "--tol"),
        (("charpoly", "--n", "8", "--r", "1", "--lo", "1"), "--lo"),
        (("charpoly", "--n", "8", "--r", "1", "--samples", "0", "--hi", "9"), "--hi"),
    ])
    def test_numeric_arguments_exit_2(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"argument {flag}: " in err

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.txt"
        code, out, err = run(capsys, "spectrum", "--n", "6", "--k", "3", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert not path.parent.exists()

    def test_zero_samples_and_zero_tolerance_are_valid(self, capsys):
        code, out, _ = run(capsys, "charpoly", "--n", "8", "--r", "1", "--samples", "0")
        assert code == 0 and "lambda,phi" not in out
        # the sweep runs; whether exact agreement holds is its verdict
        _, out, _ = run(capsys, "verify", "--n-max", "3", "--tol", "0")
        assert "5 checks, 4 spectra compared" in out
