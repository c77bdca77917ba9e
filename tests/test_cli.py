import csv
import io
import json
import math
from dataclasses import replace

import numpy as np

from tokenspectra import cli
from tokenspectra.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_requires_r(self, capsys):
        code, _, _ = run(capsys, "charpoly", "--n", "5")
        assert code == 2

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
        failures, checks, spectra = cli.run_verification(12, echo=lambda _: None)
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

    def test_no_command(self, capsys):
        assert run(capsys)[0] == 2

    def test_bad_sector(self, capsys):
        code, _, _ = run(capsys, "spectrum", "--n", "6", "--k", "2",
                         "--r", "9")
        assert code == 2
