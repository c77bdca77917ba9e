"""Command-line interface.

Commands: orbits, matrix, spectrum, charpoly, verify.  Exit codes:
0 success, 1 verification mismatch or numeric failure, 2 bad arguments.
All configuration is by flags; no environment variables.  Every command
but verify writes text, CSV or JSON; matrix and spectrum also write
LaTeX.  Eigenvalues print with 4 decimals in text and LaTeX tables; CSV
and JSON carry full precision.  Spectrum output is rendered straight
from the report's sector rows, each sorted by value with each kept
value before every discarded value within CLUSTER_TOL of it.  Brute force
has no sectors, so --r, --audit and LaTeX need overlift or contfrac;
--audit is a text table and needs --format text.  Also exit 2: spectrum
--tol without --check-against, contfrac (as --method or --check-against)
with k != 2, charpoly --lo or --hi without --samples
above 0, verify --n-max past the largest n whose symmetry blocks all
fit the dense spectrum cap (16), and an --out path that cannot be written.
"""
from __future__ import annotations

import argparse
import json
import sys
from math import comb, isfinite, prod

import numpy as np

from . import twotoken
from .errors import (CountMismatchError, NumericFailureError,
                     ParameterDomainError, PhaseConsistencyError, PoleError,
                     SizeLimitError)
from .necklaces import count_burnside, count_moreau, count_polya, enumerate_orbits
from .polymatrix import build_poly_matrix
from .polymatrix import full_spectrum as overlift_spectrum
from .report import (SpectrumReport, max_multiset_deviation, multiset_contains,
                     multisets_close)
from .tokengraph import algebraic_connectivity, brute_spectrum, check_sector
from .tolerances import AGREE_TOL, CLUSTER_TOL

# verify checks every (n, k) against brute force, so every symmetry block
# of n <= VERIFY_N_MAX must fit the dense spectrum cap; the tests derive
# this ceiling from tokengraph.block_sizes
VERIFY_N_MAX = 16


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _spectrum_by_method(method: str, n: int, k: int) -> SpectrumReport:
    if method == "brute":
        return brute_spectrum(n, k)
    if method == "overlift":
        return overlift_spectrum(n, k)
    if method == "contfrac":
        return twotoken.spectrum_2token(n)
    raise ParameterDomainError(f"unknown method {method!r}")


def cmd_orbits(args) -> int:
    table = enumerate_orbits(args.n, args.k)
    burnside = count_burnside(args.n, args.k)
    polya = count_polya(args.n, args.k)
    moreau = count_moreau(args.n, args.k)
    aperiodic = sum(1 for p in table.periods if p == args.n)
    rows = [(i, "".join(map(str, rep)) if args.n <= 10 else str(rep), p)
            for i, (rep, p) in enumerate(zip(table.reps, table.periods))]
    if args.format == "json":
        _write(json.dumps({
            "n": args.n, "k": args.k,
            "representatives": [list(r) for r in table.reps],
            "periods": table.periods.tolist(),
            "burnside": burnside, "polya": polya, "moreau": moreau,
            "enumerated": table.count,
        }, indent=2), args.out)
    elif args.format == "csv":
        lines = ["index,representative,period"]
        lines += [f"{i},{'-'.join(map(str, rep))},{p}"
                  for i, (rep, p) in enumerate(zip(table.reps, table.periods))]
        _write("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"orbits of {args.k}-subsets of Z_{args.n}: {table.count}"]
        lines += [f"  {i:3d}  {rep:<{args.n + 2}}  period {p}" for i, rep, p in rows]
        lines.append(f"counts: burnside={burnside} polya={polya} "
                     f"moreau={moreau}(aperiodic) enumerated={table.count}")
        _write("\n".join(lines) + "\n", args.out)
    if not (burnside == polya == table.count and moreau == aperiodic):
        print("error: counting routes disagree", file=sys.stderr)
        return 1
    return 0


def cmd_matrix(args) -> int:
    matrix = build_poly_matrix(args.n, args.k)
    balanced = args.exponents == "balanced"
    if args.format == "json":
        payload = {
            "n": args.n, "k": args.k, "order": matrix.order,
            "entries": matrix.entries, "text": matrix.cell_texts(balanced),
        }
        _write(json.dumps(payload, indent=2), args.out)
    elif args.format == "latex":
        _write(matrix.render_latex(balanced) + "\n", args.out)
    elif args.format == "csv":
        lines = [",".join(f'"{cell}"' for cell in row)
                 for row in matrix.cell_texts(balanced)]
        _write("\n".join(lines) + "\n", args.out)
    else:
        _write(matrix.render(balanced) + "\n", args.out)
    return 0


def _fmt4(value: float) -> str:
    text = f"{value:.4f}"
    return "0.0000" if text == "-0.0000" else text


def _by_sector(report: SpectrumReport, r: int | None = None, merged: bool = False):
    """(sector, trail indices) of every sector, or of sector r and, if merged, n - r.

    Each trail row sorted by value, with discarded values ranked CLUSTER_TOL
    higher so that tied kept values come first; brute force: one group, sector None.
    """
    values, dropped, n = report.values, ~report.kept_mask, report.n
    if report.kept_counts is None:
        return [(None, np.argsort(values, kind="stable"))]
    v, d = values.reshape(n, -1), dropped.reshape(n, -1)
    order = np.lexsort((v, d, v + CLUSTER_TOL * d)) + v.shape[1] * np.arange(n)[:, None]
    return [(s, order[s]) for s in range(n) if r is None or s == r or merged and s == n - r]


def _reprs(values: np.ndarray) -> np.ndarray:
    """``repr`` of each value as an object array, each distinct float rendered once."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(list(map(repr, bits.view(float).tolist())), dtype=object)[inverse]


def _audit_rows(report: SpectrumReport, groups) -> list[tuple[str, list[str]]]:
    """Per-sector table rows (label, cells); sector n - r shows in the row of r."""
    n = report.n
    return [(f"r={r}" + (f" (= r={n - r})" if 0 < r < n - r else ""),
             [_fmt4(v) + ("" if kept else "*") for v, kept in
              zip(report.values[index].tolist(), report.kept_mask[index].tolist())])
            for r, index in groups if 2 * r <= n]


def _spectrum_json(report: SpectrumReport, groups) -> str:
    """The report as JSON, laid out as ``json.dumps(indent=2)`` lays it out.

    Built by hand, as that encoder is slow on large spectra.  ``kept`` lists
    the kept values of all ``groups`` (every sector, or one), ascending.
    """
    def array(items: list[str], depth: int) -> str:  # of items already rendered
        pad = "\n" + "  " * depth
        return f"[{pad}  " + f",{pad}  ".join(items) + f"{pad}]" if items else "[]"

    text = _reprs(report.values)
    sectors = []
    for s, index in groups:
        if s is not None:
            kept = report.kept_mask[index]
            values, dropped = (array(text[i].tolist(), 3)
                               for i in (index[kept], index[~kept]))
            sectors.append(f'{{\n      "r": {s},\n      "eigenvalues": {values},\n'
                           f'      "discarded": {dropped}\n    }}')
    kept = np.concatenate([index[report.kept_mask[index]] for _, index in groups])
    kept = kept[np.argsort(report.values[kept], kind="stable")]
    return (f'{{\n  "n": {report.n},\n  "k": {report.k},\n  "method": '
            f'{json.dumps(report.method)},\n  "sectors": {array(sectors, 1)},\n'
            f'  "kept": {array(text[kept].tolist(), 1)}\n}}')


def cmd_spectrum(args) -> int:
    if args.r is not None:
        check_sector(args.n, args.r)
    if args.method == "brute" and (args.r is not None or args.audit
                                   or args.format == "latex"):
        raise ParameterDomainError("method brute has no sectors: --r, --audit and "
                                   "--format latex need overlift or contfrac")
    if args.audit and args.format != "text":
        raise ParameterDomainError("--audit prints a text table: it needs --format text")
    if args.tol is not None and not args.check_against:
        raise ParameterDomainError("argument --tol: only applies with --check-against")
    if args.k != 2 and "contfrac" in (args.method, args.check_against):
        raise ParameterDomainError("method contfrac requires k = 2")
    # brute first: past its cap it fails before the other route is solved
    methods = sorted({args.method, args.check_against} - {None}, key=lambda m: m != "brute")
    reports = {m: _spectrum_by_method(m, args.n, args.k) for m in methods}
    report = reports[args.method]
    status, check_note = 0, ""
    if args.check_against:
        tol = AGREE_TOL if args.tol is None else args.tol
        other = reports[args.check_against].kept
        check_note = f"check {args.method} vs {args.check_against}: "
        if multisets_close(report.kept, other, tol):
            dev = max_multiset_deviation(report.kept, other)
            check_note += f"agree within {tol:g} (max deviation {dev:.2e})"
        else:
            check_note += f"MISMATCH beyond {tol:g}"
            status = 1
    if args.format == "json":
        _write(_spectrum_json(report, _by_sector(report, args.r)), args.out)
    elif args.format == "csv":
        text = _reprs(report.values)
        lines = ["r,value,kept"]
        for r, index in _by_sector(report, args.r):
            sector = "" if r is None else r
            lines += [f"{sector},{value},{'true' if kept else 'false'}" for value, kept in
                      zip(text[index].tolist(), report.kept_mask[index].tolist())]
        _write("\n".join(lines) + "\n", args.out)
    elif args.format == "latex":
        rows = _audit_rows(report, _by_sector(report, args.r, merged=True))
        lines = ["\\begin{tabular}{l" + "c" * max(len(c) for _, c in rows) + "}"]
        lines += [label.replace("=", "$=$") + " & " + " & ".join(cells) + " \\\\"
                  for label, cells in rows] + ["\\end{tabular}"]
        _write("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"F_{args.k}(C_{args.n}) spectrum, method {args.method}: "
                 f"{len(report.kept)} eigenvalues"]
        if args.audit:
            groups = _by_sector(report, args.r, merged=True)
            rows = _audit_rows(report, groups)
            width = max(len(label) for label, _ in rows)
            lines += [f"  {label:<{width}}  " + "  ".join(cells) for label, cells in rows]
            dropped = [f"{_fmt4(v)}@r={r}" for r, index in groups
                       for v in report.values[index[~report.kept_mask[index]]].tolist()]
            lines.append(f"  discarded: {len(dropped)} ({', '.join(dropped)})")
            lines.append("  values marked * are not eigenvalues of the token graph")
        elif args.r is not None:
            kept = np.sort(report.values.reshape(args.n, -1)[args.r, :report.kept_counts[args.r]])
            lines.append(f"  r={args.r}: " + "  ".join(_fmt4(v) for v in kept.tolist()))
        else:
            lines.append("  " + "  ".join(_fmt4(v) for v in report.kept))
        if check_note:
            lines.append(check_note)
        _write("\n".join(lines) + "\n", args.out)
    if status:
        print(check_note, file=sys.stderr)
    return status


def cmd_charpoly(args) -> int:
    for flag, value in (("--lo", args.lo), ("--hi", args.hi)):
        if value is not None and not args.samples:
            raise ParameterDomainError(f"argument {flag}: only applies with --samples above 0")
    coeffs = twotoken.charpoly_sector(args.n, args.r)
    roots = twotoken.sector_roots(args.n, args.r)
    lo = 0.0 if args.lo is None else args.lo
    hi = args.hi if args.hi is not None else float(np.ceil(roots[-1]) + 1.0)
    xs = np.linspace(lo, hi, args.samples).tolist()
    # the product over the roots, in Python floats; the monomial sum cancels in the band
    samples = [(x, prod(x - v for v in roots.tolist())) for x in xs]
    for x, y in samples:
        if not isfinite(y):
            raise NumericFailureError(f"F_2(C_{args.n}) sector r={args.r}: the sector "
                                      f"polynomial at lambda={x!r} passes the float range")
    if args.format == "json":
        _write(json.dumps({
            "n": args.n, "r": args.r,
            "coefficients": [float(c) for c in coeffs],
            "roots": [float(v) for v in roots],
            "samples": samples,
        }, indent=2), args.out)
    elif args.format == "csv":
        if samples:
            lines = ["lambda,phi"] + [f"{x!r},{y!r}" for x, y in samples]
        else:
            lines = ["degree,coefficient"]
            deg = len(coeffs) - 1
            lines += [f"{deg - i},{c!r}" for i, c in enumerate(coeffs.tolist())]
        _write("\n".join(lines) + "\n", args.out)
    else:
        lines = [f"sector polynomial for n={args.n}, r={args.r} "
                 f"(degree {len(coeffs) - 1}, monic)"]
        lines.append("coefficients: " + ", ".join(_fmt_coeff(c) for c in coeffs))
        lines.append("roots: " + "  ".join(f"{v:.4f}" for v in roots))
        lines.append(f"smallest root: {roots[0]:.4f}")
        if samples:
            lines.append("lambda,phi")
            lines += [f"{x!r},{y!r}" for x, y in samples]
        _write("\n".join(lines) + "\n", args.out)
    return 0


def _fmt_coeff(c: float) -> str:
    """Integral values up to 2^53 as integers; past that a float's digits
    are not exact, so it prints as repr."""
    if c == int(c) and abs(c) <= 2.0 ** 53:
        return str(int(c))
    return repr(float(c))


def run_verification(n_max: int = 12, tol: float = AGREE_TOL):
    """Cross-method verification sweep up to n_max, printing one line per n.

    Checks per (n, k): counting routes agree; orbit sizes add to
    C(n, k); over-lift kept spectrum equals brute force; discard count
    equals n*nu - C(n, k); for k = 2 the continued-fraction route agrees
    as well.  Per n: spectral containment along increasing k and equal
    algebraic connectivity.  Returns (failures, checks, spectra).
    """
    failures: list[str] = []
    checks = 0
    spectra = 0

    def check(ok: bool, what: str):
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(what)

    for n in range(3, n_max + 1):
        per_k: dict[int, SpectrumReport] = {}
        for k in range(1, n // 2 + 1):
            table = enumerate_orbits(n, k)
            nu = table.count
            check(count_burnside(n, k) == count_polya(n, k) == nu,
                  f"(n={n},k={k}) count identity")
            check(count_moreau(n, k) == sum(1 for p in table.periods if p == n),
                  f"(n={n},k={k}) aperiodic count")
            check(sum(table.periods) == comb(n, k),
                  f"(n={n},k={k}) orbit sizes")
            brute = brute_spectrum(n, k)
            spectra += 1
            per_k[k] = brute
            lifted = overlift_spectrum(n, k)
            spectra += n
            check(multisets_close(brute.kept, lifted.kept, tol),
                  f"(n={n},k={k}) overlift vs brute")
            check(np.count_nonzero(~lifted.kept_mask) == n * nu - comb(n, k),
                  f"(n={n},k={k}) discard count")
            if k == 2:
                cf = twotoken.spectrum_2token(n)
                spectra += n
                check(multisets_close(brute.kept, cf.kept, tol),
                      f"(n={n},k={k}) contfrac vs brute")
        ks = sorted(per_k)
        for a, b in zip(ks, ks[1:]):
            check(multiset_contains(per_k[b].kept, per_k[a].kept, tol),
                  f"(n={n}) containment k={a} in k={b}")
        if len(ks) > 1:
            conns = [algebraic_connectivity(per_k[k]) for k in ks]
            check(max(conns) - min(conns) <= tol,
                  f"(n={n}) algebraic connectivity across k")
        print(f"n={n}: checked k=1..{n // 2}"
              + ("" if not failures else f" ({len(failures)} failures so far)"))
    return failures, checks, spectra


def cmd_verify(args) -> int:
    failures, checks, spectra = run_verification(args.n_max, args.tol)
    print(f"{checks} checks, {spectra} spectra compared")
    if failures:
        print(f"FAILED: {failures[0]}" +
              (f" (and {len(failures) - 1} more)" if len(failures) > 1 else ""),
              file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


def _checked(convert, ok, what: str):
    """An argparse ``type``: ``convert`` the text, then require ``ok`` of the value."""
    def parse(text: str):
        if not ok(value := convert(text)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    parse.__name__ = convert.__name__  # argparse: "invalid int value" on bad text
    return parse


def build_parser() -> argparse.ArgumentParser:
    count = _checked(int, lambda v: v >= 0, "an integer >= 0")
    tolerance = _checked(float, lambda v: 0 <= v < float("inf"), "a finite number >= 0")
    finite = _checked(float, lambda v: abs(v) < float("inf"), "a finite number")
    verify_length = _checked(int, lambda v: 3 <= v <= VERIFY_N_MAX,
                             f"an integer in [3, {VERIFY_N_MAX}]")
    parser = argparse.ArgumentParser(
        prog="tokenspectra",
        description="Laplacian spectra of k-token graphs of cycles")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "csv", "json"), need_k=True):
        p.add_argument("--n", type=int, required=True, help="cycle length")
        if need_k:
            p.add_argument("--k", type=int, required=True, help="token count")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", help="write output to this path")

    p = sub.add_parser("orbits", help="rotation orbits and the three counts")
    common(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("matrix", help="render the orbit polynomial matrix")
    common(p, ("text", "csv", "json", "latex"))
    p.add_argument("--exponents", choices=["canonical", "balanced"],
                   default="canonical",
                   help="canonical keeps exponents in [0,n); balanced shows "
                        "exponents above n/2 as negative powers")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("spectrum", help="compute the Laplacian spectrum")
    common(p, ("text", "csv", "json", "latex"))
    p.add_argument("--r", type=int, help="restrict output to one sector")
    p.add_argument("--method", choices=["brute", "overlift", "contfrac"],
                   default="overlift")
    p.add_argument("--audit", action="store_true",
                   help="per-sector table with discarded values marked *")
    p.add_argument("--check-against", choices=["brute", "overlift", "contfrac"],
                   help="exit 1 unless this method agrees within --tol")
    p.add_argument("--tol", type=tolerance,
                   help=f"agreement tolerance for --check-against (default {AGREE_TOL:g})")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("charpoly", help="two-token sector polynomial (k=2)")
    common(p, need_k=False)
    p.add_argument("--r", type=int, required=True, help="sector index")
    p.add_argument("--samples", type=count, default=0,
                   help="also emit this many (lambda, phi) samples")
    p.add_argument("--lo", type=finite, help="sample range start (default 0)")
    p.add_argument("--hi", type=finite, default=None,
                   help="sample range end (default: past the largest root)")
    p.set_defaults(func=cmd_charpoly)

    p = sub.add_parser("verify", help="cross-method verification sweep")
    p.add_argument("--n-max", type=verify_length, default=12)
    p.add_argument("--tol", type=tolerance, default=AGREE_TOL)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParameterDomainError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # only output is written; a failed print to stdout has no filename
        print(f"error: cannot write {exc.filename or 'stdout'}: {exc.strerror}",
              file=sys.stderr)
        return 2
    except (NumericFailureError, CountMismatchError, PoleError,
            PhaseConsistencyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
