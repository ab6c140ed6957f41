"""Command-line front end.

Four subcommands::

    modcurve subgroups N               list the subgroups Delta of (Z/NZ)*
    modcurve curve N --delta SEL       classify one curve X_Delta(N)
    modcurve fixed-points N d          fixed points of W_d on X_0(N),
                                       optionally lifted with --delta
    modcurve census                    classify every curve in scope

Output formats: human-readable text (default), deterministic JSON
(``--format json``), and, for the census, CSV (``--format csv``).  JSON
output is wrapped in an envelope carrying the echoed command line, the
package version, the results payload, and any warnings; it is byte-identical
across runs for fixed inputs and version.

Curated-fact usage is controlled by ``--facts on|off``.  Exit codes:
0 success, 2 invalid input, 3 internal invariant breach.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Any

from . import __version__
from .atkinlehner import descends, hat_W, normalizes
from .classify import (
    ClassificationRecord,
    Classifier,
    Witness,
    curve_name,
    lift_fixed_points,
)
from .errors import InputError, InvariantError
from .facts import FactBook
from .qforms import FixedPointSet, fixed_points_X0
from .zmodn import (
    DeltaSubgroup,
    delta_by_label,
    delta_from_elements,
    subgroups_containing_minus1,
)

#: CSV column set for the census (stable public contract).
CSV_COLUMNS = (
    "N",
    "delta_label",
    "delta_elements",
    "genus",
    "status",
    "witnesses",
    "evidence_tags",
    "quadratic_points",
)

_SUBSCRIPTS = str.maketrans("0123456789", "₀₁₂₃₄"
                            "₅₆₇₈₉")


# --------------------------------------------------------------------------
# rendering helpers


def _pretty_label(label: str) -> str:
    """Human form of a subgroup label: D3 -> Δ₃; 1 -> ±1; 0 -> full."""
    if label == "1":
        return "±1"
    if label == "0":
        return "full"
    return "Δ" + label[1:].translate(_SUBSCRIPTS)


def _pretty_name(N: int, label: str) -> str:
    """Human form of a curve name: X_{Δ₃}(37), X_0(37), X_1(37)."""
    if label in ("0", "1"):
        return curve_name(N, label)
    return f"X_{{{_pretty_label(label)}}}({N})"


def _pm_set(delta: DeltaSubgroup) -> str:
    """Residue set rendered as ±{a,b,...} using the smaller of a, N-a."""
    reps = sorted({min(a, delta.N - a) for a in delta.elements})
    return "±{" + ",".join(str(a) for a in reps) + "}"


def _witness_text(w: Witness) -> str:
    return (f"{w.name} = {w.matrix}  "
            f"({w.fixed_elliptic} elliptic + {w.fixed_cuspidal} cuspidal)")


def _witness_dict(w: Witness) -> dict[str, Any]:
    a, b, c, d = w.matrix.entries()
    return {
        "name": w.name,
        "matrix": [[a, b], [c, d]],
        "kind": w.kind,
        "fixed_elliptic": w.fixed_elliptic,
        "fixed_cuspidal": w.fixed_cuspidal,
    }


def _record_dict(r: ClassificationRecord) -> dict[str, Any]:
    return {
        "N": r.N,
        "delta_label": r.delta_label,
        "delta_elements": list(r.delta_elements),
        "name": r.name,
        "genus": r.genus,
        "status": r.status,
        "is_bielliptic": r.is_bielliptic,
        "witnesses": [_witness_dict(w) for w in r.witnesses],
        "hyperelliptic_witnesses": [_witness_dict(w) for w in r.hyperelliptic_witnesses],
        "evidence": [
            {
                "rule": e.rule,
                "detail": e.detail,
                "target": list(e.target) if e.target is not None else None,
                "degree": e.degree,
                "facts_used": list(e.facts_used),
            }
            for e in r.evidence
        ],
        "facts_used": list(r.facts_used),
        "quadratic_points": r.quadratic_points,
        "warnings": list(r.warnings),
    }


def _record_text(r: ClassificationRecord, verbose: bool = True) -> list[str]:
    delta = delta_from_elements(r.N, r.delta_elements)
    lines = [
        f"{_pretty_name(r.N, r.delta_label)}   N={r.N}   "
        f"Δ = {_pm_set(delta)}   (order {len(r.delta_elements)})",
        f"  genus:  {r.genus}",
        f"  status: {r.status}"
        + ("  (also bielliptic)" if r.is_bielliptic and r.status == "hyperelliptic" else ""),
        f"  quadratic points: {r.quadratic_points}",
    ]
    if r.witnesses:
        lines.append(f"  bielliptic witnesses (2g-2 = {2 * r.genus - 2} fixed points):")
        lines.extend(f"    {_witness_text(w)}" for w in r.witnesses)
    if r.hyperelliptic_witnesses:
        lines.append(
            f"  hyperelliptic witnesses (2g+2 = {2 * r.genus + 2} fixed points):")
        lines.extend(f"    {_witness_text(w)}" for w in r.hyperelliptic_witnesses)
    if verbose and r.evidence:
        lines.append("  evidence:")
        lines.extend(f"    - {e.rule}: {e.detail}" for e in r.evidence)
    if verbose and r.facts_used:
        lines.append("  facts used: " + ", ".join(r.facts_used))
    for w in r.warnings:
        lines.append(f"  warning: {w}")
    return lines


def _census_row_text(r: ClassificationRecord) -> str:
    witness_names = ",".join(w.name for w in r.witnesses) or "-"
    return (f"{_pretty_name(r.N, r.delta_label):<16} {r.genus:>3}  "
            f"{r.status:<16} {r.quadratic_points:<18} {witness_names}")


def _census_row_csv(r: ClassificationRecord) -> dict[str, Any]:
    return {
        "N": r.N,
        "delta_label": r.delta_label,
        "delta_elements": " ".join(str(a) for a in r.delta_elements),
        "genus": r.genus,
        "status": r.status,
        "witnesses": "; ".join(f"{w.name}={w.matrix}" for w in r.witnesses),
        "evidence_tags": ";".join(sorted({e.rule for e in r.evidence})),
        "quadratic_points": r.quadratic_points,
    }


def _envelope(command: list[str], results: Any, warnings: list[str]) -> dict[str, Any]:
    return {
        "command": " ".join(command),
        "version": __version__,
        "results": results,
        "warnings": warnings,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload: dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _factbook(setting: str) -> FactBook:
    """Fact book honouring --facts."""
    return FactBook(enabled=(setting == "on"))


def _resolve_delta(N: int, selector: str) -> DeltaSubgroup:
    """A --delta selector is either a label (D2, 0, 1) or an element list."""
    if "," in selector:
        elements = [int(part) for part in selector.split(",") if part.strip()]
        return delta_from_elements(N, elements)
    return delta_by_label(N, selector)


# --------------------------------------------------------------------------
# subcommands


def _cmd_subgroups(args: argparse.Namespace, argv: list[str]) -> str:
    subs = subgroups_containing_minus1(args.N)
    if args.format == "json":
        results = {
            "N": args.N,
            "subgroups": [
                {"label": s.label, "order": s.order, "elements": list(s.elements)}
                for s in subs
            ],
        }
        return _json_text(_envelope(argv, results, []))
    lines = [f"subgroups of (Z/{args.N}Z)* containing -1:"]
    for s in subs:
        lines.append(f"  {_pretty_label(s.label):<8} order {s.order:>3}   {_pm_set(s)}")
    n_inter = sum(1 for s in subs if not s.is_minimal and not s.is_full)
    lines.append(f"{n_inter} intermediate subgroup(s)")
    return "\n".join(lines) + "\n"


def _cmd_curve(args: argparse.Namespace, argv: list[str]) -> str:
    delta = _resolve_delta(args.N, args.delta)
    clf = Classifier(_factbook(args.facts))
    record = clf.classify(args.N, delta)
    if args.format == "json":
        return _json_text(_envelope(argv, _record_dict(record), list(record.warnings)))
    return "\n".join(_record_text(record)) + "\n"


def _lift_payload(N: int, delta: DeltaSubgroup, base: FixedPointSet) -> dict[str, Any]:
    d = base.d
    if not descends(d, delta):
        raise InputError(
            f"W_{d} does not act on {curve_name(N, delta.label)}: "
            f"its operator does not normalize the congruence subgroup"
        )
    hat = hat_W(d, delta)
    if base.points:
        ref = base.points[0].matrix
        name = f"(first fixed-point element above W_{d})"
    elif hat is not None:
        ref = hat.matrix
        name = hat.name
    else:  # pragma: no cover - descends() guarantees a hat lift exists
        raise InputError(f"no candidate above W_{d} on {curve_name(N, delta.label)}")
    if not normalizes(ref, delta):
        raise InputError(
            f"candidate {ref} above W_{d} does not normalize the subgroup"
        )
    report = lift_fixed_points(N, delta, ref, base)
    a, b, c, dd = ref.entries()
    return {
        "curve": curve_name(N, delta.label),
        "candidate": name,
        "candidate_matrix": [[a, b], [c, dd]],
        "base_count": report.base_count,
        "fixed_elliptic": report.fixed_elliptic,
        "fixed_cuspidal": report.fixed_cuspidal,
        "a_classes": [w[2] for w in report.witnesses],
        "fibres": [list(w) for w in report.witnesses],
    }


def _cmd_fixed_points(args: argparse.Namespace, argv: list[str]) -> str:
    base = fixed_points_X0(args.N, args.d)
    results: dict[str, Any] = {
        "N": args.N,
        "d": args.d,
        "count": base.count,
        "points": [
            {
                "form": [p.form.p, p.form.q, p.form.r],
                "matrix": [[p.matrix.a, p.matrix.b], [p.matrix.c, p.matrix.d]],
                "disc": p.disc,
                "content": p.ell,
            }
            for p in base.points
        ],
    }
    delta = _resolve_delta(args.N, args.delta) if args.delta is not None else None
    if delta is not None:
        results["lift"] = _lift_payload(args.N, delta, base)
    if args.format == "json":
        return _json_text(_envelope(argv, results, []))

    lines = [f"fixed points of W_{args.d} on X_0({args.N}): {base.count}"]
    for p in base.points:
        lines.append(
            f"  form [{p.form.p},{p.form.q},{p.form.r}]   matrix {p.matrix}   "
            f"disc {p.disc}   content {p.ell}"
        )
    if not base.points:
        lines.append("  (empty set)")
    if delta is not None:
        lift = results["lift"]
        lines.append(
            f"lift to {_pretty_name(args.N, delta.label)} via {lift['candidate']}: "
            f"{lift['fixed_elliptic']} elliptic + {lift['fixed_cuspidal']} cuspidal "
            f"fixed points above {lift['base_count']} base point(s)"
        )
        if lift["a_classes"]:
            lines.append(
                "  witness classes (upper-left mod N, signed): "
                + ", ".join(str(x) for x in lift["a_classes"])
            )
        for j, rep, cls in lift["fibres"]:
            lines.append(f"    z_{j}: fibre rep [{rep}], class {cls}")
    return "\n".join(lines) + "\n"


def _cmd_census(args: argparse.Namespace, argv: list[str]) -> str:
    book = _factbook(args.facts)
    clf = Classifier(book)
    records = clf.census(args.max_n)
    warnings: list[str] = []
    if not book.enabled:
        warnings.append(
            "curated facts disabled: fact-dependent verdicts are undecided; "
            "the survey scope itself rests on the curated X_0(N) classification"
        )
    if args.format == "json":
        results = {
            "max_n": args.max_n,
            "facts": "on" if book.enabled else "off",
            "count": len(records),
            "records": [_record_dict(r) for r in records],
        }
        return _json_text(_envelope(argv, results, warnings))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(CSV_COLUMNS), lineterminator="\n")
        writer.writeheader()
        for r in records:
            writer.writerow(_census_row_csv(r))
        return buf.getvalue()

    lines = [
        f"census of intermediate curves, N <= {args.max_n} "
        f"(facts {'on' if book.enabled else 'off'}): {len(records)} curves",
        f"{'curve':<16} {'g':>3}  {'status':<16} {'quadratic points':<18} witnesses",
    ]
    lines.extend(_census_row_text(r) for r in records)
    counts: dict[str, int] = {}
    for r in records:
        counts[r.status] = counts.get(r.status, 0) + 1
    bielliptic_total = sum(1 for r in records if r.is_bielliptic)
    summary = ", ".join(f"{k}: {v}" for k, v in sorted(counts.items()))
    lines.append(f"status counts: {summary}")
    lines.append(f"curves with a bielliptic involution: {bielliptic_total}")
    lines.extend(f"warning: {w}" for w in warnings)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# argument parsing and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcurve",
        description="Invariants and bielliptic census of intermediate modular curves.",
    )
    parser.add_argument("--version", action="version", version=f"modcurve {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default="text",
                       help="output format (default: text)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write output to PATH instead of stdout")

    p = sub.add_parser("subgroups", help="list subgroups of (Z/NZ)* containing -1")
    p.add_argument("N", type=int)
    add_common(p, ("text", "json"))

    p = sub.add_parser("curve", help="classify one curve X_Delta(N)")
    p.add_argument("N", type=int)
    p.add_argument("--delta", required=True, metavar="SEL",
                   help="subgroup label (D2, 1, 0) or comma-separated elements")
    p.add_argument("--facts", choices=("on", "off"), default="on",
                   help="use curated literature facts (default on)")
    add_common(p, ("text", "json"))

    p = sub.add_parser("fixed-points",
                       help="fixed points of W_d on X_0(N), optionally lifted")
    p.add_argument("N", type=int)
    p.add_argument("d", type=int)
    p.add_argument("--delta", default=None, metavar="SEL",
                   help="also lift to X_Delta(N) for this subgroup")
    add_common(p, ("text", "json"))

    p = sub.add_parser("census", help="classify every intermediate curve in scope")
    p.add_argument("--max-n", type=int, default=131, dest="max_n")
    p.add_argument("--facts", choices=("on", "off"), default="on",
                   help="use curated literature facts (default on)")
    add_common(p, ("text", "json", "csv"))

    return parser


_DISPATCH = {
    "subgroups": _cmd_subgroups,
    "curve": _cmd_curve,
    "fixed-points": _cmd_fixed_points,
    "census": _cmd_census,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _DISPATCH[args.command](args, argv)
        _emit(text, args.out)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant breach: {exc!r}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
