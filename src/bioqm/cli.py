"""Command line front end for the exact finite-field quantum reports.

Each subcommand rebuilds one report through the library and renders it as
markdown (table layouts), JSON (sorted keys, fractions as numerator and
denominator pairs) or CSV.  Each report kind has one layout, registered in
``LAYOUTS``, that gives both its markdown lines and its CSV rows.  Identical
invocations produce identical bytes.
Exit codes: 0 success, 2 bad usage or parameters, 1 internal failure.
"""

from __future__ import annotations

import argparse
import io
import sys
from fractions import Fraction
from functools import lru_cache

from . import acceptance
from .gf import FieldConfig, asdict, verify_phi_uniqueness
from .biortho import named_states, require_axes, spin_axes, spin_observable, table_report
from .entangle import census, chsh, chsh_bound, chsh_scan, representative_states
from .groups import (
    burnside_count,
    conjugacy_classes,
    conjugate_observable,
    element_orders,
    entangled_labels,
    enumerate_group,
    orbits,
    state_rows,
    verify_isomorphism,
)
from .inference import (
    correspondence_check,
    hv_feasibility,
    infer_probabilities,
    pair_measurement_system,
    single_measurement_system,
    state_correlator_constraints,
    state_marginal_constraints,
    table4_report,
)

# -- serialization helpers ------------------------------------------------------------


def _field_info(config: FieldConfig) -> dict:
    return {"p": config.p, "degree": config.degree, "order": config.order}


def _jsonify(value):
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def _md_table(header: list, rows: list[list]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(x) for x in row) + " |" for row in rows]
    return "\n".join(lines)


def _csv_text(rows: list[list]) -> str:
    import csv  # imported here, so a run in another format never loads it

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow([str(x) for x in row])
    return buffer.getvalue()


# -- report builders ------------------------------------------------------------------


def build_tables(config: FieldConfig) -> dict:
    report = table_report(config)
    rows = []
    for row in report.rows:
        cells = [{"axis": axis, **asdict(m)} for axis, m in zip(report.axes, row.cells)]
        rows.append({"state": row.label, "cells": cells})
    return {
        "kind": "tables",
        "field": _field_info(config),
        "axes": list(report.axes),
        "rows": rows,
    }


def build_census(config: FieldConfig) -> dict:
    return {
        "kind": "census",
        "field": _field_info(config),
        "counts": census(config).counts(),
    }


def _pair_state(config: FieldConfig, label: str):
    reps = representative_states(config)
    if label not in reps:
        raise ValueError(
            f"unknown two-particle state {label!r}; choose from {', '.join(sorted(reps))}"
        )
    return reps[label]


def _parse_axes(config: FieldConfig, text: str, count: int) -> tuple[int, ...]:
    if len(text) != count or not text.isdigit():
        raise ValueError(f"expected {count} axis digits, got {text!r}")
    axes = tuple(int(c) for c in text)
    require_axes(config, axes)
    return axes


def build_chsh_value(config: FieldConfig, label: str, axes_text: str) -> dict:
    state = _pair_state(config, label)
    A, a, B, b = _parse_axes(config, axes_text, 4)
    record = chsh(state, A, a, B, b, label=label)
    return {"kind": "chsh_value", "field": _field_info(config), **asdict(record)}


def build_chsh_scan(config: FieldConfig, label: str | None) -> dict:
    reps = representative_states(config)
    labels = [label] if label else sorted(reps)
    rows = [{"state": name, "histogram": chsh_scan(_pair_state(config, name))} for name in labels]
    return {"kind": "chsh_scan", "field": _field_info(config), "rows": rows}


def build_chsh_bound(config: FieldConfig) -> dict:
    return {"kind": "chsh_bound", "field": _field_info(config), **asdict(chsh_bound(config))}


def build_groups(config: FieldConfig, classes_only: bool, iso_only: bool) -> dict:
    everything = not classes_only and not iso_only
    if everything and config.p != 3:
        # past p = 3 the group moves spin observables off the signed spin set
        raise ValueError(
            f"the full groups report needs GF(3) or GF(9), got GF({config.order}); "
            "pass --classes or --iso, which leave out the spin-axis action"
        )
    group = enumerate_group(config)
    payload: dict = {"kind": "groups", "field": _field_info(config), "order": group.order}
    if everything:
        orders = dict(zip(group.elements, element_orders(group)))
        elements = []
        for label in sorted(group.by_label):
            g = group.by_label[label]
            action = []
            for axis in spin_axes(config):
                conj = conjugate_observable(g, spin_observable(config, axis))
                action.append({"axis": axis, "image": conj.axis, "sign": conj.sign})
            elements.append(
                {
                    "label": g.label,
                    "sign": g.sign,
                    "order": orders[g],
                    "matrix": [[str(x) for x in row] for row in g.matrix],
                    "axis_action": action,
                }
            )
        payload["elements"] = elements
    if everything or classes_only:
        payload["classes"] = [
            sorted(e.label for e in cls) for cls in conjugacy_classes(group)
        ]
    if everything or iso_only:
        payload["isomorphism"] = asdict(verify_isomorphism(group))
    return payload


def _named_pair_states(config: FieldConfig) -> dict:
    """Label by ``two_particle_codes`` row, the form of ``Orbit.members``."""
    named = dict(representative_states(config))
    if config.order == 3:
        named.update(entangled_labels(config))
    return dict(zip(state_rows(config, named.values()), named))


def build_orbits(config: FieldConfig, mode: str, min_size: int) -> dict:
    found = orbits(config, mode)
    names = _named_pair_states(config)
    rows = []
    for orbit in sorted(found, key=lambda o: (o.size, str(o.representative.state.rep))):
        named = sorted({names[row] for row in orbit.members if row in names})
        rows.append(
            {
                "representative": str(orbit.representative.state.rep),
                "size": orbit.size,
                "stabilizer_order": orbit.stabilizer_order,
                "named_members": named,
            }
        )
    acting = found[0].acting_order if found else 0
    listed = [row for row in rows if row["size"] >= min_size]
    return {
        "kind": "orbits",
        "field": _field_info(config),
        "mode": mode,
        "acting_order": acting,
        "total_orbits": len(rows),
        "burnside": burnside_count(config, mode),
        "orbits": listed,
    }


def _certificate_payload(multipliers, rows) -> dict | None:
    return None if multipliers is None else {"multipliers": multipliers, "rows": rows}


def build_infer(config: FieldConfig, label: str, observable: str | None, marginals: bool) -> dict:
    reps = representative_states(config)
    singles = named_states(config)
    if label in reps:
        i, j = _parse_axes(config, observable or "33", 2)
        system = pair_measurement_system(reps[label], i, j, include_marginals=marginals)
        axes = [i, j]
    elif label in singles:
        if marginals:
            raise ValueError("--marginals applies only to two-particle states")
        (axis,) = _parse_axes(config, observable or "3", 1)
        system = single_measurement_system(config, label, axis)
        axes = [axis]
    else:
        options = ", ".join(sorted(reps) + sorted(singles))
        raise ValueError(f"unknown state {label!r}; choose from {options}")
    result = asdict(infer_probabilities(system))
    certificate = _certificate_payload(result.pop("certificate"), result.pop("certificate_rows"))
    return {"kind": "infer", "field": _field_info(config), "state": label, "axes": axes,
            "marginals": marginals, **result, "certificate": certificate}


def build_mimic(config: FieldConfig, label: str, axes_text: str, marginals: bool) -> dict:
    state = _pair_state(config, label)
    axes = _parse_axes(config, axes_text, len(axes_text))
    if len(axes) < 2 or len(set(axes)) != len(axes):
        raise ValueError("mimic needs at least two distinct axes")
    constraints = state_correlator_constraints(state, axes)
    extra = state_marginal_constraints(state, axes) if marginals else ()
    report = hv_feasibility(constraints, axes, extra)
    result = report.result
    payload = {
        "kind": "mimic",
        "field": _field_info(config),
        "state": label,
        "axes": list(axes),
        "marginals": marginals,
        "status": result.status,
        "feasible": report.feasible,
        "outcomes": list(report.outcomes),
        "constraints": [
            {"label": c.label, "rhs": c.rhs} for c in report.system.constraints
        ],
        "witness": None,
        "certificate": _certificate_payload(result.certificate, result.certificate_rows),
    }
    if result.witness is not None:
        payload["witness"] = {
            outcome: mass
            for outcome, mass in zip(report.outcomes, result.witness)
            if mass != 0
        }
    return payload


def build_table4() -> dict:
    rows = [asdict(row) for row in table4_report()]
    return {"kind": "canonical_table4", "outcomes": ["++", "+-", "-+", "--"], "rows": rows}


def build_correspondence(config: FieldConfig) -> dict:
    report = correspondence_check(config)
    return {"kind": "correspondence", "field": _field_info(config), **asdict(report)}


def build_verify_phi(p: int) -> dict:
    return {"kind": "verify_phi", **asdict(verify_phi_uniqueness(p))}


# -- layouts: one per report kind, giving its markdown lines and its CSV rows ---------

Layout = tuple[list[str], list[list]]


def _digits(axes: list[int]) -> str:
    return "".join(str(a) for a in axes)


def _flag(value: bool) -> str:
    return str(value).lower()


def _key_values(source: dict, keys: tuple[str, ...], **shown) -> list[list]:
    """CSV rows ``key,value`` for ``keys`` of ``source``; ``shown`` overrides a value."""
    values = {**source, **shown}
    return [["key", "value"]] + [[key, values[key]] for key in keys]


def _certificate_layout(payload: dict) -> Layout:
    """The Farkas certificate, one "multiplier x row" entry per constraint."""
    certificate = payload["certificate"]
    if certificate is None:
        return [], []
    entries = [f"{m} x {row}" for m, row in zip(certificate["multipliers"], certificate["rows"])]
    markdown = ["infeasibility certificate:"] + [f"  {entry}" for entry in entries]
    return markdown, [["certificate", entry] for entry in entries]


def _table(header: list[str], rows: list[list]) -> Layout:
    """A report that is one table, alike in markdown and CSV."""
    return [_md_table(header, rows)], [header, *rows]


def _tables(payload: dict) -> Layout:
    header = ["state"]
    for axis in payload["axes"]:
        header += [f"σ{axis}", f"Δσ{axis}"]
    md_rows, rows = [], [["state", "axis", "expectation", "variance"]]
    for row in payload["rows"]:
        cells = [row["state"]]
        for cell in row["cells"]:
            cells += [cell["expectation"], cell["variance"]]
            rows.append([row["state"], cell["axis"], cell["expectation"], cell["variance"]])
        md_rows.append(cells)
    return [_md_table(header, md_rows)], rows


def _census(payload: dict) -> Layout:
    return _table(["quantity", "count"], list(payload["counts"].items()))


def _chsh_value(payload: dict) -> Layout:
    axes = _digits(payload["axes"])
    pairs = list(payload["correlators"].items())
    markdown = [f"C_{axes}({payload['state']}) = {payload['value']}", "",
                _md_table(["pair", "E"], pairs)]
    rows = _key_values(payload, ("state", "axes", "value"), axes=axes)
    return markdown, rows + [[f"E({pair})", value] for pair, value in pairs]


def _chsh_scan(payload: dict) -> Layout:
    rows = [[row["state"], *(row["histogram"][k] for k in range(5))] for row in payload["rows"]]
    return _table(["state", *map(str, range(5))], rows)


def _chsh_bound(payload: dict) -> Layout:
    keys = ("bound", "states_scanned", "quadruples_per_state")
    return [str(payload["bound"])], _key_values(payload, keys)


def _groups(payload: dict) -> Layout:
    iso, classes = payload.get("isomorphism"), payload.get("classes")
    elements = payload.get("elements")
    if iso:
        flag = "verified" if iso["verified"] else "unverified"
        markdown = [f"order {payload['order']} ({iso['name']}, {flag})"]
    else:
        markdown = [f"order {payload['order']}"]
    if classes:
        markdown.append("class sizes: " + ", ".join(str(len(c)) for c in classes))
        markdown += ["  class: " + " ".join(cls) for cls in classes]
    if elements:
        axes = [entry["axis"] for entry in elements[0]["axis_action"]]
        md_rows, rows = [], [["label", "sign", "order", "m00", "m01", "m10", "m11"]]
        for element in elements:
            (m00, m01), (m10, m11) = element["matrix"]
            sign = "+" if element["sign"] > 0 else "-"
            action = [("+" if entry["sign"] > 0 else "-") + f"σ{entry['image']}"
                      for entry in element["axis_action"]]
            md_rows.append([element["label"], sign, element["order"],
                            f"[[{m00}, {m01}], [{m10}, {m11}]]", *action])
            rows.append([element["label"], element["sign"], element["order"],
                         m00, m01, m10, m11])
        header = ["label", "sign", "order", "matrix"] + [f"σ{a}" for a in axes]
        return markdown + ["", _md_table(header, md_rows)], rows
    # the CSV carries one section: the classes when asked for, else the identification
    if classes:
        return markdown, [["class", "label"]] + [
            [index, label] for index, cls in enumerate(classes) for label in cls
        ]
    sizes = " ".join(str(s) for s in iso["class_sizes"])
    keys = ("order", "name", "verified", "abelian", "class_sizes")
    return markdown, _key_values(iso, keys, class_sizes=sizes)


def _orbits(payload: dict) -> Layout:
    markdown = [
        f"{payload['mode']} action over GF({payload['field']['order']}): "
        f"{payload['total_orbits']} orbits, acting order {payload['acting_order']}, "
        f"Burnside count {payload['burnside']}",
        "",
    ]
    md_rows, rows = [], [["representative", "size", "stabilizer_order", "named_members"]]
    for row in payload["orbits"]:
        cells = [row["representative"], row["size"], row["stabilizer_order"],
                 " ".join(row["named_members"])]
        rows.append(cells)
        md_rows.append(cells[:3] + [cells[3] or "-"])
    header = ["representative", "size", "stabilizer", "named members"]
    markdown.append(_md_table(header, md_rows) if md_rows else "(no orbits listed)")
    return markdown, rows


def _infer(payload: dict) -> Layout:
    md_certificate, csv_certificate = _certificate_layout(payload)
    markdown = [
        f"state {payload['state']}, observable axes {_digits(payload['axes'])}, "
        f"over GF({payload['field']['order']})",
        f"status: {payload['status']} (rank {payload['rank']})",
    ]
    rows = _key_values(payload, ("state", "status", "rank"))
    identities = [ident["text"] for ident in payload["identities"]]
    if identities:
        markdown += ["identities:"] + [f"  {text}" for text in identities]
    rows += [["identity", text] for text in identities]
    if payload["forced_zero"]:
        markdown.append("forced zero: " + ", ".join(payload["forced_zero"]))
        rows.append(["forced_zero", " ".join(payload["forced_zero"])])
    outcomes, ranges = payload["outcomes"], payload["ranges"]
    if payload["status"] == "unique":
        markdown.append("solution:")
        markdown += [f"  P({o}) = {v}" for o, v in zip(outcomes, payload["solution"])]
    elif payload["status"] == "indeterminate":
        markdown.append("ranges:")
        markdown += [f"  P({o}) in [{lo}, {hi}]" for o, (lo, hi) in zip(outcomes, ranges)]
    else:
        markdown += md_certificate
    if ranges is not None:
        rows += [[f"range P({o})", f"[{lo}, {hi}]"] for o, (lo, hi) in zip(outcomes, ranges)]
    return markdown, rows + csv_certificate


def _mimic(payload: dict) -> Layout:
    md_certificate, csv_certificate = _certificate_layout(payload)
    markdown = [
        f"deterministic hidden-variable model for {payload['state']} "
        f"over GF({payload['field']['order']}), axes {', '.join(map(str, payload['axes']))}",
        f"status: {payload['status']}",
    ]
    rows = _key_values(payload, ("state", "status"))
    witness = sorted((payload["witness"] or {}).items())
    if witness:
        markdown.append("witness assignment probabilities:")
        markdown += [f"  P({outcome}) = {mass}" for outcome, mass in witness]
        rows += [[f"P({outcome})", mass] for outcome, mass in witness]
    return markdown + md_certificate, rows + csv_certificate


def _table4(payload: dict) -> Layout:
    rows = [[row["state"], *row["probabilities"], row["expectation"]] for row in payload["rows"]]
    header = ["state", *payload["outcomes"]]
    return [_md_table(header + ["E.V."], rows)], [header + ["expectation"], *rows]


def _correspondence(payload: dict) -> Layout:
    header = ["state", "axes", "bracket", "sign", "canonical", "matched"]
    rows = [[e["state"], _digits(e["axes"]), e["galois"], e["sign"], e["canonical"], e["matched"]]
            for e in payload["entries"]]
    md_rows = [row[:-1] + [_flag(row[-1])] for row in rows]
    markdown = [f"all entries consistent: {_flag(payload['ok'])}", "", _md_table(header, md_rows)]
    return markdown, [header, *rows]


def _verify_phi(payload: dict) -> Layout:
    kernel = [str(k) for k in payload["kernel"]]
    keys = ("p", "unique", "method", "candidates_checked", "qualifying_count", "kernel",
            "matches_phi_map", "generator_independent")
    markdown = [
        f"unique: {_flag(payload['unique'])}",
        f"p: {payload['p']}",
        f"method: {payload['method']}",
        f"candidates checked: {payload['candidates_checked']}",
        f"qualifying maps: {payload['qualifying_count']}",
        f"kernel: {', '.join(kernel)}",
        f"matches reference map: {_flag(payload['matches_phi_map'])}",
        f"generator independent: {_flag(payload['generator_independent'])}",
    ]
    return markdown, _key_values(payload, keys, kernel=" ".join(kernel))


LAYOUTS = {
    "tables": _tables,
    "census": _census,
    "chsh_value": _chsh_value,
    "chsh_scan": _chsh_scan,
    "chsh_bound": _chsh_bound,
    "groups": _groups,
    "orbits": _orbits,
    "infer": _infer,
    "mimic": _mimic,
    "canonical_table4": _table4,
    "correspondence": _correspondence,
    "verify_phi": _verify_phi,
}


def _render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        import json  # imported here, so a run in another format never loads it

        return json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"
    markdown, rows = LAYOUTS[payload["kind"]](payload)
    return _csv_text(rows) if fmt == "csv" else "\n".join(markdown) + "\n"


# -- argument parsing and dispatch ------------------------------------------------


def _shared_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--p", type=int, default=default,
                        help="field characteristic, a prime with p %% 4 == 3 (default 3)")
    parser.add_argument("--degree", type=int, choices=(1, 2), default=default,
                        help="1 for GF(p), 2 for GF(p^2) (default 2)")
    parser.add_argument("--format", choices=("markdown", "json", "csv"), default=default,
                        help="output format (default markdown)")
    parser.add_argument("--output", default=default,
                        help="write the report to this path instead of standard output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bioqm",
        description="Exact reports for spin models over GF(p) and GF(p^2).",
    )
    _shared_options(parser, suppress=False)
    parser.add_argument("--seed-check", action="store_true",
                        help="run every reproduction criterion and print pass/fail lines")
    sub = parser.add_subparsers(dest="command")

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _shared_options(p, suppress=True)
        return p

    command("tables", "expectation and variance of every spin observable per state")
    command("census", "two-particle state counts: product/entangled, physical/self-orthogonal")

    chsh_p = command("chsh", "CHSH correlator combinations")
    chsh_p.add_argument("--state", default=None, help="named two-particle state (S, T or U)")
    chsh_p.add_argument("--axes", default="1331", help="four axis digits A a B b (default 1331)")
    how = chsh_p.add_mutually_exclusive_group()
    how.add_argument("--scan", action="store_true",
                     help="histogram of |CHSH| over all axis quadruples")
    how.add_argument("--bound", action="store_true",
                     help="maximum |CHSH| over every physical two-particle state")

    groups_p = command("groups", "symmetry group elements, classes and identification")
    groups_p.add_argument("--classes", action="store_true", help="only conjugacy classes")
    groups_p.add_argument("--iso", action="store_true", help="only the identification summary")

    orbits_p = command("orbits", "orbit decomposition of entangled physical states")
    orbits_p.add_argument("--mode", choices=("global", "local"), default="local",
                          help="same transform on both sides, or independent sides")
    orbits_p.add_argument("--min-size", type=int, default=0,
                          help="list only orbits at least this large")

    infer_p = command("infer", "what measured expectations say about outcome probabilities")
    infer_p.add_argument("--state", required=True, help="a..f or S/T/U")
    infer_p.add_argument("--observable", default=None,
                         help="axis digits: one for single states (default 3), "
                              "two for pairs (default 33)")
    infer_p.add_argument("--marginals", action="store_true",
                         help="also constrain by the two single-side expectations")

    mimic_p = command("mimic", "deterministic hidden-variable feasibility for a state")
    mimic_p.add_argument("--state", required=True, help="named two-particle state (S, T or U)")
    mimic_p.add_argument("--axes", default="13", help="axis digits to constrain (default 13)")
    mimic_p.add_argument("--marginals", action="store_true",
                         help="also constrain single-side expectations")

    canonical_p = command("canonical", "reference results from ordinary quantum mechanics")
    which = canonical_p.add_mutually_exclusive_group()
    which.add_argument("--table4", action="store_true",
                       help="outcome probabilities for the named pair states (default)")
    which.add_argument("--correspondence", action="store_true",
                       help="match field brackets against canonical correlators")

    command("verify-phi", "uniqueness check for the product-preserving sign map")
    return parser


def _field(ns: argparse.Namespace) -> FieldConfig:
    return FieldConfig(ns.p, ns.degree)


def _build_chsh(ns: argparse.Namespace) -> dict:
    config = _field(ns)
    if ns.bound:
        return build_chsh_bound(config)
    if ns.scan:
        return build_chsh_scan(config, ns.state)
    if ns.state:
        return build_chsh_value(config, ns.state, ns.axes)
    raise ValueError("chsh needs --state, --scan or --bound")


# subcommand -> report builder; only the commands that report on a field build one
_BUILDERS = {
    "tables": lambda ns: build_tables(_field(ns)),
    "census": lambda ns: build_census(_field(ns)),
    "chsh": _build_chsh,
    "groups": lambda ns: build_groups(_field(ns), ns.classes, ns.iso),
    "orbits": lambda ns: build_orbits(_field(ns), ns.mode, ns.min_size),
    "infer": lambda ns: build_infer(_field(ns), ns.state, ns.observable, ns.marginals),
    "mimic": lambda ns: build_mimic(_field(ns), ns.state, ns.axes, ns.marginals),
    "canonical": lambda ns: (
        build_correspondence(_field(ns)) if ns.correspondence else build_table4()
    ),
    "verify-phi": lambda ns: build_verify_phi(ns.p),
}


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _dispatch(ns: argparse.Namespace) -> int:
    ns.p = 3 if ns.p is None else ns.p
    ns.degree = 2 if ns.degree is None else ns.degree
    if ns.seed_check:
        results = acceptance.run_all()
        lines = [result.line() for result in results]
        passed = sum(1 for result in results if result.passed)
        lines.append(f"{passed}/{len(results)} criteria passed")
        _write("\n".join(lines) + "\n", ns.output)
        return 0 if passed == len(results) else 1
    if ns.command is None:
        raise ValueError("no subcommand given; see --help")
    _write(_render(_BUILDERS[ns.command](ns), ns.format or "markdown"), ns.output)
    return 0


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` reads every command line with, built once per process."""
    return build_parser()


def run(argv=None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        return _dispatch(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AssertionError, RuntimeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
