#!/usr/bin/env python3
"""Validate bench JSON output, compare schemas, and gate regressions.

The bench binaries append one JSON document per run to the file named by
SATB_BENCH_JSON (bench/BenchUtil.h JsonBench). Each document looks like

    {"bench": "<name>", "scale": <int>, "hw_threads": <int>,
     "build_type": "<CMake config>", "rows": [{...}, ...]}

(hw_threads and build_type, the host shape, are informational and not
checked.)

This checker has three layers:

 1. Well-formedness: every input file must be non-empty, every non-blank
    line must parse as a JSON object with a string "bench", an integer
    "scale", and a non-empty "rows" list of non-empty objects. Rows may
    nest objects one level deep (BenchUtil.h beginObject — histogram
    percentile blocks); nested fields are flattened to dotted keys
    ("stw.p99_us") for all schema purposes. Row 0 defines the document's
    key set; later rows must carry either the same keys or a subset of
    them (summary rows such as a trailing geomean legitimately omit
    per-workload columns, but may never invent keys the data rows lack).
    Empty nested objects and deeper nesting are malformed.
 2. Baseline schema comparison (--baseline FILE, repeatable): the
    committed BENCH_*.json files define, per bench name, the expected
    row-0 key set. A fresh document for a known bench must carry exactly
    the same row-0 keys — a renamed, dropped, or added column fails the
    gate until the committed baseline is regenerated alongside it.
 3. Regression gate (--gate BENCH:KEY[:SELKEY=SELVAL], repeatable): for
    each gated bench, the metric KEY is read from the selected row (the
    row whose SELKEY equals SELVAL, or the last row carrying KEY when no
    selector is given — the summary-row convention) in both the fresh
    document and the baseline. Metrics are higher-is-better by default:
    the check fails when fresh < baseline * (1 - --tolerance). Prefixing
    KEY with '-' (e.g. --gate tiered_exec:-deopt_rate) flips the gate to
    lower-is-better: the check fails when fresh > baseline *
    (1 + --tolerance). The '-' is gate syntax, not part of the JSON key.
    A dotted KEY (e.g. --gate server_latency:-stw.p99_us) gates a field
    inside a nested object.
    Setting the SATB_BENCH_GATE_SKIP environment variable (any non-empty
    value) reports the comparison but never fails it — the escape hatch
    for 1-CPU containers whose timings are not comparable to the
    baseline host's.

--require NAME (repeatable) additionally fails if no input document came
from bench NAME; CI uses it so an exiting-early bench cannot silently
upload an empty artifact.

Exit status 0 iff every check passed. Stdlib only.
"""

import argparse
import json
import os
import sys


def load_docs(path, errors):
    """Parses one bench JSON file (one document per line)."""
    docs = []
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        errors.append(f"{path}: unreadable: {e}")
        return docs
    if not text.strip():
        errors.append(f"{path}: empty (bench produced no JSON)")
        return docs
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"{path}:{lineno}: malformed JSON: {e}")
            continue
        docs.append((f"{path}:{lineno}", doc))
    return docs


def flat_keys(row, prefix=""):
    """The row's key set with nested objects flattened to dotted keys
    (BenchUtil.h beginObject/endObject emits histogram percentile blocks
    as one-level sub-objects: {"stw": {"p99_us": ...}} contributes
    "stw.p99_us"). An empty nested object contributes nothing and is
    reported separately by check_doc. Returns None on nesting deeper
    than one level — the writer cannot produce it, so it marks a
    hand-edited or corrupted document."""
    keys = set()
    for k, v in row.items():
        if isinstance(v, dict):
            if prefix:
                return None
            sub = flat_keys(v, prefix=f"{k}.")
            if sub is None:
                return None
            keys |= sub
            if not v:
                keys.add(f"{k}.")  # sentinel so schema comparison flags it
        else:
            keys.add(prefix + k)
    return keys


def check_doc(where, doc, errors):
    """Well-formedness of one document; returns (bench, row0_keys, rows).
    Row keys are the flattened (dotted) key sets."""
    if not isinstance(doc, dict):
        errors.append(f"{where}: document is not an object")
        return None
    bench = doc.get("bench")
    if not isinstance(bench, str) or not bench:
        errors.append(f"{where}: missing/invalid 'bench' name")
        return None
    if not isinstance(doc.get("scale"), int):
        errors.append(f"{where}: [{bench}] missing/invalid integer 'scale'")
        return None
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append(f"{where}: [{bench}] 'rows' missing or empty")
        return None
    keys = None
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not row:
            errors.append(f"{where}: [{bench}] row {i} is not a non-empty object")
            return None
        if any(isinstance(v, dict) and not v for v in row.values()):
            errors.append(f"{where}: [{bench}] row {i} has an empty nested object")
            return None
        row_keys = flat_keys(row)
        if row_keys is None:
            errors.append(
                f"{where}: [{bench}] row {i} nests objects deeper than one level"
            )
            return None
        if keys is None:
            keys = frozenset(row_keys)
        elif not frozenset(row_keys) <= keys:
            extra = sorted(frozenset(row_keys) - keys)
            errors.append(
                f"{where}: [{bench}] row {i} carries keys {extra} absent "
                f"from row 0 (summary rows may only drop columns)"
            )
            return None
    return bench, keys, rows


def parse_gate(spec, errors):
    """Parses BENCH:[-]KEY[:SELKEY=SELVAL] into (bench, key, sel, lower)
    or None; a '-' prefix on KEY marks the metric lower-is-better."""
    parts = spec.split(":")
    if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
        errors.append(f"--gate {spec!r}: expected BENCH:KEY[:SELKEY=SELVAL]")
        return None
    key, lower = parts[1], False
    if key.startswith("-"):
        key, lower = key[1:], True
        if not key:
            errors.append(f"--gate {spec!r}: '-' prefix without a key")
            return None
    sel = None
    if len(parts) == 3:
        if "=" not in parts[2]:
            errors.append(f"--gate {spec!r}: selector must be SELKEY=SELVAL")
            return None
        sel = tuple(parts[2].split("=", 1))
    return parts[0], key, sel, lower


def row_value(row, key):
    """Reads KEY from a row; a dotted key ("stw.p99_us") descends into the
    flattened nested object. Returns a sentinel (None) when absent."""
    if "." in key:
        outer, inner = key.split(".", 1)
        sub = row.get(outer)
        return sub.get(inner) if isinstance(sub, dict) else None
    value = row.get(key)
    return None if isinstance(value, dict) else value


def gated_value(rows, key, sel):
    """The gated metric from a row list: the selected row's value, or the
    last row carrying the key (the summary-row convention). Dotted keys
    gate fields inside nested objects."""
    picked = None
    for row in rows:
        if sel is not None:
            if str(row.get(sel[0])) == sel[1] and row_value(row, key) is not None:
                picked = row
        elif row_value(row, key) is not None:
            picked = row
    if picked is None:
        return None
    value = row_value(picked, key)
    return value if isinstance(value, (int, float)) else None


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", help="fresh bench JSON files to check")
    ap.add_argument(
        "--baseline",
        action="append",
        default=[],
        metavar="FILE",
        help="committed BENCH_*.json whose per-bench row-key sets are the "
        "expected schema and whose metrics anchor the regression gate "
        "(repeatable)",
    )
    ap.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="BENCH",
        help="fail unless a document from this bench is present (repeatable)",
    )
    ap.add_argument(
        "--gate",
        action="append",
        default=[],
        metavar="BENCH:KEY[:SELKEY=SELVAL]",
        help="fail when this bench's metric regresses more than --tolerance "
        "below the baseline value (higher is better; repeatable)",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="allowed fractional regression for --gate metrics "
        "(default 0.25 = 25%%)",
    )
    args = ap.parse_args(argv)

    errors = []
    gates = [g for g in (parse_gate(s, errors) for s in args.gate) if g]

    # Baselines must themselves be well-formed; a bench appearing in two
    # baseline files with different schemas is a repo inconsistency.
    expected = {}
    for path in args.baseline:
        for where, doc in load_docs(path, errors):
            checked = check_doc(where, doc, errors)
            if not checked:
                continue
            bench, keys, rows = checked
            if bench in expected and expected[bench][0] != keys:
                errors.append(
                    f"{where}: [{bench}] baseline schema conflicts with "
                    f"{expected[bench][1]}"
                )
            else:
                expected[bench] = (keys, where, rows)

    seen = {}
    for path in args.files:
        for where, doc in load_docs(path, errors):
            checked = check_doc(where, doc, errors)
            if not checked:
                continue
            bench, keys, rows = checked
            seen[bench] = (keys, rows, where)
            if bench in expected and keys != expected[bench][0]:
                base_keys, base_where, _ = expected[bench]
                errors.append(
                    f"{where}: [{bench}] row keys {sorted(keys)} do not match "
                    f"baseline {base_where} keys {sorted(base_keys)}"
                )

    gate_skip = bool(os.environ.get("SATB_BENCH_GATE_SKIP"))
    for bench, key, sel, lower in gates:
        if bench not in seen:
            errors.append(f"--gate {bench}:{key}: no fresh document for bench")
            continue
        if bench not in expected:
            errors.append(f"--gate {bench}:{key}: no baseline for bench")
            continue
        fresh = gated_value(seen[bench][1], key, sel)
        base = gated_value(expected[bench][2], key, sel)
        where = seen[bench][2]
        if fresh is None or base is None:
            errors.append(
                f"{where}: [{bench}] gated metric '{key}' missing or "
                f"non-numeric in fresh or baseline document"
            )
            continue
        if lower:
            bound = base * (1.0 + args.tolerance)
            failed = fresh > bound
            kind = "ceiling"
        else:
            bound = base * (1.0 - args.tolerance)
            failed = fresh < bound
            kind = "floor"
        verdict = "OK" if not failed else "REGRESSION"
        print(
            f"check_bench_json: gate [{bench}] {key}: fresh {fresh:g} vs "
            f"baseline {base:g} ({kind} {bound:g}): {verdict}"
            + (" (skipped: SATB_BENCH_GATE_SKIP)" if gate_skip else "")
        )
        if failed and not gate_skip:
            cmp = ">" if lower else "<"
            errors.append(
                f"{where}: [{bench}] metric '{key}' regressed: fresh "
                f"{fresh:g} {cmp} baseline {base:g} "
                f"{'+' if lower else '-'} {args.tolerance:.0%}"
            )

    for bench in args.require:
        if bench not in seen:
            errors.append(f"required bench '{bench}' produced no JSON document")

    if errors:
        for e in errors:
            print(f"check_bench_json: {e}", file=sys.stderr)
        return 1
    names = ", ".join(sorted(seen)) or "(none)"
    print(f"check_bench_json: OK — {len(seen)} bench(es): {names}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
