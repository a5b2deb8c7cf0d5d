"""Write one deterministic JSON line per acceptance spec: its pair spec and
its verdict document.

Two checkouts that should produce the same documents can then be compared
with a plain `diff`.  Every verdict document is also replayed through
`recheck_document`, and so is, for a spec that a family builder made, its
schema-version-1 form (the full pair spec next to its metadata); the
script exits 1 when any replay reports a problem.  Standard error gets the
bytes of each family's verdict documents, as written and in that full
form.

Run from the repository root:

    python3 tools/dump_documents.py > documents.jsonl

`tools/documents.sha256` holds the `sha256sum` line of this output, which
CI compares with the output's; a change that alters the documents on
purpose updates it and says why.

Each spec is decided either on the chamber of its derived domain (the
reflection group that `check` derives from the weights) or on the whole
slice (`check(spec, use_symmetry=False)`), as its "domain" field says:

- derived domain: table1 6x6, table2 max=4, example51 (total 6, rank 4),
  example52 (sl n=8, sp n=4, so total 6);
- whole slice: table1 3x3, example52 sl n=6;
- matrix inputs, whole slice: every table1 pattern with p, q <= 4 except
  (4, 4), and sp21 (the matrix-input pool of perfbench);
- tensor products, derived domain: one question per variant;
- the same matrix inputs again, derived domain.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from temperkit import serialize  # noqa: E402
from temperkit.check import FAMILIES, check, tensor_product_spec  # noqa: E402
from temperkit.generators import (TABLE1_PATTERNS,  # noqa: E402
                                  matrix_input_for_block_pattern)
from temperkit.matrices import example_sp21_input, extract_weights  # noqa: E402

SCANS = [
    ("table1", {"pmax": 6, "qmax": 6}, True),
    ("table2", {"max": 4}, True),
    ("example51", {"total": 6, "rank": 4}, True),
    ("example52-sl", {"n": 8}, True),
    ("example52-sp", {"n": 4}, True),
    ("example52-so", {"total": 6}, True),
    ("table1", {"pmax": 3, "qmax": 3}, False),
    ("example52-sl", {"n": 6}, False),
]
TENSOR_PRODUCTS = [(1, 2, 2, 4), (2, 5, 1, 2), (3, 1, 3, 1)]


def matrix_cases(use_symmetry):
    for name in TABLE1_PATTERNS:
        for p, q in itertools.product(range(1, 5), repeat=2):
            if (p, q) == (4, 4):
                continue
            inp = matrix_input_for_block_pattern(TABLE1_PATTERNS[name](p, q))
            yield ({"family": "matrix-table1", "params": [name, p, q]},
                   extract_weights(inp), use_symmetry)
    yield ({"family": "matrix-sp21", "params": []},
           extract_weights(example_sp21_input()), use_symmetry)


def cases():
    """(label, spec, use_symmetry) for every spec, in a fixed order."""
    for family, ranges, use_symmetry in SCANS:
        for params, spec, _ in FAMILIES[family](**ranges):
            yield {"family": family, "params": params}, spec, use_symmetry
    yield from matrix_cases(False)
    for question in TENSOR_PRODUCTS:
        yield ({"family": "tensor_product", "params": list(question)},
               tensor_product_spec(*question), True)
    yield from matrix_cases(True)


def v1_document(verdict, spec) -> dict:
    """The verdict document with the spec's space and modules in full, as
    schema version 1 wrote it."""
    return {**serialize.verdict_to_json(verdict), "schema_version": 1,
            "pair_spec": {**serialize.pair_spec_to_json(spec), "schema_version": 1}}


def main() -> int:
    failed = 0
    sizes = {}
    for label, spec, use_symmetry in cases():
        verdict = check(spec, use_symmetry=use_symmetry)
        document = serialize.verdict_to_json(verdict, spec)
        forms = [("", document)]
        if spec.built:
            forms.append((" (v1 form)", v1_document(verdict, spec)))
        for form, doc in forms:
            problems = serialize.recheck_document(json.loads(serialize.dumps(doc)))
            if problems:
                failed += 1
                print(f"{label}{form}: {problems[:3]}", file=sys.stderr)
        written, full = sizes.setdefault(label["family"], [0, 0])
        sizes[label["family"]] = [written + len(serialize.dumps(document)),
                                  full + len(serialize.dumps(forms[-1][1]))]
        domain = "derived domain" if use_symmetry else "whole slice"
        print(serialize.dumps({**label, "domain": domain,
                               "pair_spec": serialize.pair_spec_to_json(spec),
                               "verdict": serialize.verdict_to_json(verdict)}))
    for family, (written, full) in sizes.items():
        print(f"{family}: {written:,} bytes of verdict documents, {full:,} with "
              "every builder spec in full", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
