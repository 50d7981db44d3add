"""Record the reference answers of the qlca benchmark.

    python3 perfbench/record_reference.py

Asks every question of the sparse-solve and catalog-certify lists once
and writes the answer fingerprints to ``perfbench/reference.json``.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, REFERENCE, ask, load_program, reference_key


def main():
    cli = load_program()
    import workloads

    questions = workloads.materialize(workloads.reference_questions(),
                                      BENCH / ".work" / "reference")
    reference = {}
    for cmd, label, argv in questions:
        *_, fp = ask(cli, cmd, argv)
        reference[reference_key(cmd, label)] = fp
        print(reference_key(cmd, label), fp, file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
