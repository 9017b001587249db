#!/usr/bin/env python3
"""Self-test for mmr-lint against the fixture corpus.

Each bad_<rule-with-underscores>.cc fixture, and each
bad_<rule-with-underscores>.<case>.cc fixture when a rule has more
than one, must produce exactly one finding, and that finding must be
of the rule named by the file.  The clean_suppressed.cc fixture
exercises the annotation syntax and must produce zero findings.  Any
drift — a rule that stops firing, fires twice, or leaks into another
fixture — fails the test.

Run from anywhere:  python3 tests/lint/run_fixtures.py
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(ROOT, "tools", "mmr-lint", "mmr_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")


def run_lint(paths):
    with tempfile.NamedTemporaryFile(
            mode="r", suffix=".json", delete=False) as tmp:
        report = tmp.name
    try:
        proc = subprocess.run(
            [sys.executable, LINT, "--no-baseline", f"--report={report}",
             *paths],
            capture_output=True, text=True, cwd=ROOT)
        if proc.returncode not in (0, 1):
            raise SystemExit(
                f"mmr-lint errored (rc={proc.returncode}):\n"
                f"{proc.stdout}{proc.stderr}")
        with open(report) as f:
            return json.load(f)
    finally:
        os.unlink(report)


def main():
    failures = []
    bad = sorted(f for f in os.listdir(FIXTURES)
                 if f.startswith("bad_") and f.endswith(".cc"))
    if not bad:
        raise SystemExit("no bad_*.cc fixtures found")

    for name in bad:
        expected_rule = name[len("bad_"):].split(".")[0].replace("_", "-")
        payload = run_lint([os.path.join(FIXTURES, name)])
        findings = payload["findings"]
        rules = [f["rule"] for f in findings]
        if rules != [expected_rule]:
            failures.append(
                f"{name}: expected exactly one {expected_rule} "
                f"finding, got {rules or 'none'}")
        else:
            print(f"PASS {name}: one {expected_rule} finding")

    clean = os.path.join(FIXTURES, "clean_suppressed.cc")
    payload = run_lint([clean])
    if payload["findings"]:
        rules = [f["rule"] for f in payload["findings"]]
        failures.append(
            f"clean_suppressed.cc: expected zero findings, got {rules}")
    else:
        print("PASS clean_suppressed.cc: zero findings")

    if failures:
        print()
        for f in failures:
            print(f"FAIL {f}", file=sys.stderr)
        return 1
    print(f"\nall {len(bad) + 1} fixture checks passed "
          f"[{payload['backend']}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
