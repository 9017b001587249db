#!/usr/bin/env python3
"""Bit-exact golden-file regression for bench summary tables.

Runs a bench binary with pinned arguments and compares its stdout
with a committed golden file byte-for-byte.  A golden that holds a
bench's whole committed output (``results/<bench>.txt``) is compared
whole, header lines and shape-check verdicts included.  A golden that
holds only the machine-readable ``# begin-csv`` ... ``# end-csv``
block(s) (``results/golden/*.txt``) is compared with the CSV blocks
of the output.  The simulator guarantees same-seed
determinism (fixed-seed xoshiro RNG, deterministic number
formatting), so any diff is a real behavior change: either a
regression, or an intended change that must be reviewed and
re-recorded with ``--update``.

Usage:
    check_golden.py --bench build/bench/fig4_delay \\
        --golden results/golden/fig4_delay.txt \\
        -- --loads=0.5,0.9 --measure=10000 --warmup=5000 --seed=42

Exit codes: 0 match, 1 mismatch/missing golden, 2 bench failure.
"""

import argparse
import difflib
import os
import pathlib
import subprocess
import sys


def extract_csv_blocks(text: str) -> str:
    """All CSV blocks, markers included, in emission order."""
    out, keep = [], False
    for line in text.splitlines():
        if line.startswith("# begin-csv"):
            keep = True
        if keep:
            out.append(line)
        if line.startswith("# end-csv"):
            keep = False
    if not out:
        sys.exit("no '# begin-csv' blocks found in bench output")
    return "\n".join(out) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="bench binary to run")
    parser.add_argument("--golden", required=True,
                        help="committed golden file")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden file instead of "
                             "comparing")
    parser.add_argument("bench_args", nargs="*",
                        help="arguments after -- go to the bench")
    args = parser.parse_args()

    env = dict(os.environ, MMR_LOG_LEVEL="warn")
    proc = subprocess.run([args.bench, *args.bench_args],
                          capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        print(f"bench exited {proc.returncode}", file=sys.stderr)
        return 2

    golden_path = pathlib.Path(args.golden)
    golden = golden_path.read_text() if golden_path.exists() else None
    # A golden that is more than its CSV blocks is a whole output.
    whole = golden is not None and golden != extract_csv_blocks(golden)
    actual = proc.stdout if whole else extract_csv_blocks(proc.stdout)

    if args.update:
        golden_path.parent.mkdir(parents=True, exist_ok=True)
        golden_path.write_text(actual)
        print(f"wrote {golden_path}")
        return 0

    if golden is None:
        print(f"golden file {golden_path} missing; regenerate with "
              f"--update", file=sys.stderr)
        return 1

    expected = golden
    if actual == expected:
        print(f"golden match: {golden_path}")
        return 0

    sys.stderr.write(f"golden MISMATCH against {golden_path}:\n")
    diff = difflib.unified_diff(expected.splitlines(True),
                                actual.splitlines(True),
                                fromfile=str(golden_path),
                                tofile="bench output")
    sys.stderr.writelines(diff)
    return 1


if __name__ == "__main__":
    sys.exit(main())
