#!/usr/bin/env python3
"""mmr-lint: project-semantic static analysis for the MMR simulator.

Enforces, at compile review time, the contracts the test suite can only
check at runtime: bit-exact determinism (no unordered iteration in
result-affecting code, no randomness outside the seeded Rng), zero
steady-state allocation on MMR_HOT_PATH-annotated per-cycle paths, the
Clocked component contract, and Cycle-type API hygiene.  See DESIGN.md
§10 for the rule catalog.

The analysis runs on a built-in token backend (text_backend.py), which
needs no toolchain at all, so every machine lints with the same
implementation.

Usage:
  tools/mmr-lint/mmr_lint.py [paths...]          # default: src/
      --root DIR                 repo root (default: auto-detect)
      --baseline FILE            suppress previously accepted findings
      --write-baseline           rewrite the baseline from this run
      --rules r1,r2              run a subset of rules
      --format text|json         report format (default: text)
      --report FILE              also write a JSON findings report
      --list-rules               print rule ids and exit

Exit status: 0 clean (or all findings baselined), 1 findings, 2 error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import rules as rules_mod  # noqa: E402
from project_model import Finding  # noqa: E402
from text_backend import TextBackend  # noqa: E402


def find_root(start):
    d = os.path.abspath(start)
    while d != "/":
        if os.path.isdir(os.path.join(d, ".git")) or \
                os.path.isfile(os.path.join(d, "CMakeLists.txt")):
            return d
        d = os.path.dirname(d)
    return os.path.abspath(start)


def collect_files(root, paths):
    """{relpath: source} for every .cc/.hh under the given paths."""
    rels = set()
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            rels.add(os.path.relpath(ap, root))
            continue
        for dirpath, _dirs, names in os.walk(ap):
            for name in names:
                if name.endswith((".cc", ".hh", ".cpp", ".hpp", ".h")):
                    rels.add(os.path.relpath(
                        os.path.join(dirpath, name), root))
    files = {}
    for rel in sorted(rels):
        try:
            with open(os.path.join(root, rel), encoding="utf-8",
                      errors="replace") as f:
                files[rel] = f.read()
        except OSError as e:
            print(f"mmr-lint: warning: cannot read {rel}: {e}",
                  file=sys.stderr)
    return files


def finding_key(root, f: Finding, line_cache):
    """Stable content hash: rule + file + source line text, so the
    baseline survives unrelated line-number drift."""
    lines = line_cache.get(f.file)
    if lines is None:
        try:
            with open(os.path.join(root, f.file), encoding="utf-8",
                      errors="replace") as fh:
                lines = fh.read().splitlines()
        except OSError:
            lines = []
        line_cache[f.file] = lines
    text = lines[f.line - 1].strip() if 0 < f.line <= len(lines) else ""
    h = hashlib.sha1(
        f"{f.rule}|{f.file}|{text}".encode()).hexdigest()[:16]
    return f"{f.rule}|{f.file}|{h}"


def load_baseline(path):
    entries = set()
    if path and os.path.isfile(path):
        with open(path) as f:
            for line in f:
                line = line.strip()
                if line and not line.startswith("#"):
                    entries.add(line)
    return entries


def write_baseline(path, keys):
    with open(path, "w") as f:
        f.write("# mmr-lint baseline: accepted pre-existing findings.\n"
                "# Format: <rule>|<file>|<sha1[:16] of source line>.\n"
                "# Regenerate with: mmr_lint.py --write-baseline\n"
                "# This file is intentionally empty when the tree is\n"
                "# clean; new findings must be fixed or annotated, not\n"
                "# baselined, except during large migrations.\n")
        for k in sorted(keys):
            f.write(k + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="mmr-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", default=None)
    ap.add_argument("--root", default=None)
    ap.add_argument("--baseline", default=None)
    ap.add_argument("--no-baseline", action="store_true",
                    help="ignore any baseline file (report everything)")
    ap.add_argument("--write-baseline", action="store_true")
    ap.add_argument("--rules", default=None)
    ap.add_argument("--format", choices=["text", "json"],
                    default="text")
    ap.add_argument("--report", default=None)
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    if args.list_rules:
        for r in rules_mod.ALL_RULES:
            print(r)
        return 0

    root = args.root or find_root(os.getcwd())
    paths = args.paths or ["src"]
    enabled = None
    if args.rules:
        enabled = [r.strip() for r in args.rules.split(",") if r.strip()]
        unknown = set(enabled) - set(rules_mod.ALL_RULES)
        if unknown:
            print(f"mmr-lint: unknown rule(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    baseline_path = args.baseline
    if baseline_path is None:
        cand = os.path.join(root, "tools", "mmr-lint", "baseline.txt")
        baseline_path = cand if os.path.isfile(cand) else None
    if args.no_baseline:
        baseline_path = None

    files = collect_files(root, paths)
    if not files:
        print("mmr-lint: no input files", file=sys.stderr)
        return 2

    backend = TextBackend()
    obs = backend.analyze(files)
    findings = rules_mod.run_rules(obs, enabled)

    line_cache = {}
    keyed = [(finding_key(root, f, line_cache), f) for f in findings]

    if args.write_baseline:
        out = args.baseline or os.path.join(
            root, "tools", "mmr-lint", "baseline.txt")
        write_baseline(out, [k for k, _ in keyed])
        print(f"mmr-lint: wrote {len(keyed)} baseline entries to {out}")
        return 0

    baseline = load_baseline(baseline_path)
    new = [(k, f) for k, f in keyed if k not in baseline]
    suppressed = len(keyed) - len(new)

    if args.report or args.format == "json":
        payload = {
            "backend": backend.name,
            "files": len(files),
            "rules": enabled or rules_mod.ALL_RULES,
            "total": len(keyed),
            "baselined": suppressed,
            "findings": [
                {"rule": f.rule, "file": f.file, "line": f.line,
                 "message": f.message, "key": k,
                 "baselined": k in baseline}
                for k, f in keyed
            ],
        }
        if args.report:
            with open(args.report, "w") as fh:
                json.dump(payload, fh, indent=1)
        if args.format == "json":
            json.dump(payload, sys.stdout, indent=1)
            print()

    if args.format == "text":
        for _k, f in new:
            print(f.format())
        if not args.quiet:
            print(f"mmr-lint[{backend.name}]: {len(files)} files, "
                  f"{len(keyed)} finding(s), {suppressed} baselined, "
                  f"{len(new)} new", file=sys.stderr)
    return 1 if new else 0


if __name__ == "__main__":
    sys.exit(main())
