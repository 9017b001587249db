"""Project-semantic rules for mmr-lint.

Each rule consumes the backend-independent Observations model and
yields Findings.  The rule catalog (ids, what fires, how to suppress)
is documented in DESIGN.md §10; keep the two in sync.

Rules
-----
unordered-iter      range-for / .begin() over std::unordered_* in
                    result-affecting code.  Iteration order is
                    implementation-defined: the same binary is
                    reproducible, but digests drift across standard
                    libraries and — for the planned sharded core —
                    across thread interleavings.  Fix: iterate a sorted
                    key snapshot, or annotate an order-insensitive loop
                    (pure commutative reduction) with a justification.
nondet-source       rand()/srand/std::random_device/wall-clock time
                    sources outside src/base/rng.*.  All randomness
                    must come from the seeded project Rng.
pointer-key         std::map/std::set keyed on a pointer: ordered by
                    address, i.e. by allocation order and ASLR.
hot-path-alloc      a function reachable from an MMR_HOT_PATH root
                    allocates (new/malloc/make_unique/to_string),
                    grows a container (push_back/insert/resize/...),
                    or subscripts a map (operator[] may insert).
                    Static complement of tests/harness/test_zero_alloc.
clocked-invariants  a Clocked subclass with no registerInvariants()
                    hook: every per-cycle component must expose its
                    self-checks to the invariant auditor.
clocked-simclock    evaluate()/advance() reading the global
                    simclock::now() instead of the kernel-provided
                    `now` parameter (a cached/global clock can lag the
                    kernel inside a cycle; in the sharded core it will
                    be another shard's clock).
cycle-type          raw builtin integer (int/long/unsigned/...) used
                    for a flit-cycle time point or duration where the
                    Cycle type exists.  Per-round *slot budgets*
                    (allocCycles/permCycles/peakCycles/roundCycles/
                    cycles_per_round) are unsigned by design (bounded
                    by k*V <= 64 slots, paper §4.2) and are exempt.
"""

from __future__ import annotations

import re

from project_model import Finding, Observations

ALL_RULES = [
    "unordered-iter",
    "nondet-source",
    "pointer-key",
    "hot-path-alloc",
    "clocked-invariants",
    "clocked-simclock",
    "cycle-type",
]

# Files allowed to touch raw randomness / wall-clock sources: the
# project RNG wraps them (SplitMix64 seeding), nothing else may.
NONDET_EXEMPT_SUFFIXES = ("base/rng.cc", "base/rng.hh")

# Member calls that may (re)allocate on any standard container.
ALLOC_MEMBER_CALLS = {
    "push_back", "emplace_back", "push_front", "emplace_front",
    "emplace", "insert", "resize", "reserve", "push", "assign",
    "append", "shrink_to_fit",
}

# Member names shared with the standard container/iterator API.  A
# bare `x.name()` with one of these names is overwhelmingly a std
# container call, so the closure never follows it to a same-named
# project method by name alone (the allocating subset is still flagged
# at the call site itself).
STD_MEMBER_NAMES = ALLOC_MEMBER_CALLS | {
    "begin", "end", "rbegin", "rend", "cbegin", "cend", "size",
    "empty", "clear", "front", "back", "at", "find", "count",
    "erase", "pop", "pop_back", "pop_front", "top", "data", "swap",
    "get", "reset", "release", "str", "c_str", "substr", "length",
    "first", "second", "min", "max", "contains", "value", "emplace",
}

# Declared names that denote flit-cycle times/durations.
CYCLE_NAME_RE = re.compile(
    r"(?i)(?:^|_)(?:cycle|cycles|tick|ticks|deadline|timeout|when|"
    r"expiry|latency)(?:$|_)"
    r"|[a-z0-9](?:Cycle|Cycles|Tick|Ticks|Deadline|Timeout|Expiry|"
    r"Latency)(?:[A-Z]|$)")
# Per-round slot budgets (bandwidth shares, not times) stay unsigned.
CYCLE_EXEMPT_RE = re.compile(
    r"(?i)^(?:alloc|perm|peak|round|old|new|excess)_?cycles?$"
    r"|cycles?_?per_?round|^round_?factor|^decode_?cycles$")


def _supp(obs: Observations, rule: str, file: str, *lines) -> bool:
    per_file = obs.suppressions.get(file, {})
    if rule in per_file.get(0, set()):
        return True
    return any(rule in per_file.get(line, set())
               for line in lines if line)


def _mk(rule, file, line, msg):
    return Finding(rule, file, line, msg, key="")


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

def rule_unordered_iter(obs: Observations):
    for lp in obs.loops:
        if _supp(obs, "unordered-iter", lp.file, lp.line):
            continue
        where = f"{lp.cls}::{lp.func}" if lp.cls else (lp.func or "?")
        yield _mk(
            "unordered-iter", lp.file, lp.line,
            f"iteration over std::{lp.container} '{lp.expr}' in "
            f"{where}: order is implementation-defined; iterate a "
            f"sorted key snapshot or annotate an order-insensitive "
            f"loop with `// mmr-lint: allow(unordered-iter) <why>`")


def rule_nondet_source(obs: Observations):
    for use in obs.ident_uses:
        norm = use.file.replace("\\", "/")
        if norm.endswith(NONDET_EXEMPT_SUFFIXES):
            continue
        if _supp(obs, "nondet-source", use.file, use.line):
            continue
        what = {"call0": f"{use.name}() call",
                "name": f"use of {use.name}"}[use.context]
        yield _mk(
            "nondet-source", use.file, use.line,
            f"{what}: nondeterministic source outside src/base/rng.*; "
            f"derive randomness from the seeded mmr::Rng and simulated "
            f"time from the kernel cycle")


def rule_pointer_key(obs: Observations):
    for d in obs.decls:
        if "<ptr-key>" not in d.type_text:
            continue
        if _supp(obs, "pointer-key", d.file, d.line):
            continue
        kind = d.type_text.replace("<ptr-key>", "")
        yield _mk(
            "pointer-key", d.file, d.line,
            f"'{d.name}' is a std::{kind} keyed on a pointer: ordered "
            f"by address, so iteration order varies run to run; key on "
            f"a stable id instead")


# ----------------------------------------------------------------------
# hot-path allocation
# ----------------------------------------------------------------------

def _hot_in_hierarchy(obs: Observations, cls, name, _depth=0):
    """Is @p name declared MMR_HOT_PATH on @p cls or any base?  An
    override of a hot virtual inherits the hot-path contract."""
    if _depth > 8 or cls not in obs.classes:
        return False
    ci = obs.classes[cls]
    if name in ci.hot_decls:
        return True
    return any(_hot_in_hierarchy(obs, b, name, _depth + 1)
               for b in ci.bases)


def _hot_roots(obs: Observations):
    for fn in obs.functions:
        if fn.hot:
            yield fn
        elif fn.cls and _hot_in_hierarchy(obs, fn.cls, fn.name):
            yield fn


def _resolve_call(obs: Observations, index, fn, call):
    """Project functions a call site may reach, or [] when the call is
    external / unresolvable.

    Name matching alone massively over-approximates (every `.advance()`
    would edge into every class with an advance method), so edges are
    kept only when the receiver is determinable:

    - `Cls::f()` / `ns::f()`: methods of exactly that class.
    - bare `f()` inside a method: same-class methods first (implicit
      this->), else free functions named f.
    - `x.f()` / `x->f()`: followed only when exactly one project class
      defines f.  A name shared with the std container API would
      otherwise alias (`q.push` is not VcState::push), so it is
      followed only when x was declared with a project class type (a
      local, parameter or member of fn's class): `state.push` with
      `VcState &state` is VcState::push.
    """
    cands = index.get(call.name, ())
    if not cands:
        return []
    if call.qualifier and call.qualifier[:1].isupper():
        return [c for c in cands if c.cls == call.qualifier]
    if not call.is_member and not call.qualifier:
        own = [c for c in cands if c.cls and c.cls == fn.cls]
        if own:
            return own
        return [c for c in cands if c.cls is None]
    if call.name in STD_MEMBER_NAMES:
        owner = fn.var_types.get(call.qualifier) or \
            obs.member_var_types.get((fn.cls or "", call.qualifier))
        return [c for c in cands if owner and c.cls == owner]
    classes = {c.cls for c in cands if c.cls}
    if len(classes) == 1:
        return [c for c in cands if c.cls]
    return []


def _closure(obs: Observations, roots):
    """(function -> (root, parent)) over resolved project calls."""
    index = obs.function_index()
    seen = {}
    work = []
    for r in roots:
        key = (r.cls, r.name, r.file, r.line)
        if key not in seen:
            seen[key] = (r, None)
            work.append(r)
    while work:
        fn = work.pop()
        for call in fn.calls:
            if call.is_member and call.name in ALLOC_MEMBER_CALLS and \
                    _supp(obs, "hot-path-alloc", fn.file, call.line,
                          fn.line, fn.head_line):
                continue  # the annotation vouches for this growth call
            for cand in _resolve_call(obs, index, fn, call):
                key = (cand.cls, cand.name, cand.file, cand.line)
                if key not in seen:
                    seen[key] = (cand, fn)
                    work.append(cand)
    return seen


def _path_to_root(seen, fn):
    names = [fn.qualname]
    key = (fn.cls, fn.name, fn.file, fn.line)
    while True:
        _, parent = seen[key]
        if parent is None:
            break
        names.append(parent.qualname)
        key = (parent.cls, parent.name, parent.file, parent.line)
    return " <- ".join(names)


def rule_hot_path_alloc(obs: Observations):
    index = obs.function_index()
    roots = list(_hot_roots(obs))
    seen = _closure(obs, roots)
    for (cls, name, file, line), (fn, _parent) in sorted(
            seen.items(), key=lambda kv: (kv[0][2], kv[0][3])):
        chain = _path_to_root(seen, fn)
        sites = []
        for note in fn.alloc_sites:
            if note.what == "placement-new":
                continue
            sites.append((note.line, f"'{note.what}'"))
        for call in fn.calls:
            if call.is_member and call.name in ALLOC_MEMBER_CALLS and \
                    not _resolve_call(obs, index, fn, call):
                sites.append(
                    (call.line,
                     f"container growth '.{call.name}()'"
                     + (f" on '{call.qualifier}'"
                        if call.qualifier else "")))
        for note in fn.map_subscripts:
            sites.append((note.line,
                          f"map subscript {note.what} may insert"))
        for sline, what in sorted(sites):
            if _supp(obs, "hot-path-alloc", file, sline, fn.line,
                     fn.head_line):
                continue
            yield _mk(
                "hot-path-alloc", file, sline,
                f"{what} in {fn.qualname}, reachable from an "
                f"MMR_HOT_PATH root ({chain}); steady-state scheduling "
                f"must not allocate (see test_zero_alloc) — "
                f"preallocate, or annotate with a capacity argument")


# ----------------------------------------------------------------------
# clocked-component contracts
# ----------------------------------------------------------------------

def _clocked_classes(obs: Observations):
    return {name: ci for name, ci in obs.classes.items()
            if "Clocked" in ci.bases}


def rule_clocked_invariants(obs: Observations):
    for name, ci in sorted(_clocked_classes(obs).items()):
        if "registerInvariants" in ci.methods:
            continue
        if _supp(obs, "clocked-invariants", ci.file, ci.line):
            continue
        yield _mk(
            "clocked-invariants", ci.file, ci.line,
            f"Clocked subclass {name} has no registerInvariants("
            f"InvariantChecker&): every per-cycle component must "
            f"register its self-checks (or annotate a pure "
            f"observer/auditor with a justification)")


def rule_clocked_simclock(obs: Observations):
    clocked = _clocked_classes(obs)
    for fn in obs.functions:
        if fn.name not in ("evaluate", "advance"):
            continue
        if fn.cls not in clocked:
            continue
        for call in fn.calls:
            if call.qualifier == "simclock" and \
                    call.name in ("now", "active"):
                if _supp(obs, "clocked-simclock", call.file,
                         call.line, fn.line):
                    continue
                yield _mk(
                    "clocked-simclock", call.file, call.line,
                    f"{fn.qualname} reads simclock::{call.name}() "
                    f"instead of its kernel-provided `now` parameter; "
                    f"a Clocked tick must take time from the kernel, "
                    f"never a global/cached clock")


# ----------------------------------------------------------------------
# API hygiene
# ----------------------------------------------------------------------

def rule_cycle_type(obs: Observations):
    for d in obs.decls:
        if "<ptr-key>" in d.type_text or d.type_text in (
                "unordered_map", "unordered_set", "map", "set",
                "multimap", "multiset", "unordered_multimap",
                "unordered_multiset"):
            continue
        if not CYCLE_NAME_RE.search(d.name):
            continue
        if CYCLE_EXEMPT_RE.search(d.name):
            continue
        if _supp(obs, "cycle-type", d.file, d.line):
            continue
        yield _mk(
            "cycle-type", d.file, d.line,
            f"'{d.type_text} {d.name}' ({d.scope}): flit-cycle times "
            f"and durations use the mmr::Cycle type, not raw "
            f"'{d.type_text}' (per-round slot budgets like allocCycles "
            f"are exempt by convention)")


RULE_FUNCS = {
    "unordered-iter": rule_unordered_iter,
    "nondet-source": rule_nondet_source,
    "pointer-key": rule_pointer_key,
    "hot-path-alloc": rule_hot_path_alloc,
    "clocked-invariants": rule_clocked_invariants,
    "clocked-simclock": rule_clocked_simclock,
    "cycle-type": rule_cycle_type,
}


def run_rules(obs: Observations, enabled=None):
    enabled = list(enabled) if enabled else ALL_RULES
    findings = []
    for rule in enabled:
        findings.extend(RULE_FUNCS[rule](obs))
    findings.sort(key=lambda f: (f.file, f.line, f.rule))
    return findings
