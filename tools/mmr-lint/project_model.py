"""Intermediate model between the mmr-lint backend and its rules.

The token backend (text_backend.py) reduces a source tree to a set of
*observations*; the rules in rules.py only ever see this model.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""
    name: str          # simple callee name ("push_back", "evaluate")
    qualifier: str     # "obj" for obj.f()/obj->f(), "Cls" for Cls::f(), ""
    is_member: bool    # called through . or ->
    file: str
    line: int


@dataclass
class FunctionInfo:
    """A function *definition* (has a body)."""
    cls: str | None    # enclosing/qualifying class, None for free fns
    name: str
    file: str
    line: int          # line of the name in the definition
    end_line: int
    hot: bool = False  # MMR_HOT_PATH on this definition
    head_line: int = 0  # first line of the head (return type line)
    calls: list[CallSite] = field(default_factory=list)
    # Container subscripts obj[...] where obj resolves to a map type
    # (operator[] may insert, i.e. allocate).
    map_subscripts: list["SiteNote"] = field(default_factory=list)
    # Direct allocation expressions in the body: ("new", line), etc.
    alloc_sites: list["SiteNote"] = field(default_factory=list)
    # Parameter/local name -> the type name it was declared with
    # (`VcState &state` -> "VcState"), for typed member-call receivers.
    var_types: dict[str, str] = field(default_factory=dict)

    @property
    def qualname(self) -> str:
        return f"{self.cls}::{self.name}" if self.cls else self.name


@dataclass(frozen=True)
class SiteNote:
    """A (what, where) note attached to a function body."""
    what: str
    file: str
    line: int


@dataclass(frozen=True)
class VarDecl:
    """A declaration whose type the rules care about."""
    name: str
    type_text: str     # normalized type spelling
    scope: str         # "member:<Class>" | "local:<Func>" | "param:<Func>"
    file: str
    line: int


@dataclass(frozen=True)
class LoopSite:
    """A range-for (or .begin() use) whose range resolved to a type."""
    expr: str          # source text of the range expression
    container: str     # resolved container kind: "unordered_map", ...
    cls: str | None    # enclosing class
    func: str | None   # enclosing function name
    file: str
    line: int


@dataclass(frozen=True)
class IdentUse:
    """Use of a watched identifier (rand, random_device, ...)."""
    name: str
    context: str       # "call0" (nullary call), "call", "name"
    file: str
    line: int


@dataclass
class ClassInfo:
    name: str
    bases: list[str]
    file: str
    line: int
    methods: set[str] = field(default_factory=set)
    hot_decls: set[str] = field(default_factory=set)  # MMR_HOT_PATH decls


@dataclass
class Observations:
    """Everything the rules need, for the whole analyzed tree."""
    files: list[str] = field(default_factory=list)
    functions: list[FunctionInfo] = field(default_factory=list)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    decls: list[VarDecl] = field(default_factory=list)
    loops: list[LoopSite] = field(default_factory=list)
    ident_uses: list[IdentUse] = field(default_factory=list)
    # (file, line) -> set of rules suppressed there (from comments)
    suppressions: dict[str, dict[int, set[str]]] = field(default_factory=dict)
    # (class or "", member name) -> the type name it was declared with
    member_var_types: dict[tuple[str, str], str] = field(
        default_factory=dict)

    def function_index(self) -> dict[str, list[FunctionInfo]]:
        """simple name -> definitions with that name."""
        idx: dict[str, list[FunctionInfo]] = {}
        for fn in self.functions:
            idx.setdefault(fn.name, []).append(fn)
        return idx


@dataclass(frozen=True)
class Finding:
    rule: str
    file: str
    line: int
    message: str
    # Stable content key for baselining (survives line-number drift).
    key: str

    def format(self) -> str:
        return f"{self.file}:{self.line}: [{self.rule}] {self.message}"
