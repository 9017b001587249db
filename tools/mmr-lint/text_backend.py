"""Self-contained token-based backend for mmr-lint.

It needs no compiler toolchain.  It performs a structural scan of the
token stream:
namespaces, classes (with bases and members), function definitions
(with constructor initializer lists), and function bodies (calls,
allocations, range-for loops, ``.begin()`` iterator loops, container
subscripts).  Types are resolved by name through a project-wide index
of members, locals, parameters, aliases, and method return types, so a
``for (auto &[k, v] : pcs)`` in a ``.cc`` file resolves against the
``std::unordered_map`` member declared in the header.

It emits the Observations structure of project_model.py; rules see
only that model.
"""

from __future__ import annotations

import re

from cpp_lexer import IDENT, PP, PUNCT, lex
from project_model import (CallSite, ClassInfo, FunctionInfo, IdentUse,
                           LoopSite, Observations, SiteNote, VarDecl)

# Containers whose iteration order is not deterministic across
# implementations (and, with pointer keys, across runs).
UNORDERED = {"unordered_map", "unordered_set", "unordered_multimap",
             "unordered_multiset"}
# Node-based ordered maps: subscripting may insert (allocate).
MAP_LIKE = {"map", "multimap"} | {"unordered_map", "unordered_multimap"}
SET_LIKE = {"set", "multiset"}
ACCESS_SPECIFIERS = {"public", "protected", "private"}

# Identifiers whose very presence (outside the RNG module) breaks
# reproducibility.  "call0" entries only fire as nullary calls.
NONDET_ANY = {"random_device", "system_clock", "gettimeofday",
              "localtime", "mt19937", "mt19937_64", "minstd_rand",
              "default_random_engine", "random_shuffle"}
NONDET_CALL0 = {"rand", "clock"}

ALLOC_FREE_CALLS = {"malloc", "calloc", "realloc", "strdup",
                    "aligned_alloc", "make_unique", "make_shared",
                    "to_string"}
# std containers that allocate when constructed with arguments.
SIZED_CONTAINERS = {"vector", "deque", "string", "list"}

BUILTIN_INT = {"int", "long", "short", "unsigned", "signed", "int32_t",
               "uint32_t", "int16_t", "uint16_t", "int64_t", "size_t"}

_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "catch", "new", "delete", "throw", "assert", "decltype", "typeid",
    "noexcept", "alignas", "static_assert", "co_await", "co_return",
}

_SUPPRESS_RE = re.compile(
    r"mmr-lint:\s*(allow|allow-file)\(([a-z0-9_,\- ]+)\)")


class _FileScan:
    """Raw per-file facts before cross-file resolution."""

    def __init__(self, path):
        self.path = path
        self.raw_loops = []       # (expr_text, chain, cls, fn, line, locals)
        self.raw_subscripts = []  # (base_ident, fn_ref, line, locals)
        self.functions = []       # FunctionInfo (+ ._locals attr)


class TextBackend:
    name = "text"

    def __init__(self):
        self.obs = Observations()
        # (class, member) -> container kind; "" class for globals
        self.member_types: dict[tuple[str, str], str] = {}
        # method simple name -> container kind of return (project-wide)
        self.method_returns: dict[str, str] = {}
        # using-alias name -> container kind
        self.aliases: dict[str, str] = {}
        self.hot_free_decls: set[str] = set()
        self.scans: list[_FileScan] = []

    # -- public entry ---------------------------------------------------

    def analyze(self, files: dict[str, str]) -> Observations:
        for path in sorted(files):
            self._scan_file(path, files[path])
        self._resolve()
        self.obs.files = sorted(files)
        return self.obs

    # -- pass 1: per-file structural scan -------------------------------

    def _scan_file(self, path, source):
        toks, comments = lex(source)
        self.toks = toks
        self.path = path
        scan = _FileScan(path)
        self.scans.append(scan)
        self.scan = scan
        self._suppressions(comments, toks)
        self._watch_idents(toks)
        i = 0
        while i < len(toks):
            i = self._scan_scope(i, cls=None)

    def _suppressions(self, comments, toks):
        supp = self.obs.suppressions.setdefault(self.path, {})
        tok_lines = [t.line for t in toks]
        import bisect
        for c in comments:
            m = _SUPPRESS_RE.search(c.text)
            if not m:
                continue
            rules = {r.strip() for r in m.group(2).split(",") if r.strip()}
            if m.group(1) == "allow-file":
                supp.setdefault(0, set()).update(rules)
                continue
            supp.setdefault(c.line, set()).update(rules)
            if c.own_line:
                # Attach to the first code line after the comment.
                k = bisect.bisect_right(tok_lines, c.end_line)
                if k < len(tok_lines):
                    supp.setdefault(tok_lines[k], set()).update(rules)

    def _watch_idents(self, toks):
        for k, t in enumerate(toks):
            if t.kind != IDENT:
                continue
            prev = toks[k - 1].text if k else ""
            if prev in (".", "->"):
                continue
            if t.text in NONDET_ANY:
                self.obs.ident_uses.append(
                    IdentUse(t.text, "name", self.path, t.line))
            elif t.text in NONDET_CALL0:
                if (k + 2 < len(toks) and toks[k + 1].text == "("
                        and toks[k + 2].text == ")"):
                    self.obs.ident_uses.append(
                        IdentUse(t.text, "call0", self.path, t.line))
            elif t.text == "time":
                if (k + 3 < len(toks) and toks[k + 1].text == "("
                        and toks[k + 2].text in ("nullptr", "NULL", "0")
                        and toks[k + 3].text == ")"):
                    self.obs.ident_uses.append(
                        IdentUse("time", "call0", self.path, t.line))
            elif t.text == "srand":
                if k + 1 < len(toks) and toks[k + 1].text == "(":
                    self.obs.ident_uses.append(
                        IdentUse("srand", "call0", self.path, t.line))

    # -- scope scanning --------------------------------------------------

    def _scan_scope(self, i, cls):
        """Scan one namespace/class scope starting at token i; returns
        the index just past the scope's closing brace (or EOF)."""
        toks = self.toks
        n = len(toks)
        while i < n:
            if toks[i].text == "}":
                return i + 1
            head, i = self._collect_head(i)
            if i >= n:
                return i
            term = toks[i].text if i < n else ";"
            if term == ";":
                self._declaration(head, cls)
                i += 1
                continue
            if term == "}":
                continue
            # term == "{" ------------------------------------------------
            words = [t.text for t in head]
            if not head:
                i = self._skip_braces(i)
                continue
            if words[0] == "namespace":
                i = self._scan_scope(i + 1, cls)
                continue
            kind_idx = self._class_head(head)
            if kind_idx is not None:
                i = self._enter_class(head, kind_idx, i, cls)
                continue
            if words[0] == "enum" or "=" in self._toplevel(head):
                # enum body or a braced initializer: skip the braces,
                # then keep collecting the same statement.
                i = self._skip_braces(i)
                continue
            paren = self._param_group(head)
            if paren is None:
                i = self._skip_braces(i)
                continue
            i = self._function(head, paren, i, cls)
        return i

    def _collect_head(self, i):
        """Collect declaration-head tokens until a top-level ';', '{'
        or '}' (not consumed).  Skips attributes, template intros and
        leading access specifiers ("public:"), which belong to no
        declaration."""
        toks = self.toks
        n = len(toks)
        head = []
        depth = 0
        while i < n:
            t = toks[i]
            if t.kind == PP:
                i += 1
                continue
            if not head and t.text in ACCESS_SPECIFIERS and \
                    i + 1 < n and toks[i + 1].text == ":":
                i += 2
                continue
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            elif depth == 0 and t.text in (";", "{", "}"):
                return head, i
            elif t.text == "[" and i + 1 < n and toks[i + 1].text == "[":
                i = self._skip_attr(i)
                continue
            head.append(t)
            i += 1
        return head, i

    def _skip_attr(self, i):
        toks = self.toks
        depth = 0
        while i < len(toks):
            if toks[i].text == "[":
                depth += 1
            elif toks[i].text == "]":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return i

    def _skip_braces(self, i):
        toks = self.toks
        depth = 0
        while i < len(toks):
            if toks[i].text == "{":
                depth += 1
            elif toks[i].text == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return i

    @staticmethod
    def _toplevel(head):
        """Texts of head tokens outside any paren/angle nesting."""
        out = []
        pd = ad = 0
        for t in head:
            if t.text == "(":
                pd += 1
            elif t.text == ")":
                pd -= 1
            elif t.text == "<":
                ad += 1
            elif t.text == ">" and ad:
                ad -= 1
            elif pd == 0 and ad == 0:
                out.append(t.text)
        return out

    @staticmethod
    def _class_head(head):
        """Index of 'class'/'struct' keyword when the head introduces a
        class, else None."""
        j = 0
        if head and head[0].text == "template":
            ad = 0
            while j < len(head):
                if head[j].text == "<":
                    ad += 1
                elif head[j].text == ">":
                    ad -= 1
                    if ad == 0:
                        j += 1
                        break
                j += 1
        if j < len(head) and head[j].text in ("class", "struct"):
            # A parameter list before any ':' means "function returning
            # struct X" or similar — not a class definition.
            for t in head[j:]:
                if t.text == "(":
                    return None
                if t.text == ":":
                    break
            return j
        return None

    def _enter_class(self, head, kidx, i, outer):
        name = None
        bases = []
        j = kidx + 1
        while j < len(head) and head[j].text in ("final", "alignas"):
            j += 1
        if j < len(head) and head[j].kind == IDENT:
            name = head[j].text
        # bases: after a top-level ':'
        seen_colon = False
        ad = 0
        for k in range(j + 1, len(head)):
            t = head[k]
            if t.text == "<":
                ad += 1
            elif t.text == ">":
                ad = max(0, ad - 1)
            elif t.text == ":" and ad == 0:
                seen_colon = True
            elif seen_colon and ad == 0 and t.kind == IDENT and \
                    t.text not in ("public", "protected", "private",
                                   "virtual", "final"):
                bases.append(t.text)
        if name is None:
            return self._skip_braces(i)
        # "::"-qualified bases keep only the last component, which is
        # already how the append above behaves (each component appended,
        # last one wins for the membership test in rules).
        info = self.obs.classes.setdefault(
            name, ClassInfo(name, [], self.path, head[kidx].line))
        if info.line == 0:
            # Placeholder created by a method definition scanned before
            # the header: adopt the real declaration site.
            info.file = self.path
            info.line = head[kidx].line
        info.bases.extend(bases)
        end = self._scan_scope(i + 1, cls=name)
        return end

    # -- declarations ----------------------------------------------------

    def _declaration(self, head, cls):
        if not head:
            return
        words = [t.text for t in head]
        if words[0] == "using" and "=" in words:
            eq = words.index("=")
            kind = self._container_kind(head[eq:])
            if kind and eq >= 2:
                self.aliases[words[1]] = kind
            return
        paren = self._param_group(head)
        if paren is not None:
            lo, hi = paren
            mname = self._callee_name(head, lo)
            if mname:
                if cls:
                    ci = self._class(cls)
                    ci.methods.add(mname)
                    if any(t.text == "MMR_HOT_PATH" for t in head[:lo]):
                        ci.hot_decls.add(mname)
                elif any(t.text == "MMR_HOT_PATH" for t in head[:lo]):
                    self.hot_free_decls.add(mname)
                kind = self._container_kind(head[:lo])
                if kind:
                    self.method_returns[mname] = kind
                self._param_decls(head[lo + 1:hi], mname)
            return
        self._var_decl(head, cls)

    def _var_decl(self, head, cls):
        """Member or file-scope variable declaration."""
        kind = self._container_kind(head)
        name = self._declared_name(head)
        tname = self._declared_type(head, name)
        if tname:
            self.obs.member_var_types[(cls or "", name)] = tname
        if kind and name:
            scope = f"member:{cls}" if cls else "global:"
            self.member_types[(cls or "", name)] = kind
            self.obs.decls.append(VarDecl(
                name, kind + self._ptr_key_marker(head), scope,
                self.path, head[0].line))
        elif name and self._builtin_int(head, name):
            scope = f"member:{cls}" if cls else "global:"
            self.obs.decls.append(VarDecl(
                name, self._int_type_text(head), scope,
                self.path, head[0].line))

    def _param_decls(self, params, fn_name):
        """Record the parameter declarations of interest."""
        for g in self._param_groups(params):
            if not g:
                continue
            name = self._declared_name(g)
            if not name:
                continue
            kind = self._container_kind(g)
            if kind:
                self.member_types[("", name)] = kind  # weak fallback
                self.obs.decls.append(VarDecl(
                    name, kind + self._ptr_key_marker(g),
                    f"param:{fn_name}", self.path, g[0].line))
            elif self._builtin_int(g, name):
                self.obs.decls.append(VarDecl(
                    name, self._int_type_text(g), f"param:{fn_name}",
                    self.path, g[0].line))

    @staticmethod
    def _declared_type(head, name):
        """Type name directly before the declared @p name, skipping
        `&`, `*` and `const` (`const VcState &vc` -> "VcState");
        None when a template argument list or nothing precedes it."""
        k = next((k for k, t in enumerate(head) if t.text == name), None)
        if k is None:
            return None
        k -= 1
        while k >= 0 and head[k].text in ("&", "*", "&&", "const"):
            k -= 1
        if k >= 0 and head[k].kind == IDENT:
            return head[k].text
        return None

    @staticmethod
    def _int_type_text(head):
        words = []
        for t in head:
            if t.text in BUILTIN_INT or t.text in ("const", "std"):
                words.append(t.text)
        return " ".join(w for w in words if w not in ("const", "std"))

    @staticmethod
    def _builtin_int(head, name):
        """True when the declared type is a raw builtin integer."""
        for t in head:
            if t.kind != IDENT:
                continue
            if t.text in ("const", "static", "constexpr", "inline",
                          "mutable", "std", "volatile", "typename"):
                continue
            if t.text == name:
                return False
            return t.text in BUILTIN_INT
        return False

    def _container_kind(self, toks_):
        for t in toks_:
            if t.kind == IDENT:
                if t.text in UNORDERED:
                    return t.text
                if t.text in MAP_LIKE or t.text in SET_LIKE:
                    return t.text
                if t.text in self.aliases:
                    return self.aliases[t.text]
        return None

    @staticmethod
    def _ptr_key_marker(toks_):
        """'<ptr-key>' when the first template argument of a map/set
        type is a pointer."""
        ad = 0
        for k, t in enumerate(toks_):
            if t.text == "<":
                ad += 1
                if ad == 1:
                    # scan first top-level template arg
                    depth = 1
                    j = k + 1
                    while j < len(toks_) and depth:
                        x = toks_[j].text
                        if x == "<":
                            depth += 1
                        elif x == ">":
                            depth -= 1
                        elif depth == 1 and x == ",":
                            break
                        elif depth == 1 and x == "*":
                            return "<ptr-key>"
                        j += 1
                    return ""
            elif t.text == ">" and ad:
                ad -= 1
        return ""

    @staticmethod
    def _declared_name(head):
        """Last identifier before '=', '{' or end — the declared name
        for a member/param; None when it looks like a type-only head."""
        last = None
        ad = pd = 0
        for t in head:
            if t.text == "<":
                ad += 1
            elif t.text == ">" and ad:
                ad -= 1
            elif t.text == "(":
                pd += 1
            elif t.text == ")":
                pd -= 1
            elif ad == 0 and pd == 0:
                if t.text in ("=", "{"):
                    break
                if t.kind == IDENT and t.text not in (
                        "const", "static", "constexpr", "inline",
                        "mutable", "virtual", "override", "final",
                        "noexcept", "std", "operator", "struct",
                        "class", "enum", "typename", "unsigned",
                        "signed", "long", "short"):
                    last = t.text
                elif t.kind == IDENT:
                    # builtin / qualifier keywords: a following bare
                    # "unsigned x" still needs x; keep scanning.
                    if t.text in ("unsigned", "signed", "long", "short"):
                        continue
        return last

    @staticmethod
    def _param_group(head):
        """(open_idx, close_idx) of the *parameter list* paren group in
        a declaration head, i.e. the first top-level '(' directly
        preceded by an identifier/operator; None otherwise."""
        pd = 0
        ad = 0
        for k, t in enumerate(head):
            if t.text == "<":
                ad += 1
            elif t.text == ">" and ad:
                ad -= 1
            elif t.text == "(" and ad == 0:
                if pd == 0:
                    prev = head[k - 1] if k else None
                    prevprev = head[k - 2] if k >= 2 else None
                    named = prev is not None and (
                        prev.kind == IDENT or prev.text == "~" or
                        (prevprev is not None
                         and prevprev.text == "operator"))
                    if named and prev.text not in ("return",):
                        # find matching close
                        depth = 0
                        for j in range(k, len(head)):
                            if head[j].text == "(":
                                depth += 1
                            elif head[j].text == ")":
                                depth -= 1
                                if depth == 0:
                                    return (k, j)
                        return None
                pd += 1
            elif t.text == ")":
                pd -= 1
        return None

    @staticmethod
    def _callee_name(head, paren_idx):
        """Function name directly before its parameter '('."""
        k = paren_idx - 1
        if k < 0:
            return None
        t = head[k]
        if t.kind == IDENT:
            if k >= 1 and head[k - 1].text == "~":
                return "~" + t.text
            return t.text
        if k >= 1 and head[k - 1].text == "operator":
            return "operator" + t.text
        return None

    # -- function definitions -------------------------------------------

    def _function(self, head, paren, i, cls):
        """head ends just before a '{' that is either the body or a
        constructor-init-list brace initializer."""
        toks = self.toks
        lo, hi = paren
        name = self._callee_name(head, lo)
        if name is None:
            return self._skip_braces(i)
        # Qualified definition:  Cls::name(...)  { }
        fn_cls = cls
        if lo >= 3 and head[lo - 2].text == "::" and \
                head[lo - 3].kind == IDENT:
            fn_cls = head[lo - 3].text
        # Constructor init list: decide whether this '{' opens the body.
        # After the parameter list, a top-level ':' starts the init
        # list; inside it, a brace directly after an identifier is a
        # brace-initializer, which we skip.
        tail = self._toplevel(head[hi + 1:])
        in_init_list = ":" in tail
        while in_init_list and i < len(toks) and toks[i].text == "{":
            prev = head[-1] if head else None
            if prev is not None and prev.kind == IDENT and \
                    prev.text not in ("const", "noexcept", "override",
                                      "final"):
                i = self._skip_braces(i)
                head, i = self._collect_head(i)
                if i >= len(toks) or toks[i].text != "{":
                    return i + 1 if i < len(toks) else i
            else:
                break
        if i >= len(toks) or toks[i].text != "{":
            return i
        hot = any(t.text == "MMR_HOT_PATH" for t in head[:lo])
        fn = FunctionInfo(fn_cls, name, self.path, head[lo - 1].line,
                          head[lo - 1].line, hot=hot,
                          head_line=head[0].line if head else
                          head[lo - 1].line)
        fn._locals = {}
        if fn_cls:
            ci = self._class(fn_cls)
            ci.methods.add(name)
        self._param_decls(head[lo + 1:hi], name)
        for g in self._param_groups(head[lo + 1:hi]):
            g_name = self._declared_name(g)
            if not g_name:
                continue
            g_kind = self._container_kind(g)
            if g_kind:
                fn._locals[g_name] = g_kind
            g_type = self._declared_type(g, g_name)
            if g_type:
                fn.var_types[g_name] = g_type
        end = self._scan_body(i, fn)
        fn.end_line = toks[end - 1].line if end - 1 < len(toks) else \
            toks[-1].line
        self.obs.functions.append(fn)
        self.scan.functions.append(fn)
        return end

    @staticmethod
    def _param_groups(params):
        """A parameter list split on its top-level commas."""
        groups = [[]]
        pd = ad = 0
        for t in params:
            if t.text == "(":
                pd += 1
            elif t.text == ")":
                pd -= 1
            elif t.text == "<":
                ad += 1
            elif t.text == ">" and ad:
                ad -= 1
            if t.text == "," and pd == 0 and ad == 0:
                groups.append([])
            else:
                groups[-1].append(t)
        return groups

    def _class(self, name) -> ClassInfo:
        return self.obs.classes.setdefault(
            name, ClassInfo(name, [], self.path, 0))

    def _scan_body(self, i, fn):
        """Scan a balanced function body starting at '{'; record calls,
        allocations, loops, subscripts, and local declarations."""
        toks = self.toks
        n = len(toks)
        depth = 0
        while i < n:
            t = toks[i]
            x = t.text
            if x == "{":
                depth += 1
            elif x == "}":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif x == "for" and i + 1 < n and toks[i + 1].text == "(":
                self._range_for(i, fn)
            elif t.kind == IDENT:
                nxt = toks[i + 1].text if i + 1 < n else ""
                prev = toks[i - 1].text if i else ""
                if x in SIZED_CONTAINERS and prev == "::" and \
                        toks[i - 2].text == "std":
                    self._sized_construction(i, fn)
                if x == "new" and prev not in (".", "->", "::"):
                    what = "placement-new" if nxt == "(" else "new"
                    fn.alloc_sites.append(
                        SiteNote(what, self.path, t.line))
                elif x in UNORDERED or x in MAP_LIKE or x in SET_LIKE:
                    self._local_decl(i, fn)
                elif nxt == "(" and x not in _KEYWORDS:
                    is_member = prev in (".", "->")
                    qual = ""
                    if is_member and i >= 2 and toks[i - 2].kind == IDENT:
                        qual = toks[i - 2].text
                    elif prev == "::" and i >= 2 and \
                            toks[i - 2].kind == IDENT:
                        qual = toks[i - 2].text
                    fn.calls.append(CallSite(x, qual, is_member,
                                             self.path, t.line))
                    if x in ALLOC_FREE_CALLS and not is_member:
                        fn.alloc_sites.append(
                            SiteNote(x, self.path, t.line))
                    if x in ("begin", "cbegin", "rbegin") and is_member:
                        chain = self._chain_before(i - 1)
                        if chain:
                            self.scan.raw_loops.append(
                                (".".join(chain) + "." + x + "()",
                                 chain, fn, t.line, fn._locals))
                elif nxt == "[" and prev not in (".", "->", "::"):
                    self.scan.raw_subscripts.append(
                        (x, fn, t.line, fn._locals))
                elif x in ("make_unique", "make_shared") and nxt == "<":
                    fn.alloc_sites.append(SiteNote(x, self.path, t.line))
                elif x[:1].isupper() and prev not in (".", "->"):
                    self._typed_local(i, fn)
            i += 1
        return i

    def _typed_local(self, i, fn):
        """Token i names a (CamelCase, i.e. project) type inside a body:
        if `Type [const] [&*] name` declares a local, record its type."""
        toks = self.toks
        j = i + 1
        while j < len(toks) and toks[j].text in ("&", "*", "&&", "const"):
            j += 1
        if j + 1 < len(toks) and toks[j].kind == IDENT and \
                toks[j + 1].text in ("=", ";", "(", "{", ":"):
            fn.var_types[toks[j].text] = toks[i].text

    def _after_angles(self, j):
        """Index just past the template argument list whose '<' is at
        j, or None when a ';' or a brace comes first."""
        toks = self.toks
        depth = 0
        while j < len(toks):
            x = toks[j].text
            if x == "<":
                depth += 1
            elif x == ">":
                depth -= 1
            elif x == ">>":
                depth -= 2
            elif x in (";", "{", "}"):
                return None
            if depth <= 0:
                return j + 1
            j += 1
        return None

    def _sized_construction(self, i, fn):
        """Token i names a SIZED_CONTAINERS type after `std::` inside a
        body: a local or a temporary constructed with arguments
        (`std::vector<T> v(n)`, `std::string{p, n}`) is an allocation
        site.  Declarations without arguments, references and
        `::`-qualified names (`std::string::npos`) are not."""
        toks = self.toks
        if i >= 3 and toks[i - 3].text == "->":
            return  # a lambda's trailing return type
        j = i + 1
        if j < len(toks) and toks[j].text == "<":
            j = self._after_angles(j)
            if j is None:
                return
        if j < len(toks) and toks[j].kind == IDENT:
            j += 1  # the local's name
        if j + 1 < len(toks) and toks[j].text in ("(", "{") and \
                toks[j + 1].text not in (")", "}"):
            fn.alloc_sites.append(SiteNote(
                f"std::{toks[i].text}(...)", self.path, toks[i].line))

    def _local_decl(self, i, fn):
        """Token i names a container type inside a body: if this is a
        local declaration, record its name -> kind."""
        toks = self.toks
        kind = toks[i].text
        j = i + 1
        if j < len(toks) and toks[j].text == "<":
            j = self._after_angles(j)
            if j is None:
                return
        while j < len(toks) and toks[j].text in ("&", "*", "const"):
            j += 1
        if j < len(toks) and toks[j].kind == IDENT:
            fn._locals[toks[j].text] = kind

    def _chain_before(self, dot_idx):
        """Identifier chain ending at the '.'/'->' at dot_idx, e.g.
        ['harness', 'connRx()'] for harness.connRx()."""
        toks = self.toks
        chain = []
        k = dot_idx - 1
        while k >= 0:
            t = toks[k]
            if t.text == ")" and k >= 1 and toks[k - 1].text == "(" \
                    and k >= 2 and toks[k - 2].kind == IDENT:
                chain.append(toks[k - 2].text + "()")
                k -= 3
            elif t.kind == IDENT:
                chain.append(t.text)
                k -= 1
            else:
                break
            if k >= 0 and toks[k].text in (".", "->", "::"):
                k -= 1
            else:
                break
        chain.reverse()
        return chain

    def _range_for(self, i, fn):
        """Detect `for (decl : range)` and record the range expr."""
        toks = self.toks
        n = len(toks)
        depth = 0
        colon = None
        j = i + 1
        while j < n:
            x = toks[j].text
            if x == "(":
                depth += 1
            elif x == ")":
                depth -= 1
                if depth == 0:
                    break
            elif x == ":" and depth == 1:
                colon = j
            elif x == ";" and depth == 1:
                colon = None      # classic for loop
                break
            j += 1
        if colon is None or j >= n:
            return
        expr_toks = toks[colon + 1:j]
        expr = "".join(
            (t.text + (" " if t.kind == IDENT else ""))
            for t in expr_toks).strip()
        chain = []
        for t in expr_toks:
            if t.kind == IDENT:
                chain.append(t.text)
            elif t.text == "(" and chain:
                chain[-1] += "()"
            elif t.text in (".", "->", "::", ")", "*", "&"):
                continue
            else:
                chain = chain  # ignore other tokens
        self.scan.raw_loops.append(
            (expr, chain, fn, toks[colon].line, fn._locals))

    # -- pass 2: cross-file resolution ----------------------------------

    def _resolve(self):
        for scan in self.scans:
            for expr, chain, fn, line, locals_map in scan.raw_loops:
                kind = self._resolve_chain(chain, fn, locals_map)
                if kind in UNORDERED:
                    self.obs.loops.append(LoopSite(
                        expr, kind, fn.cls, fn.name, scan.path, line))
            for base, fn, line, locals_map in scan.raw_subscripts:
                kind = self._resolve_chain([base], fn, locals_map)
                if kind in MAP_LIKE:
                    fn.map_subscripts.append(SiteNote(
                        f"{base}[] ({kind}::operator[])",
                        scan.path, line))

    def _resolve_chain(self, chain, fn, locals_map):
        if not chain:
            return None
        last = chain[-1]
        if last.endswith("()"):
            return self.method_returns.get(last[:-2])
        if last in locals_map:
            return locals_map[last]
        if fn.cls and (fn.cls, last) in self.member_types:
            return self.member_types[(fn.cls, last)]
        if ("", last) in self.member_types:
            return self.member_types[("", last)]
        if len(chain) == 1:
            # Unqualified name: fall back to a unique project-wide
            # member with that name (headers declare, .cc iterates).
            hits = {k for (c, m), k in self.member_types.items()
                    if m == last}
            if len(hits) == 1:
                return next(iter(hits))
        else:
            # obj.member: resolve the member name across all classes.
            hits = {k for (c, m), k in self.member_types.items()
                    if m == last and c}
            if len(hits) == 1:
                return next(iter(hits))
        return self.aliases.get(last)
