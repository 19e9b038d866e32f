"""Custom AST lint rules for the fixed-point codebase (RPC001-RPC004).

The fixed-point layers manipulate *raw words* — plain integers whose value
is only meaningful together with a :class:`~repro.fixedpoint.qformat.QFormat`.
The bug class this linter exists for is silently re-interpreting a raw word
as a real number (or vice versa): dividing a raw word with ``/``, masking
it with a magic constant instead of the format's modulus, or letting numpy
promote an integer word array to float64 where 53-bit mantissas quietly
corrupt wide words.  Generic linters cannot see this distinction; these
rules encode it structurally, using the repo convention that identifiers
containing ``raw`` hold raw words.

Rules
-----
- **RPC001** — no float literals mixed into, and no ``/`` true division
  on, raw-word expressions (scope: ``fixedpoint/``, ``serve/engine.py`` and
  ``signal/fxfir.py``).
  Raw words are scaled integers; ``/`` produces a float and silently drops
  bit-exactness.  Conversions belong in the sanctioned helpers.
- **RPC002** — wrap/mask sites (``%`` or ``&`` on a raw-word expression)
  must take their width from a ``QFormat`` (e.g. ``fmt.modulus``), never a
  bare integer constant (same scope).
- **RPC003** — no float ``astype``/``dtype=`` on raw-word arrays outside
  sanctioned conversion helpers (same scope): float64 holds 53 mantissa
  bits, so the promotion corrupts words of wide formats.
- **RPC004** — public functions raise :mod:`repro.errors` types, never a
  bare ``ValueError`` (scope: all of ``src/repro``).

The serving plane adds a second bug class: shared mutable state touched
from threads, the async batcher loop, and spawn-context cluster workers.
Three concurrency rules encode the repo's serving conventions
(scope: ``serve/``):

- **RPC005** — no mutable module-level state (dict/list/set literals,
  comprehensions, or constructor calls bound at module scope).  Module
  state is silently *duplicated* into spawn-context workers (mutations
  diverge per process) and shared *unlocked* between server threads;
  read-only tables must be annotated with a documented
  ``# repro: noqa-RPC005`` (or made tuples/frozensets).
- **RPC006** — no blocking calls (``time.sleep``, ``open``,
  ``subprocess.*``, ``urllib`` fetches, ...) directly inside ``async
  def`` bodies: one blocking call stalls the entire event loop and every
  in-flight request behind the micro-batcher.  Blocking work belongs in
  ``run_in_executor`` / a thread.
- **RPC007** — no unguarded mutation of ``global`` names from function
  bodies: rebinding shared module globals from request paths is a data
  race unless the write happens under a lock (``with <..lock..>:``).

Suppression: append ``# repro: noqa-RPC001`` (comma-separate several ids:
``# repro: noqa-RPC001,RPC003``) to the offending line; a bare
``# repro: noqa`` suppresses every rule on that line.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import LintError

__all__ = [
    "LintFinding",
    "LintRule",
    "ALL_RULES",
    "SANCTIONED_HELPERS",
    "lint_source",
    "lint_file",
    "lint_paths",
    "render_findings",
]

# Functions allowed to cross the raw-word <-> real boundary.  Everything
# else must go through them.
SANCTIONED_HELPERS: Set[str] = {
    "to_real",
    "dequantize_raw",
    "grid",
    "projections",
}

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:-(?P<rules>[A-Z0-9,\s]+))?")

_FLOAT_DTYPE_NAMES = {"float16", "float32", "float64", "half", "single", "double"}


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    rule: str
    message: str
    path: str
    line: int
    col: int

    def render(self) -> str:
        """``path:line:col: RPCxxx message`` — the CLI output format."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class _FileContext:
    """Shared per-file state handed to every rule."""

    path: str
    source_lines: Sequence[str]
    suppressions: Dict[int, Optional[Set[str]]] = field(default_factory=dict)

    def suppressed(self, line: int, rule: str) -> bool:
        if line not in self.suppressions:
            return False
        rules = self.suppressions[line]
        return rules is None or rule in rules


def _collect_suppressions(source_lines: Sequence[str]) -> Dict[int, Optional[Set[str]]]:
    """Map 1-based line numbers to suppressed rule ids (None = all rules)."""
    out: Dict[int, Optional[Set[str]]] = {}
    for number, text in enumerate(source_lines, start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        spec = match.group("rules")
        if spec is None:
            out[number] = None
        else:
            out[number] = {item.strip() for item in spec.split(",") if item.strip()}
    return out


# ---------------------------------------------------------------------- #
# Raw-word expression heuristics
# ---------------------------------------------------------------------- #
def _identifier_names(node: ast.AST) -> Iterator[str]:
    """All identifier fragments (Name ids and Attribute attrs) in a subtree."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, (ast.arg,)):
            yield child.arg


def _is_rawish(node: ast.AST) -> bool:
    """True if the expression mentions an identifier carrying raw words."""
    return any("raw" in name.lower() for name in _identifier_names(node))


def _is_float_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # A negated float literal parses as UnaryOp(USub, Constant).
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_constant(node.operand)
    return False


def _is_bare_int_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_bare_int_constant(node.operand)
    return False


def _is_float_dtype_expr(node: ast.AST) -> bool:
    """Does this expression denote a float dtype (np.float64, "float32", float)?"""
    if isinstance(node, ast.Attribute):
        return node.attr in _FLOAT_DTYPE_NAMES
    if isinstance(node, ast.Name):
        return node.id == "float" or node.id in _FLOAT_DTYPE_NAMES
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _FLOAT_DTYPE_NAMES or node.value.startswith("float")
    return False


def _enclosing_function_names(
    tree: ast.Module,
) -> Dict[ast.AST, Tuple[str, ...]]:
    """Map every node to the stack of function names enclosing it."""
    out: Dict[ast.AST, Tuple[str, ...]] = {}

    def visit(node: ast.AST, stack: Tuple[str, ...]) -> None:
        out[node] = stack
        child_stack = stack
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            child_stack = stack + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, child_stack)

    visit(tree, ())
    return out


def _in_sanctioned_helper(stack: Tuple[str, ...]) -> bool:
    return any(name in SANCTIONED_HELPERS for name in stack)


# ---------------------------------------------------------------------- #
# Rules
# ---------------------------------------------------------------------- #
class LintRule:
    """Base class: one rule = one id + a scope + a ``check`` pass."""

    id: str = ""
    description: str = ""

    def applies_to(self, path: str) -> bool:
        """Default path scope when linting trees of files (CLI / CI)."""
        raise NotImplementedError

    def check(self, tree: ast.Module, ctx: _FileContext) -> Iterator[LintFinding]:
        """Yield findings for one parsed file."""
        raise NotImplementedError

    # Shared scope predicates -------------------------------------------- #
    @staticmethod
    def _raw_word_scope(path: str) -> bool:
        normalized = path.replace(os.sep, "/")
        return "fixedpoint/" in normalized or normalized.endswith(
            ("serve/engine.py", "signal/fxfir.py")
        )

    @staticmethod
    def _serve_scope(path: str) -> bool:
        normalized = path.replace(os.sep, "/")
        return "serve/" in normalized


class RPC001FloatOnRawWords(LintRule):
    """No float literals or ``/`` true division on raw-word expressions."""

    id = "RPC001"
    description = "float literal or / true-division on a raw-word expression"

    def applies_to(self, path: str) -> bool:
        return self._raw_word_scope(path)

    def check(self, tree: ast.Module, ctx: _FileContext) -> Iterator[LintFinding]:
        stacks = _enclosing_function_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp):
                continue
            if _in_sanctioned_helper(stacks.get(node, ())):
                continue
            left_raw = _is_rawish(node.left)
            right_raw = _is_rawish(node.right)
            if not (left_raw or right_raw):
                continue
            if isinstance(node.op, ast.Div):
                yield LintFinding(
                    rule=self.id,
                    message=(
                        "true division on a raw word produces a float; use "
                        "shift_right_rounded or a sanctioned conversion helper"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                )
            elif _is_float_constant(node.left) or _is_float_constant(node.right):
                yield LintFinding(
                    rule=self.id,
                    message=(
                        "float literal mixed into raw-word arithmetic; raw "
                        "words are scaled integers"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                )


class RPC002BareWidthConstant(LintRule):
    """Wrap/mask sites must reference a QFormat width, not a bare constant."""

    id = "RPC002"
    description = "wrap/mask of a raw word by a bare integer constant"

    def applies_to(self, path: str) -> bool:
        return self._raw_word_scope(path)

    def check(self, tree: ast.Module, ctx: _FileContext) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.BinOp):
                continue
            if not isinstance(node.op, (ast.Mod, ast.BitAnd)):
                continue
            if not _is_rawish(node.left):
                continue
            if _is_bare_int_constant(node.right):
                op = "%" if isinstance(node.op, ast.Mod) else "&"
                yield LintFinding(
                    rule=self.id,
                    message=(
                        f"raw word {op} bare integer constant; derive the "
                        "width from the QFormat (fmt.modulus / fmt.word_length)"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                )


class RPC003SilentFloatPromotion(LintRule):
    """No float dtype promotion of raw-word arrays outside sanctioned helpers."""

    id = "RPC003"
    description = "float dtype promotion of a raw-word array"

    def applies_to(self, path: str) -> bool:
        return self._raw_word_scope(path)

    def check(self, tree: ast.Module, ctx: _FileContext) -> Iterator[LintFinding]:
        stacks = _enclosing_function_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _in_sanctioned_helper(stacks.get(node, ())):
                continue
            finding = self._check_call(node, ctx)
            if finding is not None:
                yield finding

    def _check_call(self, node: ast.Call, ctx: _FileContext) -> Optional[LintFinding]:
        # raw_words.astype(np.float64)
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "astype"
            and _is_rawish(node.func.value)
            and node.args
            and _is_float_dtype_expr(node.args[0])
        ):
            return LintFinding(
                rule=self.id,
                message=(
                    "astype(float) on a raw-word array loses bit-exactness "
                    "beyond 53 bits; convert via a sanctioned helper"
                ),
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
            )
        # np.asarray(raw_words, dtype=np.float64) / np.array(..., dtype=float)
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "asarray",
            "array",
        }:
            arg_rawish = bool(node.args) and _is_rawish(node.args[0])
            for keyword in node.keywords:
                if (
                    keyword.arg == "dtype"
                    and arg_rawish
                    and keyword.value is not None
                    and _is_float_dtype_expr(keyword.value)
                ):
                    return LintFinding(
                        rule=self.id,
                        message=(
                            "float dtype= on a raw-word array loses "
                            "bit-exactness; convert via a sanctioned helper"
                        ),
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                    )
        return None


class RPC004BareBuiltinRaise(LintRule):
    """Public functions raise repro.errors types, not bare ValueError.

    Dunder methods (``__init__``, ``__post_init__``, ...) count as public:
    they validate the arguments of public classes, so a bare ``ValueError``
    there leaks into callers exactly like one raised from a public function
    (the PR-3 conversion missed ``__post_init__`` validators for this
    reason).  Only single-underscore-prefixed helpers stay exempt.
    """

    id = "RPC004"
    description = "public function raises bare ValueError"

    _BANNED = {"ValueError"}

    def applies_to(self, path: str) -> bool:
        normalized = path.replace(os.sep, "/")
        return "repro/" in normalized and normalized.endswith(".py")

    @staticmethod
    def _is_private(name: str) -> bool:
        return name.startswith("_") and not (
            name.startswith("__") and name.endswith("__")
        )

    def check(self, tree: ast.Module, ctx: _FileContext) -> Iterator[LintFinding]:
        stacks = _enclosing_function_names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            stack = stacks.get(node, ())
            if not stack or self._is_private(stack[-1]):
                continue  # module level or private helper
            name = self._raised_name(node.exc)
            if name in self._BANNED:
                yield LintFinding(
                    rule=self.id,
                    message=(
                        f"public function {stack[-1]!r} raises bare {name}; "
                        "raise a repro.errors type (e.g. InputValidationError)"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                )

    @staticmethod
    def _raised_name(exc: ast.AST) -> Optional[str]:
        if isinstance(exc, ast.Call):
            exc = exc.func
        if isinstance(exc, ast.Name):
            return exc.id
        return None


class RPC005ModuleMutableState(LintRule):
    """Serve modules must not bind mutable containers at module scope.

    Spawn-context cluster workers re-import the module, so each process
    gets its *own copy* of the state (mutations silently diverge), while
    the threaded server shares one copy *unlocked*.  Immutable tables
    (tuples, frozensets) and dunder metadata (``__all__``) are exempt;
    genuinely read-only dicts carry a documented ``# repro: noqa-RPC005``.
    """

    id = "RPC005"
    description = "mutable module-level state in a serving module"

    def applies_to(self, path: str) -> bool:
        return self._serve_scope(path)

    @staticmethod
    def _is_mutable_value(node: ast.AST) -> bool:
        if isinstance(node, (ast.Dict, ast.List, ast.Set)):
            return True
        if isinstance(node, (ast.DictComp, ast.ListComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"dict", "list", "set", "bytearray", "defaultdict"}
        return False

    @staticmethod
    def _is_dunder(name: str) -> bool:
        return name.startswith("__") and name.endswith("__")

    def check(self, tree: ast.Module, ctx: _FileContext) -> Iterator[LintFinding]:
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value: Optional[ast.AST] = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            if value is None or not self._is_mutable_value(value):
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names or all(self._is_dunder(name) for name in names):
                continue
            yield LintFinding(
                rule=self.id,
                message=(
                    f"module-level mutable state {', '.join(names)!s}; "
                    "spawn-context workers duplicate it and server threads "
                    "share it unlocked — use a tuple/frozenset or move it "
                    "into an instance"
                ),
                path=ctx.path,
                line=stmt.lineno,
                col=stmt.col_offset,
            )


class RPC006BlockingCallInAsync(LintRule):
    """No blocking calls directly inside ``async def`` bodies.

    One synchronous sleep, file open, subprocess, or URL fetch inside the
    micro-batcher's event loop stalls *every* in-flight request — the
    batcher's whole point is that requests only ever await.  Nested
    synchronous ``def``s are exempt: they are the standard shape for
    ``run_in_executor`` targets.
    """

    id = "RPC006"
    description = "blocking call inside an async function"

    # (module, attribute) pairs that block the calling thread.
    _BLOCKING_ATTRS = {
        ("time", "sleep"),
        ("os", "system"),
        ("subprocess", "run"),
        ("subprocess", "call"),
        ("subprocess", "check_call"),
        ("subprocess", "check_output"),
        ("subprocess", "Popen"),
        ("socket", "create_connection"),
        ("requests", "get"),
        ("requests", "post"),
        ("requests", "put"),
        ("requests", "delete"),
        ("requests", "request"),
    }
    # Attribute names that block regardless of the object they hang off
    # (urllib.request.urlopen has a two-level module path).
    _BLOCKING_ATTR_NAMES = {"urlopen"}
    _BLOCKING_BUILTINS = {"open", "input"}

    def applies_to(self, path: str) -> bool:
        return self._serve_scope(path)

    def _is_blocking(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name) and func.id in self._BLOCKING_BUILTINS:
            return func.id
        if isinstance(func, ast.Attribute):
            if func.attr in self._BLOCKING_ATTR_NAMES:
                return func.attr
            if isinstance(func.value, ast.Name):
                if (func.value.id, func.attr) in self._BLOCKING_ATTRS:
                    return f"{func.value.id}.{func.attr}"
        return None

    def check(self, tree: ast.Module, ctx: _FileContext) -> Iterator[LintFinding]:
        # Map every node to its *innermost* enclosing function node, so a
        # sync helper nested inside an async def is attributed to itself.
        owner: Dict[ast.AST, Optional[ast.AST]] = {}

        def visit(node: ast.AST, current: Optional[ast.AST]) -> None:
            owner[node] = current
            child_owner = current
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                child_owner = node
            for child in ast.iter_child_nodes(node):
                visit(child, child_owner)

        visit(tree, None)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(owner.get(node), ast.AsyncFunctionDef):
                continue
            blocked = self._is_blocking(node)
            if blocked is not None:
                yield LintFinding(
                    rule=self.id,
                    message=(
                        f"blocking call {blocked!r} inside an async function "
                        "stalls the event loop; use run_in_executor or an "
                        "async equivalent"
                    ),
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                )


class RPC007UnguardedGlobalMutation(LintRule):
    """No unguarded writes to ``global`` names from function bodies.

    A function that declares ``global state`` and rebinds it from a
    request path races every other server thread reading it.  A write
    inside a ``with`` block whose context expression mentions a lock
    (identifier containing ``lock``) counts as guarded.
    """

    id = "RPC007"
    description = "unguarded assignment to a global from a function body"

    def applies_to(self, path: str) -> bool:
        return self._serve_scope(path)

    @staticmethod
    def _target_names(node: ast.AST) -> Iterator[str]:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                yield from RPC007UnguardedGlobalMutation._target_names(element)

    @staticmethod
    def _is_lock_guard(with_node: ast.With) -> bool:
        for item in with_node.items:
            if any(
                "lock" in name.lower()
                for name in _identifier_names(item.context_expr)
            ):
                return True
        return False

    def check(self, tree: ast.Module, ctx: _FileContext) -> Iterator[LintFinding]:
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            declared: Set[str] = set()
            for stmt in ast.walk(fn):
                if isinstance(stmt, ast.Global):
                    declared.update(stmt.names)
            if not declared:
                continue
            yield from self._check_body(fn, declared, ctx, guarded=False)

    def _check_body(
        self,
        node: ast.AST,
        declared: Set[str],
        ctx: _FileContext,
        guarded: bool,
    ) -> Iterator[LintFinding]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested functions have their own global decls
            child_guarded = guarded
            if isinstance(child, ast.With) and self._is_lock_guard(child):
                child_guarded = True
            if not guarded and isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                hit = sorted(
                    {
                        name
                        for target in targets
                        for name in self._target_names(target)
                        if name in declared
                    }
                )
                if hit:
                    yield LintFinding(
                        rule=self.id,
                        message=(
                            f"unguarded write to global {', '.join(hit)!s}; "
                            "hold a lock around shared-state mutation or "
                            "make the state instance-owned"
                        ),
                        path=ctx.path,
                        line=child.lineno,
                        col=child.col_offset,
                    )
            yield from self._check_body(child, declared, ctx, child_guarded)


ALL_RULES: Tuple[LintRule, ...] = (
    RPC001FloatOnRawWords(),
    RPC002BareWidthConstant(),
    RPC003SilentFloatPromotion(),
    RPC004BareBuiltinRaise(),
    RPC005ModuleMutableState(),
    RPC006BlockingCallInAsync(),
    RPC007UnguardedGlobalMutation(),
)


# ---------------------------------------------------------------------- #
# Engine
# ---------------------------------------------------------------------- #
def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[LintRule]] = None,
) -> List[LintFinding]:
    """Lint one source string with the given rules (default: all rules).

    Path-based scoping is *not* applied here — callers (and fixture tests)
    choose the rules explicitly; :func:`lint_file` applies default scopes.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"cannot parse {path}: {exc}") from exc
    source_lines = source.splitlines()
    ctx = _FileContext(
        path=path,
        source_lines=source_lines,
        suppressions=_collect_suppressions(source_lines),
    )
    findings: List[LintFinding] = []
    for rule in rules if rules is not None else ALL_RULES:
        for finding in rule.check(tree, ctx):
            if not ctx.suppressed(finding.line, finding.rule):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_file(path: str, rules: Optional[Sequence[LintRule]] = None) -> List[LintFinding]:
    """Lint one file, selecting applicable rules by its path."""
    try:
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise LintError(f"cannot read {path}: {exc}") from exc
    pool = rules if rules is not None else ALL_RULES
    selected = [rule for rule in pool if rule.applies_to(path)]
    if not selected:
        return []
    return lint_source(source, path=path, rules=selected)


def lint_paths(
    paths: Iterable[str], rules: Optional[Sequence[LintRule]] = None
) -> List[LintFinding]:
    """Lint files and directory trees (``.py`` files, recursively)."""
    findings: List[LintFinding] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, _dirnames, filenames in os.walk(path):
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        findings.extend(
                            lint_file(os.path.join(dirpath, filename), rules=rules)
                        )
        elif path.endswith(".py"):
            findings.extend(lint_file(path, rules=rules))
        else:
            raise LintError(f"not a python file or directory: {path}")
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def render_findings(findings: Sequence[LintFinding]) -> str:
    """CLI rendering: one line per finding plus a summary line."""
    lines = [finding.render() for finding in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"{len(findings)} {noun}")
    return "\n".join(lines)
