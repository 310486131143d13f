"""KEY001 -- every dataclass field joins ``cache_key()`` or is exempted.

The evaluation cache memoizes child evaluations by content fingerprint; a
spec field that silently skips the fingerprint means two *different*
computations share a cache entry -- the exact drift PRs 3-4 had to handle
by hand when new spec sections landed.  For every dataclass that defines a
``cache_key()`` method, this rule diffs the field set against the names the
method references and requires each unreferenced field to appear in an
explicit class-level exemption list::

    @dataclass(frozen=True)
    class ArchitectureDescriptor:
        name: str          # a label, not content
        ...
        # Fields deliberately excluded from the fingerprint.
        CACHE_KEY_EXEMPT = ("name", "family")

A field counts as referenced when the method body reads ``self.<field>``,
mentions the field name as a string literal (dict-payload fingerprints), or
delegates to ``self.to_dict()`` / ``dataclasses.asdict(self)`` (which see
every field).  Unknown names in ``CACHE_KEY_EXEMPT`` are errors too, so the
exemption list cannot rot as fields are renamed.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.analysis.findings import ERROR, Finding
from repro.analysis.project import ModuleInfo
from repro.analysis.visitor import Rule

EXEMPT_ATTR = "CACHE_KEY_EXEMPT"

# Calls inside cache_key() that observe every field of the instance.
_SEES_ALL_METHODS = frozenset({"to_dict", "as_dict", "_asdict"})
_SEES_ALL_FUNCTIONS = frozenset({"asdict", "astuple"})


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _dataclass_fields(node: ast.ClassDef) -> List[str]:
    """Names the dataclass decorator turns into fields (annotated, non-ClassVar)."""
    names: List[str] = []
    for statement in node.body:
        if not isinstance(statement, ast.AnnAssign):
            continue
        if not isinstance(statement.target, ast.Name):
            continue
        annotation = ast.unparse(statement.annotation)
        if "ClassVar" in annotation or "InitVar" in annotation:
            continue
        names.append(statement.target.id)
    return names


def _exempt_fields(node: ast.ClassDef) -> Optional[Set[str]]:
    """The ``CACHE_KEY_EXEMPT`` tuple/list of the class body, if declared."""
    for statement in node.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        for target in targets:
            if isinstance(target, ast.Name) and target.id == EXEMPT_ATTR:
                names: Set[str] = set()
                if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
                    for element in value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            names.add(element.value)
                return names
    return None


def _referenced_fields(method: ast.FunctionDef, field_names: Set[str]) -> Set[str]:
    """Field names the method body observes; all of them when it delegates."""
    referenced: Set[str] = set()
    for node in ast.walk(method):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            if node.attr in field_names:
                referenced.add(node.attr)
            if node.attr in _SEES_ALL_METHODS:
                return set(field_names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in field_names:
                referenced.add(node.value)
        elif isinstance(node, ast.Call):
            func = node.func
            leaf = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None
            )
            if leaf in _SEES_ALL_FUNCTIONS and any(
                isinstance(arg, ast.Name) and arg.id == "self" for arg in node.args
            ):
                return set(field_names)
    return referenced


class CacheKeyHygieneRule(Rule):
    """KEY001: dataclass fields vs cache_key() references (see module docstring)."""

    rule_id = "KEY001"
    severity = ERROR
    description = (
        "every field of a cache_key()-bearing dataclass must join the "
        "fingerprint or appear in CACHE_KEY_EXEMPT"
    )
    interests = (ast.ClassDef,)

    def visit(self, node: ast.AST, module: ModuleInfo) -> Iterable[Finding]:
        assert isinstance(node, ast.ClassDef)
        if not _is_dataclass_decorated(node):
            return
        method = next(
            (
                stmt
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "cache_key"
            ),
            None,
        )
        if method is None:
            return
        field_names = set(_dataclass_fields(node))
        exempt = _exempt_fields(node)
        referenced = _referenced_fields(method, field_names)
        unknown_exempt = sorted((exempt or set()) - field_names)
        if unknown_exempt:
            yield self.finding(
                module,
                node,
                f"{EXEMPT_ATTR} of {node.name} names unknown field(s) "
                f"{', '.join(unknown_exempt)}; remove or fix the stale entries",
            )
        missing = sorted(field_names - referenced - (exempt or set()))
        if missing:
            yield self.finding(
                module,
                method,
                f"cache_key() of {node.name} ignores field(s) "
                f"{', '.join(missing)}; fingerprint them or list them in "
                f"{EXEMPT_ATTR} to mark the exclusion deliberate",
            )
