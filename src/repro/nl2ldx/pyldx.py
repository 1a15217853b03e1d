"""PyLDX: the intermediate, non-executable Pandas-style code representation.

Section 6 of the paper derives LDX from natural language through an
intermediate code representation: the LLM first emits *template* Pandas code
("PyLDX") containing ``<PLACEHOLDER>`` markers for the parameters the ADE
engine should discover, and a second prompt translates that code into formal
LDX.  This module implements both directions:

* :func:`parse_pyldx` — parse PyLDX text into a small dataflow program,
* :func:`pyldx_to_ldx` — translate a program into LDX text (the job of the
  Pandas-to-LDX prompt),
* :func:`ldx_to_pyldx` — render an LDX query as PyLDX code (used to build
  few-shot examples and by the simulated LLM).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from repro.ldx.ast import LdxQuery
from repro.ldx.parser import parse_ldx
from repro.ldx.patterns import FieldPattern

_PLACEHOLDER_RE = re.compile(r"^<(?P<name>[A-Za-z_][A-Za-z_0-9]*)>$")
_READ_RE = re.compile(r"^(?P<var>\w+)\s*=\s*pd\.read_csv\((?P<args>.*)\)\s*$")
_FILTER_RE = re.compile(
    r"^(?P<var>\w+)\s*=\s*(?P<source>\w+)\[\s*(?P=source)\[(?P<quote>['\"])(?P<attr>[^'\"]+)(?P=quote)\]\s*"
    r"(?P<op>==|!=|>=|<=|>|<)\s*(?P<term>.+?)\s*\]\s*$"
)
_GROUP_RE = re.compile(
    r"^(?P<var>\w+)\s*=\s*(?P<source>\w+)\.groupby\(\s*(?P<col>[^)]+?)\s*\)"
    r"(?:\[(?P<aggcol>[^\]]+)\])?\.agg\(\s*(?P<agg>[^)]+?)\s*\)\s*$"
)

_PANDAS_OPS = {"==": "eq", "!=": "neq", ">": "gt", ">=": "ge", "<": "lt", "<=": "le"}
_OPS_TO_PANDAS = {v: k for k, v in _PANDAS_OPS.items()}


class PyLdxError(Exception):
    """The PyLDX code could not be parsed."""


@dataclass(frozen=True)
class PyLdxValue:
    """A field value in PyLDX: a literal or a ``<PLACEHOLDER>``."""

    text: str
    placeholder: Optional[str] = None

    @classmethod
    def parse(cls, raw: str) -> "PyLdxValue":
        cleaned = raw.strip().strip("'\"")
        match = _PLACEHOLDER_RE.match(cleaned)
        if match:
            return cls(text=cleaned, placeholder=match.group("name"))
        return cls(text=cleaned)

    @property
    def is_placeholder(self) -> bool:
        return self.placeholder is not None


@dataclass
class PyLdxStatement:
    """One assignment in a PyLDX program."""

    variable: str
    kind: str  # "read", "filter", "group"
    source: Optional[str] = None
    attr: Optional[PyLdxValue] = None
    op: Optional[str] = None
    term: Optional[PyLdxValue] = None
    group_col: Optional[PyLdxValue] = None
    agg_func: Optional[PyLdxValue] = None
    agg_col: Optional[PyLdxValue] = None


@dataclass
class PyLdxProgram:
    """A parsed PyLDX program: an ordered list of dataflow statements."""

    statements: list[PyLdxStatement] = field(default_factory=list)

    def root_variable(self) -> Optional[str]:
        for statement in self.statements:
            if statement.kind == "read":
                return statement.variable
        return None

    def operations(self) -> list[PyLdxStatement]:
        return [s for s in self.statements if s.kind in ("filter", "group")]


def parse_pyldx(code: str) -> PyLdxProgram:
    """Parse PyLDX *code*; unrecognised lines (comments, concat, prints) are skipped."""
    program = PyLdxProgram()
    for raw_line in code.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        read = _READ_RE.match(line)
        if read:
            program.statements.append(PyLdxStatement(variable=read.group("var"), kind="read"))
            continue
        filt = _FILTER_RE.match(line)
        if filt:
            program.statements.append(
                PyLdxStatement(
                    variable=filt.group("var"),
                    kind="filter",
                    source=filt.group("source"),
                    attr=PyLdxValue(filt.group("attr")),
                    op=_PANDAS_OPS[filt.group("op")],
                    term=PyLdxValue.parse(filt.group("term")),
                )
            )
            continue
        group = _GROUP_RE.match(line)
        if group:
            agg_col = group.group("aggcol")
            program.statements.append(
                PyLdxStatement(
                    variable=group.group("var"),
                    kind="group",
                    source=group.group("source"),
                    group_col=PyLdxValue.parse(group.group("col")),
                    agg_func=PyLdxValue.parse(group.group("agg")),
                    agg_col=PyLdxValue.parse(agg_col) if agg_col else None,
                )
            )
            continue
        # Unsupported constructs (concat, plots, comments) are intentionally ignored,
        # mirroring the paper's example where the final concat line is dropped.
    if not program.operations():
        raise PyLdxError("no filter or group-by statements found in PyLDX code")
    return program


def _field_from_value(
    value: Optional[PyLdxValue],
    placeholder_counts: dict[str, int],
) -> str:
    """Render one PyLDX value as an LDX pattern field.

    Placeholders used more than once become continuity variables (repeated
    ``<COL>`` must bind to the same column); placeholders used exactly once
    are plain free parameters and render as wildcards.
    """
    if value is None:
        return ".*"
    if value.is_placeholder:
        name = value.placeholder
        if placeholder_counts.get(name, 0) > 1:
            return f"(?<{name}>.*)"
        return ".*"
    return value.text


def pyldx_to_ldx(program: PyLdxProgram) -> str:
    """Translate a PyLDX program into LDX text.

    Variables define the dataflow tree: a statement whose ``source`` is the
    ``read_csv`` variable hangs off the root; otherwise it is a child of the
    statement that defined its source.  Placeholders become continuity
    variables (repeated placeholders therefore bind to the same value).
    """
    root_var = program.root_variable()
    operations = program.operations()
    # Count placeholder usages so only repeated placeholders become continuity vars.
    placeholder_counts: dict[str, int] = {}
    for statement in operations:
        for value in (statement.attr, statement.term, statement.group_col,
                      statement.agg_func, statement.agg_col):
            if value is not None and value.is_placeholder:
                placeholder_counts[value.placeholder] = (
                    placeholder_counts.get(value.placeholder, 0) + 1
                )
    names: dict[str, str] = {}
    lines_by_name: dict[str, str] = {}
    children: dict[str, list[str]] = {"ROOT": []}

    for index, statement in enumerate(operations, start=1):
        name = f"A{index}"
        names[statement.variable] = name
        if statement.kind == "filter":
            fields = [
                _field_from_value(statement.attr, placeholder_counts),
                statement.op or ".*",
                _field_from_value(statement.term, placeholder_counts),
            ]
            pattern = "[F," + ",".join(fields) + "]"
        else:
            fields = [
                _field_from_value(statement.group_col, placeholder_counts),
                _field_from_value(statement.agg_func, placeholder_counts),
                _field_from_value(statement.agg_col, placeholder_counts),
            ]
            pattern = "[G," + ",".join(fields) + "]"
        lines_by_name[name] = f"{name} LIKE {pattern}"
        parent_var = statement.source
        if parent_var is None or parent_var == root_var or parent_var not in names:
            children.setdefault("ROOT", []).append(name)
        else:
            children.setdefault(names[parent_var], []).append(name)

    lines: list[str] = [f"ROOT CHILDREN <{','.join(children['ROOT'])}>"]
    for name in lines_by_name:
        line = lines_by_name[name]
        kids = children.get(name, [])
        if kids:
            line += " and CHILDREN {" + ",".join(kids) + "}"
        lines.append(line)
    return "\n".join(lines)


def pyldx_text_to_ldx(code: str) -> str:
    """Convenience: parse PyLDX text and translate it to LDX."""
    return pyldx_to_ldx(parse_pyldx(code))


# ---------------------------------------------------------------------------
# LDX -> PyLDX rendering (used to construct few-shot examples)
# ---------------------------------------------------------------------------

def _pyldx_value_from_field(field_pattern: FieldPattern, default_placeholder: str) -> str:
    if field_pattern.kind == "literal":
        return f"'{field_pattern.value}'"
    if field_pattern.kind == "continuity":
        return f"<{field_pattern.continuity or default_placeholder}>"
    return f"<{default_placeholder}>"


def ldx_to_pyldx(query: LdxQuery | str, dataset_name: str = "data") -> str:
    """Render an LDX query as PyLDX template code.

    Every named operational node becomes an assignment; parents are resolved
    from the structure clauses; wildcards become placeholders.
    """
    if isinstance(query, str):
        query = parse_ldx(query)
    parent_of: dict[str, str] = {}
    for spec in query.specs:
        for clause in spec.structure:
            for child in clause.named:
                parent_of[child] = spec.name

    lines = [f'df = pd.read_csv("{dataset_name}.csv")']
    variable_of: dict[str, str] = {query.root_name(): "df"}
    counter = 0
    for name in query.preorder_named_nodes():
        spec = query.spec_for(name)
        pattern = spec.operation if spec is not None else None
        counter += 1
        variable = f"step_{counter}"
        variable_of[name] = variable
        parent = parent_of.get(name, query.root_name())
        source = variable_of.get(parent, "df")
        if pattern is None:
            lines.append(
                f"{variable} = {source}.groupby(<COL_{counter}>).agg(<AGG_{counter}>)"
            )
            continue
        fields = list(pattern.fields) + [FieldPattern("any")] * 3
        if pattern.kind == "F":
            attr = _pyldx_value_from_field(fields[0], f"COL_{counter}").strip("'")
            op_field = fields[1]
            op = op_field.value if op_field.kind == "literal" else "eq"
            term = _pyldx_value_from_field(fields[2], f"VALUE_{counter}")
            symbol = _OPS_TO_PANDAS.get(op, "==")
            lines.append(f"{variable} = {source}[{source}['{attr}'] {symbol} {term}]")
        else:
            col = _pyldx_value_from_field(fields[0], f"COL_{counter}")
            agg = _pyldx_value_from_field(fields[1], f"AGG_FUNC_{counter}")
            lines.append(f"{variable} = {source}.groupby({col}).agg({agg})")
    return "\n".join(lines)
