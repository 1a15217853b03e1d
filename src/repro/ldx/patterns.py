"""Operation patterns with regular expressions and continuity variables.

An LDX single-node specification constrains a query operation through a
positional pattern such as ``[F, 'country', eq, (?<X>.*)]`` (Section 4.1).
Each field is one of:

* a **literal** (``country``, ``eq``, ``3``),
* a **wildcard** (``*`` or ``.*``) matching anything,
* a **regex** such as a disjunction ``SUM|AVG``,
* a **continuity variable** ``(?<X>.*)`` (or a ``<COL>``-style placeholder)
  that captures the matched value and forces subsequent uses of the same
  variable to take the same value.

Continuity is the LDX extension over plain Tregex: standard named groups only
capture, whereas LDX variables *constrain* later operations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .errors import LdxSyntaxError

#: Field kinds.
FIELD_LITERAL = "literal"
FIELD_ANY = "any"
FIELD_REGEX = "regex"
FIELD_CONTINUITY = "continuity"

_CONTINUITY_RE = re.compile(r"^\(\?<(?P<name>[A-Za-z_][A-Za-z_0-9]*)>(?P<pattern>.*)\)$")
_PLACEHOLDER_RE = re.compile(r"^<(?P<name>[A-Za-z_][A-Za-z_0-9]*)>$")


@dataclass(frozen=True)
class FieldPattern:
    """A single positional field of an operation pattern."""

    kind: str
    value: str = ""
    continuity: Optional[str] = None

    @classmethod
    def parse(cls, text: str) -> "FieldPattern":
        """Parse one field from its LDX textual form."""
        raw = text.strip()
        if raw.startswith(("'", '"')) and raw.endswith(("'", '"')) and len(raw) >= 2:
            return cls(FIELD_LITERAL, raw[1:-1])
        if raw in ("*", ".*", ""):
            return cls(FIELD_ANY)
        continuity = _CONTINUITY_RE.match(raw)
        if continuity:
            inner = continuity.group("pattern") or ".*"
            return cls(FIELD_CONTINUITY, inner, continuity.group("name"))
        placeholder = _PLACEHOLDER_RE.match(raw)
        if placeholder:
            # ``<COL>``-style placeholders behave as continuity variables named
            # after the placeholder: repeated placeholders must bind consistently.
            return cls(FIELD_CONTINUITY, ".*", placeholder.group("name"))
        if _looks_like_regex(raw):
            try:
                re.compile(raw)
            except re.error as exc:
                raise LdxSyntaxError(f"invalid regex field {raw!r}: {exc}") from exc
            return cls(FIELD_REGEX, raw)
        return cls(FIELD_LITERAL, raw)

    # -- matching --------------------------------------------------------------------
    def matches(self, value: str, bindings: Mapping[str, str]) -> bool:
        """True when the concrete *value* satisfies this field under *bindings*."""
        text = str(value)
        if self.kind == FIELD_ANY:
            return True
        if self.kind == FIELD_LITERAL:
            return _literal_equal(self.value, text)
        if self.kind == FIELD_REGEX:
            return re.fullmatch(self.value, text, flags=re.IGNORECASE) is not None
        if self.kind == FIELD_CONTINUITY:
            if self.continuity in bindings:
                return _literal_equal(bindings[self.continuity], text)
            if self.value in ("", ".*"):
                return True
            return re.fullmatch(self.value, text, flags=re.IGNORECASE) is not None
        raise LdxSyntaxError(f"unknown field kind {self.kind!r}")

    def capture(self, value: str, bindings: Mapping[str, str]) -> dict[str, str]:
        """Continuity bindings produced by matching *value* (empty for other kinds)."""
        if self.kind == FIELD_CONTINUITY and self.continuity not in bindings:
            return {self.continuity: str(value)}
        return {}

    @property
    def is_specified(self) -> bool:
        """True when the field constrains the value (literal or regex)."""
        return self.kind in (FIELD_LITERAL, FIELD_REGEX)

    def render(self) -> str:
        """Serialise the field back to LDX text."""
        if self.kind == FIELD_ANY:
            return ".*"
        if self.kind == FIELD_LITERAL:
            return self.value
        if self.kind == FIELD_REGEX:
            return self.value
        if self.kind == FIELD_CONTINUITY:
            inner = self.value if self.value else ".*"
            return f"(?<{self.continuity}>{inner})"
        raise LdxSyntaxError(f"unknown field kind {self.kind!r}")


def _looks_like_regex(text: str) -> bool:
    return any(ch in text for ch in "|?*+[](){}^$\\.")


def _literal_equal(expected: str, actual: str) -> bool:
    expected_s = str(expected).strip()
    actual_s = str(actual).strip()
    if expected_s.lower() == actual_s.lower():
        return True
    # Numeric literals: 3 == 3.0.
    try:
        return float(expected_s) == float(actual_s)
    except (TypeError, ValueError):
        return False


@dataclass(frozen=True)
class OperationPattern:
    """A positional pattern over an operation signature ``[kind, f1, f2, ...]``."""

    kind: str
    fields: tuple[FieldPattern, ...] = field(default_factory=tuple)

    @classmethod
    def parse(cls, text: str) -> "OperationPattern":
        """Parse a pattern from its bracketed form, e.g. ``[F, country, eq, .*]``."""
        raw = text.strip()
        if not (raw.startswith("[") and raw.endswith("]")):
            raise LdxSyntaxError(f"operation pattern must be bracketed: {text!r}")
        parts = _split_pattern_fields(raw[1:-1])
        if not parts:
            raise LdxSyntaxError(f"empty operation pattern: {text!r}")
        kind = parts[0].strip().strip("'\"").upper()
        if kind not in ("F", "G", "ROOT", "B"):
            raise LdxSyntaxError(f"unknown operation kind {parts[0]!r} in {text!r}")
        fields = tuple(FieldPattern.parse(part) for part in parts[1:])
        return cls(kind=kind, fields=fields)

    # -- matching ---------------------------------------------------------------------
    def matches(
        self,
        signature: Sequence[str],
        bindings: Mapping[str, str] | None = None,
    ) -> bool:
        """True when the operation *signature* satisfies the pattern under *bindings*."""
        bindings = bindings or {}
        if not signature:
            return False
        if str(signature[0]).upper() != self.kind:
            return False
        values = list(signature[1:])
        for index, field_pattern in enumerate(self.fields):
            value = values[index] if index < len(values) else ""
            if not field_pattern.matches(value, bindings):
                return False
        return True

    def capture(
        self,
        signature: Sequence[str],
        bindings: Mapping[str, str] | None = None,
    ) -> dict[str, str]:
        """Continuity bindings produced by matching *signature* (assumes it matches)."""
        bindings = bindings or {}
        captured: dict[str, str] = {}
        values = list(signature[1:])
        for index, field_pattern in enumerate(self.fields):
            value = values[index] if index < len(values) else ""
            captured.update(field_pattern.capture(value, bindings))
        return captured

    def continuity_variables(self) -> list[str]:
        """Names of continuity variables referenced in the pattern."""
        return [f.continuity for f in self.fields if f.kind == FIELD_CONTINUITY and f.continuity]

    def specified_field_count(self) -> int:
        """Number of concretely specified fields (used by the operational reward)."""
        return sum(1 for f in self.fields if f.is_specified)

    def matched_field_count(
        self,
        signature: Sequence[str],
        bindings: Mapping[str, str] | None = None,
    ) -> int:
        """Number of specified fields satisfied by *signature* (kind included when it matches)."""
        bindings = bindings or {}
        if not signature or str(signature[0]).upper() != self.kind:
            return 0
        matched = 0
        values = list(signature[1:])
        for index, field_pattern in enumerate(self.fields):
            if not field_pattern.is_specified:
                continue
            value = values[index] if index < len(values) else ""
            if field_pattern.matches(value, bindings):
                matched += 1
        return matched

    def substitute(self, bindings: Mapping[str, str]) -> "OperationPattern":
        """Return a copy where bound continuity variables become literals (Alg. 1, lines 3-4)."""
        new_fields = []
        for field_pattern in self.fields:
            if (
                field_pattern.kind == FIELD_CONTINUITY
                and field_pattern.continuity in bindings
            ):
                new_fields.append(
                    FieldPattern(FIELD_LITERAL, str(bindings[field_pattern.continuity]))
                )
            else:
                new_fields.append(field_pattern)
        return OperationPattern(self.kind, tuple(new_fields))

    def render(self) -> str:
        """Serialise back to the bracketed LDX form."""
        parts = [self.kind] + [f.render() for f in self.fields]
        return "[" + ",".join(parts) + "]"


def _split_pattern_fields(body: str) -> list[str]:
    """Split pattern fields on commas that are not nested in (), <>, quotes."""
    parts: list[str] = []
    current: list[str] = []
    depth_paren = 0
    depth_angle = 0
    quote: Optional[str] = None
    for ch in body:
        if quote:
            current.append(ch)
            if ch == quote:
                quote = None
            continue
        if ch in ("'", '"'):
            quote = ch
            current.append(ch)
            continue
        if ch == "(":
            depth_paren += 1
        elif ch == ")":
            depth_paren -= 1
        elif ch == "<":
            depth_angle += 1
        elif ch == ">":
            depth_angle = max(0, depth_angle - 1)
        if ch == "," and depth_paren == 0 and depth_angle == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    if current:
        parts.append("".join(current))
    return [part.strip() for part in parts if part.strip() != ""]
