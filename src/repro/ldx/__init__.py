"""LDX: the intermediate exploration-specification language of LINX.

Public API::

    from repro.ldx import parse_ldx, verify

    query = parse_ldx('''
        ROOT CHILDREN <A,B>
        A LIKE [G,(?<X>.*),.*]
        B LIKE [F,(?<X>.*),.*]
    ''')
    verify(session.root, query)
"""

from .ast import (
    REL_CHILDREN,
    REL_DESCENDANTS,
    ROOT_NAMES,
    LdxQuery,
    NodeSpec,
    StructureClause,
    merge_queries,
)
from .errors import LdxError, LdxSemanticError, LdxSyntaxError, LdxVerificationError
from .parser import parse_ldx, try_parse_ldx
from .partial import (
    can_still_comply,
    catalan_number,
    count_completions,
    enumerate_completions,
)
from .patterns import FieldPattern, OperationPattern
from .verifier import (
    Assignment,
    LdxMatcher,
    find_assignment,
    operational_match_ratio,
    partial_structural_ratio,
    structural_assignments,
    verify,
    verify_structure,
)

__all__ = [
    "Assignment",
    "FieldPattern",
    "LdxError",
    "LdxMatcher",
    "LdxQuery",
    "LdxSemanticError",
    "LdxSyntaxError",
    "LdxVerificationError",
    "NodeSpec",
    "OperationPattern",
    "REL_CHILDREN",
    "REL_DESCENDANTS",
    "ROOT_NAMES",
    "StructureClause",
    "can_still_comply",
    "catalan_number",
    "count_completions",
    "enumerate_completions",
    "find_assignment",
    "merge_queries",
    "operational_match_ratio",
    "parse_ldx",
    "partial_structural_ratio",
    "structural_assignments",
    "try_parse_ldx",
    "verify",
    "verify_structure",
]
