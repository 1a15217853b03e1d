"""Human-expert baseline.

The user study's upper bound is a notebook manually composed by an expert
data scientist for each goal (Section 7.3).  Offline, the expert is
simulated as an oracle that *knows the gold LDX specification* and composes
the best concrete session satisfying it: it enumerates candidate parameter
instantiations for the free fields and keeps the combination with the
highest generic exploration utility.  This is exactly the behaviour an
expert exhibits in the paper — relevant by construction and slightly better
tuned than the automatic systems.
"""

from __future__ import annotations

from repro.dataframe.table import DataTable
from repro.explore.executor import ExecutionError, QueryExecutor
from repro.explore.operations import BackOperation, FilterOperation, GroupAggOperation
from repro.explore.reward import GenericExplorationReward
from repro.explore.session import ExplorationSession, session_from_operations
from repro.ldx.ast import LdxQuery
from repro.ldx.parser import parse_ldx
from repro.ldx.patterns import FIELD_LITERAL, OperationPattern
from repro.ldx.verifier import verify


class HumanExpertBaseline:
    """Oracle baseline that composes a compliant, high-utility session by search."""

    name = "Human Expert"

    def __init__(self, candidate_values_per_slot: int = 4, candidate_columns: int = 3):
        self.candidate_values_per_slot = candidate_values_per_slot
        self.candidate_columns = candidate_columns
        self._scorer = GenericExplorationReward()
        self._executor = QueryExecutor()

    # -- candidate enumeration ---------------------------------------------------------
    def _candidate_operations(
        self, dataset: DataTable, pattern: OperationPattern
    ) -> list[object]:
        fields = list(pattern.fields)
        if pattern.kind == "F":
            attr_candidates = self._attr_candidates(dataset, fields, 0, categorical_first=True)
            operations = []
            for attr in attr_candidates:
                op = (
                    fields[1].value
                    if len(fields) > 1 and fields[1].kind == FIELD_LITERAL
                    else "eq"
                )
                term_candidates = self._term_candidates(dataset, attr, fields)
                for term in term_candidates:
                    operations.append(FilterOperation(attr, op, term))
            return operations
        group_candidates = self._attr_candidates(dataset, fields, 0, categorical_first=True)
        agg_func = (
            fields[1].value if len(fields) > 1 and fields[1].kind == FIELD_LITERAL else "count"
        )
        operations = []
        for group_attr in group_candidates:
            if agg_func == "count":
                operations.append(GroupAggOperation(group_attr, "count", group_attr))
                continue
            for agg_attr in (dataset.numeric_columns() or [group_attr])[:2]:
                operations.append(GroupAggOperation(group_attr, agg_func, agg_attr))
        return operations

    def _attr_candidates(self, dataset, fields, position, categorical_first=False) -> list[str]:
        if len(fields) > position and fields[position].kind == FIELD_LITERAL:
            value = fields[position].value
            return [value] if value in dataset.columns else dataset.columns[:1]
        columns = dataset.categorical_columns() if categorical_first else dataset.columns
        candidates = [c for c in columns if 1 < dataset.column(c).nunique() <= 40]
        return (candidates or dataset.columns)[: self.candidate_columns]

    def _term_candidates(self, dataset, attr, fields) -> list[object]:
        if len(fields) > 2 and fields[2].kind == FIELD_LITERAL:
            return [fields[2].value]
        counts = dataset.column(attr).value_counts()
        ranked = sorted(counts.items(), key=lambda item: -item[1])
        return [value for value, _ in ranked[: self.candidate_values_per_slot]]

    # -- composition --------------------------------------------------------------------
    def generate(self, dataset: DataTable, query: LdxQuery | str) -> ExplorationSession:
        """Compose the highest-utility compliant session found by greedy search."""
        if isinstance(query, str):
            query = parse_ldx(query)
        order = query.preorder_named_nodes()
        parent_of: dict[str, str] = {}
        for spec in query.specs:
            for clause in spec.structure:
                for child in clause.named:
                    parent_of[child] = spec.name

        best_session: ExplorationSession | None = None
        best_score = float("-inf")
        for seed_offset in range(self.candidate_values_per_slot):
            operations: list[object] = []
            depth_of: dict[str, int] = {query.root_name(): 0}
            previous_depth = 0
            bindings: dict[str, str] = {}
            session = ExplorationSession(dataset)
            feasible = True
            for name in order:
                spec = query.spec_for(name)
                pattern = spec.operation if spec is not None else None
                parent = parent_of.get(name, query.root_name())
                depth = depth_of.get(parent, 0) + 1
                depth_of[name] = depth
                # Navigate back to the parent's depth before operating.
                for _ in range(max(0, previous_depth - (depth - 1))):
                    operations.append(BackOperation(1))
                    session.go_back(1)
                candidates = (
                    self._candidate_operations(dataset, pattern.substitute(bindings))
                    if pattern is not None
                    else [GroupAggOperation(dataset.categorical_columns()[0], "count",
                                            dataset.categorical_columns()[0])]
                )
                if not candidates:
                    feasible = False
                    break
                chosen = candidates[seed_offset % len(candidates)]
                try:
                    session.apply(chosen, self._executor)
                except ExecutionError:
                    chosen = candidates[0]
                    try:
                        session.apply(chosen, self._executor)
                    except ExecutionError:
                        feasible = False
                        break
                operations.append(chosen)
                if pattern is not None:
                    bindings.update(
                        pattern.substitute(bindings).capture(
                            [str(p) for p in chosen.signature()], bindings
                        )
                    )
                previous_depth = depth
            if not feasible:
                continue
            score = self._scorer.session_score(session)
            compliant = verify(session.to_tree(), query)
            score += 1.0 if compliant else 0.0
            if score > best_score:
                best_score = score
                best_session = session
        if best_session is None:
            best_session = session_from_operations(dataset, [])
        return best_session
