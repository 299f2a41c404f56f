"""Output checks: result digests and a fact-table oracle.

A digest is a SHA-1 over the JSON forms the service sends for a
differentiate and an explore result, so warm passes can be compared
with the cold pass and two commits with each other.  The oracle counts
fact rows and sums revenue straight from the raw fact and dimension
columns, independently of the engine.
"""

from __future__ import annotations

import hashlib
import json
import math


def result_digest(ranked, result) -> str:
    from repro.service.protocol import differentiate_payload, explore_payload

    blob = json.dumps([differentiate_payload(ranked, None),
                       explore_payload(result) if result is not None
                       else None], sort_keys=True, default=str)
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


def combined_digest(digests) -> str:
    return hashlib.sha1("\n".join(digests).encode("utf-8")).hexdigest()[:16]


class FactOracle:
    """Row count and ``sum(UnitPrice * Quantity)`` of a conjunction of
    dimension-attribute selections, from raw columns.  Handles star
    schemas whose dimension tables hang directly off the fact table."""

    def __init__(self, schema):
        db = schema.database
        self.fact = db.table(schema.fact_table)
        self.links = {}  # dimension table -> (fact fk column, key->row)
        for fk in db.foreign_keys_of(schema.fact_table):
            dim = db.table(fk.parent_table)
            keys = dim.column_values(fk.parent_column)
            rows = {name: dim.column_values(name)
                    for name in dim.column_names}
            self.links[fk.parent_table] = (fk.child_column, keys, rows)
        self.columns: dict[str, list] = {}
        self.revenue: list[float] = []
        self.extend({name: self.fact.column_values(name)
                     for name in self.fact.column_names})

    def extend(self, batch: dict) -> None:
        """Fold appended fact rows (the ``load_columns`` dict)."""
        for fk_column, _keys, _rows in self.links.values():
            self.columns.setdefault(fk_column, []).extend(batch[fk_column])
        self.revenue.extend(p * q for p, q in zip(batch["UnitPrice"],
                                                  batch["Quantity"]))

    def _allowed(self, table: str, column: str, values) -> tuple[str, set]:
        fk_column, keys, rows = self.links[table]
        wanted = set(values)
        return fk_column, {key for key, value in zip(keys, rows[column])
                           if value in wanted}

    def evaluate(self, selections) -> tuple[int, float]:
        """``selections``: iterable of ``(table, column, values)``."""
        filters = [self._allowed(*s) for s in selections]
        rows = range(len(self.revenue))
        for fk_column, allowed in filters:
            column = self.columns[fk_column]
            rows = [r for r in rows if column[r] in allowed]
        return len(rows), math.fsum(self.revenue[r] for r in rows)

    def share(self, by_column: dict) -> float:
        """Fact share of ``{column: value}`` (columns looked up across
        dimension tables; used to keep generated queries non-trivial)."""
        selections = []
        for column, value in by_column.items():
            table = next(t for t, (_fk, _keys, rows) in self.links.items()
                         if column in rows)
            selections.append((table, column, (value,)))
        return self.evaluate(selections)[0] / len(self.revenue)

    def check(self, scored, result) -> str | None:
        """None when the explored subspace matches the oracle, else why."""
        net = scored.star_net
        if net.measure_predicates:
            return "oracle cannot evaluate measure predicates"
        try:
            selections = [(ray.hit_group.table, ray.hit_group.attribute,
                           ray.hit_group.values) for ray in net.rays]
            count, total = self.evaluate(selections)
        except KeyError as exc:
            return f"oracle cannot evaluate ray on {exc}"
        rows = len(result.subspace)
        if rows != count:
            return f"rows {rows} != oracle {count}"
        if not math.isclose(result.total_aggregate, total, rel_tol=1e-9,
                            abs_tol=1e-6):
            return f"total {result.total_aggregate!r} != oracle {total!r}"
        return None
