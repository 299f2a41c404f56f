"""Seeded workload inputs, derived from the warehouses' own values.

Everything here is a pure function of the benchmark seed and of values
read from a warehouse through public accessors; the program under test
receives only the generated keyword strings and fact rows.
"""

from __future__ import annotations

import itertools
import random

#: Warehouse sizes.  AW_ONLINE keeps the paper's dimensions, text index
#: and 50 Table 3 queries but a quarter of its 60,500 facts, so that a
#: cold pass plus >= 100 warm explores fit in one run on two cores.
AW_FACTS = 15_125
SCALE_FACTS = 30_000
SERVICE_FACTS = 6_050

#: scale query set.  Explore cost follows subspace size and differentiate
#: cost the keywords.  The set holds every value of the low-cardinality
#: domains (the largest subspaces, which set the tail).  For each further
#: shape (one domain, or a pair of domains), candidates holding >=
#: MIN_SHARE of the facts are sorted by share and cut into SCALE_STRATA
#: equal strata, and one query is drawn from each.  The draw uses a fixed
#: generator: with a seeded draw the median fell on whichever query the
#: seed picked (explore p50 spread 0.18 over ten seeds), so the seed
#: orders the passes instead.
SCALE_FIXED_DOMAINS = ("Color", "CategoryName", "CalendarYearName")
SCALE_SHAPES = (("MonthName",), ("ProductName",),
                ("Color", "CategoryName"), ("Color", "MonthName"),
                ("CategoryName", "MonthName"),
                ("CategoryName", "CalendarYearName"),
                ("Color", "CalendarYearName"))
SCALE_STRATA = 2
MIN_SHARE = 0.02

#: scale_appends: fact rows appended (with existing keys) before each query
APPEND_ROWS = 64

#: service stream: one request in TABLE3_EVERY is a Table 3 query (odd,
#: so that they alternate between the two endpoints)
TABLE3_EVERY = 9
#: service closed loop: distinct queries, each differentiated and explored
SERVICE_POOL = 100


def searchable_domains(schema) -> list[tuple[str, list]]:
    """``(column, sorted distinct values)`` per searchable domain."""
    domains = []
    for table in sorted(schema.searchable):
        for column in schema.searchable[table]:
            values = schema.database.table(table).distinct(column)
            domains.append((column, sorted((v for v in values
                                            if v is not None), key=str)))
    return domains


def shuffled(items, rng: random.Random) -> list:
    out = list(items)
    rng.shuffle(out)
    return out


def scale_queries(schema, oracle) -> list[str]:
    """The scale_facets / scale_appends query set (the same every run)."""
    rng = random.Random("scale-queries")
    domains = dict(searchable_domains(schema))
    queries = [str(v) for name in SCALE_FIXED_DOMAINS
               for v in domains[name]]
    for shape in SCALE_SHAPES:
        candidates = []
        for values in itertools.product(*(domains[d] for d in shape)):
            share = oracle.share(dict(zip(shape, values)))
            if share >= MIN_SHARE:
                candidates.append((share, " ".join(map(str, values))))
        candidates.sort()
        for i in range(SCALE_STRATA):
            low = i * len(candidates) // SCALE_STRATA
            high = (i + 1) * len(candidates) // SCALE_STRATA
            queries.append(rng.choice(candidates[low:high])[1])
    return queries


def append_batches(schema, seed: int):
    """Endless seeded batches of fact rows reusing existing dimension
    keys (UnitPrice follows the product's list price, as in the
    generator), as column dicts for ``Table.load_columns``."""
    rng = random.Random(f"appends-{seed}")
    db = schema.database
    fact = db.table(schema.fact_table)
    products = db.table("DimProduct")
    price = dict(zip(products.column_values("ProductKey"),
                     products.column_values("ListPrice")))
    product_keys = sorted(price)
    date_keys = sorted(db.table("DimDate").column_values("DateKey"))
    next_order = max(fact.column_values("OrderKey")) + 1
    while True:
        keys = [rng.choice(product_keys) for _ in range(APPEND_ROWS)]
        batch = {
            "OrderKey": list(range(next_order, next_order + APPEND_ROWS)),
            "ProductKey": keys,
            "DateKey": [rng.choice(date_keys) for _ in keys],
            "UnitPrice": [price[k] for k in keys],
            "Quantity": [rng.choice((1, 1, 1, 2, 2, 3, 4)) for _ in keys],
        }
        next_order += APPEND_ROWS
        yield batch


def _combinations(domains, rng: random.Random, table3: list[str]):
    """Endless queries: every TABLE3_EVERY-th a Table 3 query, the others
    combinations of searchable values.  Each block of queries leads with
    every searchable domain once (in ``rng`` order), alternating one and
    two keywords, so the domain mix does not depend on ``rng``."""
    block: list[int] = []
    for i in itertools.count():
        if i % TABLE3_EVERY == TABLE3_EVERY - 1:
            yield rng.choice(table3)
            continue
        if not block:
            block = shuffled(range(len(domains)), rng)
        lead = block.pop()
        picks = [lead]
        if len(block) % 2:
            picks.append(rng.choice([d for d in range(len(domains))
                                     if d != lead]))
        yield " ".join(str(rng.choice(domains[d][1])) for d in picks)


def service_pool(schema, table3: list[str]) -> list[str]:
    """The closed-loop query set: SERVICE_POOL distinct queries drawn once
    with a fixed generator.  Set and order are the same for every seed:
    the server's shared view tier and per-worker caches make each
    query's cost depend on the queries before it, so only a fixed
    sequence gives a p90 that compares equal work."""
    pool: list[str] = []
    for query in _combinations(searchable_domains(schema),
                               random.Random("service-pool"), table3):
        if query not in pool:
            pool.append(query)
        if len(pool) == SERVICE_POOL:
            return pool
    raise AssertionError("unreachable")


def service_stream(schema, table3: list[str], seed: int):
    """Endless seeded ``(endpoint, query)`` requests for the open loop,
    alternating differentiate and explore; mostly first-seen queries."""
    queries = _combinations(searchable_domains(schema),
                            random.Random(f"service-stream-{seed}"), table3)
    for i, query in enumerate(queries):
        yield ("differentiate" if i % 2 == 0 else "explore", query)


def repeat_share(queries) -> float:
    """Share of queries already seen earlier in the same sequence."""
    seen: set = set()
    repeats = 0
    for query in queries:
        repeats += query in seen
        seen.add(query)
    return repeats / len(queries) if queries else 0.0
