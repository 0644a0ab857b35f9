"""A plain-tuple view of an instance table's columns, for assertions in tests."""
from __future__ import annotations

from freqalloc.constraints import TABLE_FAMILIES, InstanceTable


def table_rows(table: InstanceTable) -> list[tuple]:
    """(family, participants, case, coupler pair) per instance, in table order.

    case and the coupler pair are None for undirected rows and DIFF pairs; a
    DIFF pair's participants are the ends of its two couplers.
    """
    rows = [(TABLE_FAMILIES[f], tuple(p[:n]), *((c, table.edges[e]) if c >= 0 else (None, None)))
            for f, p, n, e, c in zip(table.family.tolist(), table.parts.tolist(),
                                     table.n_parts.tolist(), table.edge.tolist(),
                                     table.case.tolist())]
    return rows + [("DIFF", table.edges[i] + table.edges[j], None, None)
                   for i, j in table.diff.tolist()]
