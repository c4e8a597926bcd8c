"""All-pairs lattice tables and the k**3 Boolean test, the oracle for the lattice predicates.

``lattice_tables`` finds every join and meet by scanning common bounds, and
``boolean_by_tables`` checks distributivity on every triple and a complement
for every class, straight from the definitions.
"""


def _bound(x, y, vecs):
    """Least upper (or greatest lower) bound of x and y by scanning their common bounds."""
    common = vecs[x] & vecs[y]
    for t in range(len(vecs)):
        if common >> t & 1 and not common & ~vecs[t]:
            return t
    return None


def lattice_tables(q):
    """Join and meet of every pair, or None when some pair lacks one (all-pairs definition)."""
    up = [m | 1 << i for i, m in enumerate(q.up)]
    down = [m | 1 << i for i, m in enumerate(q.down)]
    k = len(up)
    join = [[_bound(i, j, up) for j in range(k)] for i in range(k)]
    meet = [[_bound(i, j, down) for j in range(k)] for i in range(k)]
    if any(None in row for row in join + meet):
        return None
    return join, meet


def boolean_by_tables(q, join, meet):
    """Distributive and complemented, checked on every triple and pair (k**3 steps)."""
    k = len(join)
    bottom = next(i for i in range(k) if not q.down[i])
    top = next(i for i in range(k) if not q.up[i])
    distributive = all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
        for x in range(k)
        for y in range(k)
        for z in range(k)
    )
    complemented = all(
        any(meet[x][y] == bottom and join[x][y] == top for y in range(k)) for x in range(k)
    )
    return distributive and complemented
