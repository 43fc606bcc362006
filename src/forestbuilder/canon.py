"""Canonical labeling and edge orbits of small graphs, by one search.

The canonical form is the vertex ordering whose upper-triangle adjacency
bits (in graph6 column-major order) are lexicographically largest; two
graphs get the same canonical form exactly when they are isomorphic.  The
lexmax search places one vertex at a time, comparing the growing bit string
against the best complete ordering found so far.  Three prunings keep
symmetric inputs from exploding factorially:

* prefix pruning: a partial ordering whose bits fall below the incumbent's
  at the current depth cannot lead to a maximum.  So a node tries only the
  unplaced vertices whose column against the placed prefix is largest,
  found in one sweep over the prefix: each placed vertex in turn keeps the
  candidates adjacent to it, when there are any.  Their shared string so
  far is compared once with the incumbent's;
* twin pruning: two unplaced twins (N(u) minus v equals N(v) minus u) are
  swapped by an automorphism that fixes the placed prefix, so only one
  vertex per twin class is tried at each node;
* automorphism pruning: every tie at a leaf exhibits an automorphism (the
  map sending the incumbent ordering to the tied one).  Discovered
  automorphisms that fix the placed prefix pointwise identify candidate
  vertices whose subtrees are mirror images of ones already explored.

The automorphisms the search finds serve only this pruning.  The search
returns the winning bit string itself, and `canonical_key` packs it as
graph6 text: the one identity of an isomorphism class.  The canonical form
itself is `parse_graph6` of that key, edges in graph6 (column-major) order;
the searches hand out exactly these graphs as class representatives.  This
exhaustive lexmax search is capped at CANONICAL_VERTEX_CAP vertices.
`_is_lexmax` runs the same search with the identity ordering as incumbent:
it walks only the branches tied with it and stops at the first that beats
it.  Two facts let enumeration grow lexmax forms a vertex at a time: the
connected prefix fact makes every connected form its prefix one vertex
smaller plus a last vertex, and last-1 deletion lets that vertex's edges
(the string's last 1-bits) be added one at a time, each step lexmax.

* Last-1 deletion: clearing the last 1-bit of a lexmax string S (edge e of
  G) leaves the lexmax string of G - e.  Suppose a relabeling of G - e gave
  T > S - e, first differing at a bit r that is 1 in T.  All m - 1 ones of
  S - e lie before the cleared bit, so r lies before it too (else T would
  hold m ones), where S agrees with S - e: T > S.  The same relabeling of G
  sets one more bit of T, which cannot make it smaller, so it beats S.
* Connected prefix: in the lexmax labelling of a connected graph every
  vertex k >= 1 has an earlier neighbour.  Otherwise column k is 0, and
  some later vertex w has an earlier neighbour, as the prefix is joined to
  the rest; moving w to place k keeps columns 1..k-1 and raises column k.
  A lexmax prefix is lexmax too, as a better labelling of the first k
  vertices would beat the whole string.  So the last vertex of a lexmax
  tree is a leaf, and deleting it leaves the lexmax tree one vertex smaller.

For `is_edge_transitive` the same search is restricted to orderings that
place an edge's two endpoints first.  The bit string of the best such
ordering is an invariant of the edge's orbit: an automorphism mapping uv
onto xy maps the orderings that place u and v first onto those that place
x and y first, and two edges with equal strings give an automorphism
(position to position) mapping one onto the other.  The pruning stays
sound under the restriction: every twin swap it uses and every stored
tie-leaf automorphism maps {u, v} onto itself, and past depth 2 the prefix
it must fix pointwise holds both.
"""

from __future__ import annotations

from .errors import SizeCapExceeded
from .graphs import Graph
from .graph6 import _bits, _pack

CANONICAL_VERTEX_CAP = 16

_MAX_STORED_AUTOMORPHISMS = 64


def _twin_masks(masks: list[int]) -> list[int]:
    """Bit u of twins[v] is set when swapping u and v is an automorphism.

    That is, when N(u) minus v equals N(v) minus u.
    """
    twins = [0] * len(masks)
    for v, mv in enumerate(masks):
        for u in range(v):
            if not (masks[u] ^ mv) & ~((1 << u) | (1 << v)):
                twins[u] |= 1 << v
                twins[v] |= 1 << u
    return twins


class _Beaten(Exception):
    """A partial ordering's bits exceed those of the identity ordering."""


def _search(
    n: int, masks: list[int], target: int | None = None, first: int = 0
) -> int:
    """Return the lexmax graph6 bit string over orderings of the vertices.

    That is the whole string of the best ordering (0 when n = 0); the
    ordering itself stays inside, where the automorphism pruning needs it.
    Given `target`, the identity ordering's string, the search starts with
    that ordering as the incumbent, so it walks only the branches tied with
    it, and raises `_Beaten` as soon as one beats it: the identity is
    canonical exactly when it returns.
    Given `first`, a bitmask of two vertices, it returns the best string
    over the orderings that place those two first.
    A node finds the unplaced vertices with the largest column in one sweep
    over the placed prefix (any other vertex can only lose), compares the
    string so far once with the incumbent's, then tries those vertices in
    ascending order, pruned by twin swaps and by vertex maps discovered at
    tie leaves.
    """
    full = (1 << n) - 1
    best_perm = None if target is None else list(range(n))
    best = target  # the incumbent's whole string
    # best >> shifts[d]: the incumbent's string over its first d + 1 vertices
    shifts = [n * (n - 1) // 2 - d * (d + 1) // 2 for d in range(n)]
    # (sigma, bitmask of the vertices sigma fixes)
    autos: list[tuple[tuple[int, ...], int]] = []
    placed: list[int] = []
    twins = _twin_masks(masks)

    def descend(depth: int, cum: int, tied: bool, placed_mask: int) -> None:
        nonlocal best_perm, best
        if depth == n:
            if tied:
                # equal bit strings at every depth: an automorphism (the
                # identity when this is the target's own path)
                if len(autos) < _MAX_STORED_AUTOMORPHISMS and placed != best_perm:
                    sigma = [0] * n
                    for pos in range(n):
                        sigma[best_perm[pos]] = placed[pos]
                    fixed = sum(1 << u for u in range(n) if sigma[u] == u)
                    autos.append((tuple(sigma), fixed))
            else:
                best_perm = placed.copy()
                best = cum
            return
        alive = full ^ placed_mask
        if depth < 2 and first:
            alive &= first
        # the largest column against the prefix, and the vertices that have it
        col = 0
        for u in placed:
            hit = alive & masks[u]
            col <<= 1
            if hit:
                alive = hit
                col |= 1
        cum = (cum << depth) | col
        if tied:
            incumbent = best >> shifts[depth]
            if cum < incumbent:
                return
            if cum > incumbent:
                if target is not None:
                    raise _Beaten
                tied = False
        tried = 0  # bitmask of the candidates explored at this node
        while alive:
            low = alive & -alive
            alive ^= low
            v = low.bit_length() - 1
            if twins[v] & tried:
                continue
            # an automorphism fixing the prefix maps v into a tried subtree
            if tried and autos and any(
                tried >> sigma[v] & 1 and not placed_mask & ~fixed for sigma, fixed in autos
            ):
                continue
            placed.append(v)
            descend(depth + 1, cum, tied, placed_mask | low)
            placed.pop()
            tried |= low
            tied = True  # the incumbent now passes through this node

    if n == 0:
        return 0
    descend(0, 0, target is not None, 0)
    return best


def _is_lexmax(g: Graph) -> bool:
    """Whether g is its own canonical form: no relabeling beats its graph6 bits."""
    try:
        _search(g.n, g.adjacency_masks(), _bits(g))
    except _Beaten:
        return False
    return True


def canonical_key(g: Graph) -> str:
    """Complete isomorphism invariant: the lexmax bit string, packed as graph6."""
    if g.n > CANONICAL_VERTEX_CAP:
        raise SizeCapExceeded(
            f"canonical labeling cap is {CANONICAL_VERTEX_CAP} vertices, got {g.n}"
        )
    return _pack(g.n, _search(g.n, g.adjacency_masks()))


def is_edge_transitive(g: Graph) -> bool:
    """Whether the automorphism group acts transitively on the edges.

    Compares, across edges uv, the bit string of the best ordering that
    places u and v first (see the module docstring), and stops at the
    first edge whose string differs from the first edge's.
    """
    if g.n > CANONICAL_VERTEX_CAP:
        raise SizeCapExceeded(f"automorphism cap is {CANONICAL_VERTEX_CAP} vertices, got {g.n}")
    masks = g.adjacency_masks()
    strings = (_search(g.n, masks, first=1 << u | 1 << v) for u, v in g.edges)
    head = next(strings, None)
    return all(string == head for string in strings)
