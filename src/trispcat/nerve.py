"""The nerve functor: from acyclic categories to regular flag trisps.

The d-simplices of the nerve are chains of d composable non-identity
morphisms; the 0-simplices are the objects.  Boundaries drop an end object
or compose two consecutive morphisms.  A simplex is kept as its boundary
row only: an edge is read off its morphism, and a d-chain, d >= 2, is
fixed by its faces (∂_0, ∂_d), which drop its first and its last morphism.
"""

from itertools import accumulate
from operator import ne

from .accat import validate_category
from .errors import InputError
from .trisp import Trisp

_CYCLE = "chains do not terminate; the category has a directed cycle"


class Nerve:
    def __init__(self, trisp, morphisms):
        self.trisp = trisp
        self.morphisms = morphisms  # morphisms[s] = the morphism of the 1-simplex s

    def images(self, t, obj, mor):
        """Per dimension of the trisp `t`, where a chain map into this nerve sends its simplices.

        Vertex v goes to obj[v] and edge e to the edge of the morphism
        mor[e].  A d-simplex, d >= 2, goes to the chain whose faces (∂_0,
        ∂_d) are the images of its own, or to -1 where no chain has them.
        """
        edge = {m: s for s, m in enumerate(self.morphisms)}
        dims = [tuple(obj), tuple([edge[m] for m in mor])][:t.dim + 1]
        for d in range(2, t.dim + 1):
            low, n = dims[-1], self.trisp.n(d - 1)
            chain = {row[0] * n + row[-1]: s for s, row in enumerate(self.trisp.boundary_table(d))}
            rows = t.boundary_table(d)
            dims.append(tuple([chain.get(low[row[0]] * n + low[row[-1]], -1) for row in rows]))
        return dims


def nerve(c):
    """Nerve of an acyclic category: its trisp, and the morphism of each 1-simplex.

    Within each dimension chains are sorted by (object list, morphism list).
    Level d extends level d - 1: a d-chain is its face p = ∂_d plus a last
    morphism m, keyed ``p * n_morphisms + m``.  So each ∂_i is one lookup one
    level down: ∂_i p extended by m for i < d - 1, and ∂_{d-1} p extended by
    the composite of p's last morphism and m.  The object list is p's plus
    the target of m, so a level, listed in (p, m) order, sorts stably on
    (rank of p's object list, target of m).  Of the level below only the rows
    and each chain's last morphism are kept.
    """
    n_obj, n_mor, tgt, out = c.n_objects, c.n_morphisms, c.tgt, c.out
    counts, bnd, morphisms, lasts = [n_obj], [], (), ()
    ids = ends = rank = range(n_obj)  # a vertex ends at itself; its object list ranks as itself
    while True:
        parents = [p for p, e in zip(ids, ends) for _m in out[e]]
        if not parents:
            break
        if len(counts) > n_obj:
            raise InputError(_CYCLE)
        below, lasts = lasts, [m for e in ends for m in out[e]]  # last morphisms, below and new
        keys = [rank[p] * n_obj + tgt[m] for p, m in zip(parents, lasts)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        parents, lasts, keys = ([col[j] for j in order] for col in (parents, lasts, keys))
        d = len(counts)
        ids = list(range(len(order)))  # one int per simplex, shared by the rows that name it
        if d == 1:
            morphisms, cols = tuple(lasts), [[tgt[m] for m in lasts]]
        else:
            try:
                composites = [c.comp[(below[p], m)] for p, m in zip(parents, lasts)]
            except KeyError as missing:
                if not validate_category(c).acyclic:  # a cycle is reported first
                    raise InputError(_CYCLE) from None
                raise InputError(f"composition table incomplete at {missing.args[0]}") from None
            faces, cols = bnd[-1], []
            for i, tail in enumerate([lasts] * (d - 1) + [composites]):
                cols.append([ext[faces[p][i] * n_mor + m] for p, m in zip(parents, tail)])
        bnd.append(tuple(zip(*cols, parents)))
        ext = None  # release the level below before keying this one
        ext = {p * n_mor + m: s for s, p, m in zip(ids, parents, lasts)}
        ends = [tgt[m] for m in lasts]
        rank = list(accumulate(map(ne, keys[1:], keys), initial=0))
        counts.append(len(ids))
    return Nerve(Trisp(counts, bnd), morphisms)


def chain_counts(c):
    """The simplex counts of the nerve of `c`, per dimension, with no chain built.

    ``ends[x]`` counts the chains of the current length that end at x; one
    more morphism x -> y carries them to y.  An acyclic category has no
    chain with more objects than it has, so a longer one is a cycle.
    """
    ends, counts = [1] * c.n_objects, []
    while any(ends):
        if len(counts) >= c.n_objects:
            raise InputError(_CYCLE)
        counts.append(sum(ends))
        grown = [0] * c.n_objects
        for x, k in enumerate(ends):
            if k:
                for m in c.out[x]:
                    grown[c.tgt[m]] += k
        ends = grown
    return counts
