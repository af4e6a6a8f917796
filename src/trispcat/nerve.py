"""The nerve functor: from acyclic categories to regular flag trisps.

The d-simplices of the nerve are chains of d composable non-identity
morphisms; the 0-simplices are the objects.  Boundaries drop an end object
or compose two consecutive morphisms.
"""

from itertools import accumulate
from operator import ne

from .accat import validate_category
from .errors import InputError
from .trisp import Trisp

_CYCLE = "chains do not terminate; the category has a directed cycle"


class Nerve:
    def __init__(self, trisp, chains, index):
        self.trisp = trisp
        self.chains = chains  # chains[d][s] = morphism tuple of the d-simplex s
        self.index = index  # morphism tuple -> simplex index, over all d >= 1

    def simplex_of_morphisms(self, morphisms):
        morphisms = tuple(morphisms)
        if not morphisms:
            raise InputError("a zero-length chain is identified by its object")
        return self.index[morphisms]


def nerve(c):
    """Nerve of an acyclic category, with a bidirectional simplex <-> chain index.

    Each simplex is stored once, as its morphism tuple; its objects are the
    trisp's vertex tuple.  Within each dimension chains are sorted by
    (object list, morphism list).  Level d extends level d - 1: a d-chain is
    its face p = ∂_d plus a last morphism m, keyed ``p * n_morphisms + m``.
    So each ∂_i is one lookup one level down: ∂_i p extended by m for
    i < d - 1, and ∂_{d-1} p extended by the composite of p's last morphism
    and m.  The object list is p's plus the target of m, so a level, listed
    in (p, m) order, sorts stably on (rank of p's object list, target of m).
    """
    n_obj, n_mor, tgt, out = c.n_objects, c.n_morphisms, c.tgt, c.out
    chains = [((),) * n_obj]
    index, bnd = {}, []
    ids = ends = rank = range(n_obj)  # a vertex ends at itself; its object list ranks as itself
    while True:
        parents = [p for p, e in zip(ids, ends) for _m in out[e]]
        if not parents:
            break
        if len(chains) > n_obj:
            raise InputError(_CYCLE)
        lasts = [m for e in ends for m in out[e]]
        keys = [rank[p] * n_obj + tgt[m] for p, m in zip(parents, lasts)]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        parents, lasts, keys = ([col[j] for j in order] for col in (parents, lasts, keys))
        prev, d = chains[-1], len(chains)
        ids = list(range(len(order)))  # one int per simplex, shared by the index and the rows
        level = tuple([prev[p] + (m,) for p, m in zip(parents, lasts)])
        index.update(zip(level, ids))
        if d == 1:
            cols = [[tgt[m] for m in lasts]]
        else:
            try:
                composites = [c.comp[(prev[p][-1], m)] for p, m in zip(parents, lasts)]
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
        chains.append(level)
    return Nerve(Trisp([len(lvl) for lvl in chains], bnd), tuple(chains), index)


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
