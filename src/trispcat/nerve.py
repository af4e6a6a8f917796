"""The nerve functor: from acyclic categories to regular flag trisps.

The d-simplices of the nerve are chains of d composable non-identity
morphisms; the 0-simplices are the objects.  Boundaries drop an end object
or compose two consecutive morphisms.
"""

from __future__ import annotations

from .errors import InputError
from .trisp import Trisp


class Nerve:
    def __init__(self, category, trisp, chains, index):
        self.category = category
        self.trisp = trisp
        self.chains = chains  # chains[d][s] = morphism tuple of the d-simplex s
        self._index = index  # morphism tuple -> simplex index, over all d >= 1

    def simplex_of_morphisms(self, morphisms):
        morphisms = tuple(morphisms)
        if not morphisms:
            raise InputError("a zero-length chain is identified by its object")
        return self._index[morphisms]


def _chain_objects(c, morphisms):
    return (c.src[morphisms[0]],) + tuple(c.tgt[m] for m in morphisms)


def nerve(c):
    """Nerve of an acyclic category, with a bidirectional simplex <-> chain index.

    Each simplex is stored once, as its morphism tuple; its objects are the
    trisp's vertex tuple.  Chain enumeration is deterministic: within each
    dimension chains are sorted by (object list, morphism list).
    """
    chains = [((),) * c.n_objects]
    index = {}
    out_by_src = {}
    for m in range(c.n_morphisms):
        out_by_src.setdefault(c.src[m], []).append(m)
    level = [(m,) for m in range(c.n_morphisms)]
    while level:
        if len(chains) > c.n_objects:
            raise InputError("chains do not terminate; the category has a directed cycle")
        level = tuple(ms for _objs, ms in sorted((_chain_objects(c, ms), ms) for ms in level))
        index.update((ms, s) for s, ms in enumerate(level))
        chains.append(level)
        level = [ms + (m,) for ms in level for m in out_by_src.get(c.tgt[ms[-1]], ())]
    bnd = []
    for d in range(1, len(chains)):
        table = []
        for ms in chains[d]:
            if d == 1:
                table.append((c.tgt[ms[0]], c.src[ms[0]]))
                continue
            row = [index[ms[1:]]]
            for i in range(1, d):
                try:
                    composite = c.comp[(ms[i - 1], ms[i])]
                except KeyError:
                    raise InputError(
                        f"composition table incomplete at {(ms[i - 1], ms[i])}"
                    ) from None
                row.append(index[ms[: i - 1] + (composite,) + ms[i + 1:]])
            row.append(index[ms[:-1]])
            table.append(tuple(row))
        bnd.append(tuple(table))
    return Nerve(c, Trisp([len(lvl) for lvl in chains], bnd), tuple(chains), index)

