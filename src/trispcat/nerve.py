"""The nerve functor: from acyclic categories to regular flag trisps.

The d-simplices of the nerve are chains of d composable non-identity
morphisms; the 0-simplices are the objects.  Boundaries drop an end object
or compose two consecutive morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError
from .trisp import Trisp


@dataclass(frozen=True)
class Chain:
    """A composable chain; objects are derived from the morphisms."""

    objects: tuple
    morphisms: tuple

    @property
    def dim(self):
        return len(self.morphisms)


class Nerve:
    def __init__(self, category, trisp, chains, index):
        self.category = category
        self.trisp = trisp
        self.chains = chains  # chains[d][s] = morphism tuple of the d-simplex s
        self._index = index  # morphism tuple -> simplex index, over all d >= 1

    def chain(self, d, s):
        return Chain(self.trisp.vertex_tuple(d, s), self.chains[d][s])

    def simplex_of(self, chain):
        """(d, s) of a chain; vertices are indexed by their object."""
        if chain.dim == 0:
            return (0, chain.objects[0])
        return (chain.dim, self._index[chain.morphisms])

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
    trisp's vertex tuple, and `Nerve.chain` pairs the two on demand.  Chain
    enumeration is deterministic: within each dimension chains are sorted by
    (object list, morphism list).
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


@dataclass
class TrispMap:
    """A simplex-level map between trisps; entries[d][s] = (image dim, image index)."""

    src: Trisp
    dst: Trisp
    entries: tuple

    def image(self, d, s):
        return self.entries[d][s]


def map_chain(f, chain, dst_category):
    """Image of a chain under an ACMap, with identity components deleted."""
    img_ms = tuple(f.mor[m] for m in chain.morphisms if f.mor[m] is not None)
    if img_ms:
        return Chain(_chain_objects(dst_category, img_ms), img_ms)
    return Chain((f.obj[chain.objects[0]],), ())


def nerve_of_map(nerve_src, nerve_dst, f):
    """Trisp map induced by a functor, deleting degenerate chain entries."""
    entries = []
    for d, level in enumerate(nerve_src.chains):
        images = [
            nerve_dst.simplex_of(map_chain(f, nerve_src.chain(d, s), nerve_dst.category))
            for s in range(len(level))
        ]
        entries.append(tuple(images))
    return TrispMap(nerve_src.trisp, nerve_dst.trisp, tuple(entries))


def surviving_positions(f, chain):
    """Image position of each vertex of a chain under an ACMap."""
    pos = [0]
    for m in chain.morphisms:
        pos.append(pos[-1] + (0 if f.mor[m] is None else 1))
    return tuple(pos)
