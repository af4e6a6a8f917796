"""Independent oracles and enumerators used to cross-check the implementation.

Everything here recomputes results by brute force along a different route
than the library: path counting for nerve sizes, the nerve built chain by
chain on whole tuples with its tuple index, as it was before the library
read whole levels and kept each simplex as its boundary row only,
factorization matching for morphism classes, exhaustive enumeration of
posets and operators, the automorphism check face by face and orbits by
union-find, as they were before the library compared whole columns and
labelled orbits by a search, the closure kernels on dicts and sets keyed by
(d, s) with an explicit coface table, as they were before the library moved
them onto per-dimension arrays, the category quotient over the whole
composition table, as it was before the library scanned only
orbit-representative pairs, and the recursive search for a collapse to a
point, as it was before the library gave it its own stack, and the
flag search over every new vertex and every choice of edges into it on
recursive per-simplex edge matrices, as it was before the library forced
the choice through the fillers of composable edge pairs.  The
composition table of a poset, the partition poset from an all-pairs
refinement scan and the poset automorphism check against a given morphism
map are kept as they were before a poset composed through its order, was
built from block merges and built its automorphisms from object maps, and
the poset builder on descendant bitmasks through the category's row
checks, as it was before it wrote its columns directly; the components of
an edge set by union-find and its transitive closure through the edges
inside them, as they were before DG_n carried each face's partition.
Inverses and identity tests of group elements live here too, with the small
constructions only tests read: the test x <= y in a poset, a poset's
index (x, y) -> m and its action given with the morphism maps that index
reads, the form in which the category path takes it, chain posets,
opposite categories, the functor an order-preserving map of a poset
induces, functor checks, nerves of functors, class coherence of an
operator, the closure map on a poset quotient built class by class, as it
was before the library pushed the operator's own map to the classes, lifts
through the canonical map, a matching turned from
pairs into the partner arrays the library collapses and back, and the
isomorphism classes of disconnected graphs, each the least image of an
edge bitmask over S_n, ordered by subgraphs, with their chains counted.
"""

from __future__ import annotations

from array import array
from collections import Counter
from itertools import combinations, permutations, zip_longest
from typing import NamedTuple

from trispcat.accat import (
    AcyclicCategory,
    as_poset,
    check_closure_operator,
    closure_direction,
    directed_cycle,
    poset_from_relation,
    subposet,
    validate_category,
)
from trispcat.closure import (
    ClosureVerifyReport,
    CollapseCertificate,
    TrispClosureMap,
    check_matching_acyclic,
)
from trispcat.errors import InputError, PreconditionError, SoundnessError
from trispcat.graphs import lift_to_edges, partition_label, set_partitions, sn_generator_perms
from trispcat.nerve import nerve
from trispcat.symmetry import (
    Aut,
    GroupAction,
    QuotientCategory,
    _is_perm,
    _UnionFind,
    close_group,
    induced_trisp_action,
    orbit_partition,
    quotient_category,
    quotient_trisp,
)
from trispcat.trisp import CLASSIFY_LIMIT, euler_characteristic, induced_subtrisp


def natural_orders(n):
    """All transitive relations contained in the numeric order on n elements."""
    pairs_all = list(combinations(range(n), 2))
    out = []
    for mask in range(1 << len(pairs_all)):
        rel = {pairs_all[i] for i in range(len(pairs_all)) if (mask >> i) & 1}
        if all(
            (a, c) in rel
            for (a, b) in rel
            for (b2, c) in rel
            if b2 == b
        ):
            out.append(rel)
    return out


def all_posets_upto_iso(max_n):
    """One poset per isomorphism class, for every size up to max_n."""
    posets = []
    for n in range(1, max_n + 1):
        seen = set()
        for rel in natural_orders(n):
            canon = min(
                tuple(sorted((p[x], p[y]) for (x, y) in rel))
                for p in permutations(range(n))
            )
            if canon in seen:
                continue
            seen.add(canon)
            posets.append(poset_from_relation(n, rel))
    return posets


def count_chains_by_length(c):
    """Number of composable chains of each length, by path counting."""
    totals = [c.n_objects]
    count = {x: 1 for x in range(c.n_objects)}
    while True:
        nxt = {}
        for m in range(c.n_morphisms):
            nxt[c.tgt[m]] = nxt.get(c.tgt[m], 0) + count.get(c.src[m], 0)
        total = sum(nxt.values())
        if total == 0:
            return totals
        totals.append(total)
        count = nxt


def burnside_chain_orbit_counts(p, action):
    """Orbits of the chains of each length of `p` under `action`, by Burnside's lemma.

    An automorphism keeps the order, so it sends the i-th element of a chain
    to the i-th element of the image: it fixes a chain exactly when it fixes
    each element.  The chains g fixes are thus the chains of the subposet g
    fixes, counted by path counting, and the orbit count is their average
    over the group.
    """
    totals = []
    for g in action.elements:
        fixed, _keep = subposet(p, [x for x in range(p.n) if g.dims[0][x] == x])
        counts = count_chains_by_length(fixed.category)
        totals = [a + b for a, b in zip_longest(totals, counts, fillvalue=0)]
    while totals and totals[-1] == 0:
        totals.pop()
    assert all(total % action.order == 0 for total in totals)
    return [total // action.order for total in totals]


def nerve_oracle(c):
    """(chains, boundary tables, index) of the nerve, chain by chain.

    Each level is extended from the one below and sorted on whole object and
    morphism tuples; every boundary is looked up as a morphism tuple, with
    its composite read from the table, as `nerve` did before it read whole
    levels.  Raises `nerve`'s InputError on a directed cycle or a missing
    composite.
    """

    def objects(ms):
        return (c.src[ms[0]],) + tuple(c.tgt[m] for m in ms)

    chains = [((),) * c.n_objects]
    index = {}
    out_by_src = {}
    for m in range(c.n_morphisms):
        out_by_src.setdefault(c.src[m], []).append(m)
    level = [(m,) for m in range(c.n_morphisms)]
    while level:
        if len(chains) > c.n_objects:
            raise InputError("chains do not terminate; the category has a directed cycle")
        level = tuple(ms for _objs, ms in sorted((objects(ms), ms) for ms in level))
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
                pair = (ms[i - 1], ms[i])
                if pair not in c.comp:
                    raise InputError(f"composition table incomplete at {pair}")
                row.append(index[ms[: i - 1] + (c.comp[pair],) + ms[i + 1:]])
            row.append(index[ms[:-1]])
            table.append(tuple(row))
        bnd.append(tuple(table))
    return tuple(chains), bnd, index


def decomposition_quotient_classes(c, action):
    """Morphism classes from factorization matching, the direct definition.

    Two morphisms are related when they admit factorizations of equal length
    whose factors are orbit-equal position by position; the classes are the
    transitive closure of that relation.
    """
    orbit = list(range(c.n_morphisms))
    changed = True
    while changed:
        changed = False
        for g in action.elements:
            for m in range(c.n_morphisms):
                a, b = orbit[m], orbit[g.dims[1][m]]
                if a != b:
                    lo, hi = min(a, b), max(a, b)
                    for i in range(c.n_morphisms):
                        if orbit[i] == hi:
                            orbit[i] = lo
                    changed = True

    splits = {}
    for (m1, m2), m12 in c.comp.items():
        splits.setdefault(m12, []).append((m1, m2))

    memo = {}

    def decompositions(m):
        if m in memo:
            return memo[m]
        memo[m] = {(m,)}
        for m1, m2 in splits.get(m, ()):
            for rest in decompositions(m2):
                memo[m].add((m1,) + rest)
        return memo[m]

    parent = list(range(c.n_morphisms))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    buckets = {}
    for m in range(c.n_morphisms):
        for decomp in decompositions(m):
            signature = tuple(orbit[z] for z in decomp)
            buckets.setdefault(signature, []).append(m)
    for members in buckets.values():
        for m in members[1:]:
            ra, rb = find(members[0]), find(m)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots = sorted({find(m) for m in range(c.n_morphisms)})
    rank = {r: i for i, r in enumerate(roots)}
    return [rank[find(m)] for m in range(c.n_morphisms)]


def monotone_idempotent_maps(p):
    """All monotone idempotent self-maps of a poset, as tuples of object images."""
    n = p.n
    out = []

    def extend(values):
        if len(values) == n:
            if all(values[values[x]] == values[x] for x in range(n)):
                out.append(tuple(values))
            return
        x = len(values)
        for y in range(n):
            if all(
                not p.lt(z, x) or leq(p, values[z], y)
                for z in range(x)
            ) and all(
                not p.lt(x, z) or leq(p, y, values[z])
                for z in range(x)
            ):
                extend(values + [y])

    extend([])
    return out


def poset_automorphisms(p):
    """All automorphisms of a poset, as category automorphisms."""
    out, mor_of = [], morphism_index(p.category)
    for perm in permutations(range(p.n)):
        if all(p.lt(perm[x], perm[y]) == p.lt(x, y) for x in range(p.n) for y in range(p.n)):
            mor = tuple(mor_of[(perm[x], perm[y])] for x, y in zip(p.category.src, p.category.tgt))
            out.append(Aut((tuple(perm), mor)))
    return out


def subgroups_upto_order(p, max_order):
    """All subgroups of Aut(P) of order at most max_order (as GroupActions)."""
    auts = poset_automorphisms(p)
    seen = {}
    trivial = close_group([], on=p.category)
    seen[frozenset(trivial.elements)] = trivial
    for g in auts:
        action = GroupAction((g,))
        if action.order <= max_order:
            seen.setdefault(frozenset(action.elements), action)
    for g, h in combinations(auts, 2):
        action = GroupAction((g, h))
        if action.order <= max_order:
            seen.setdefault(frozenset(action.elements), action)
    return list(seen.values())


def random_poset(rng, max_n=7, p_edge=0.4):
    n = rng.randint(1, max_n)
    pairs = [pair for pair in combinations(range(n), 2) if rng.random() < p_edge]
    return poset_from_relation(n, pairs)


def random_action(rng, p, max_order=6, attempts=8):
    """A random subgroup of Aut(P) with order at most max_order."""
    auts = poset_automorphisms(p)
    for _ in range(attempts):
        gens = rng.sample(auts, k=min(len(auts), rng.choice([1, 2])))
        action = GroupAction(tuple(gens))
        if 1 < action.order <= max_order:
            return action
    return close_group([], on=p.category)


def morphism_index(c):
    """(x, y) -> the morphism x -> y, in a category with at most one, read off its ends."""
    return dict(zip(zip(c.src, c.tgt), range(c.n_morphisms)))


def explicit_action(p, action):
    """The action of object maps on the poset `p`, each given with its morphism
    map, read off the order and checked by the composition scan.

    A poset action has no morphism level; this is the form in which the
    category path (`quotient_category`, `induced_trisp_action`) takes it.
    """
    c, mor_of = p.category, morphism_index(p.category)
    gens = []
    for g in action.generators:
        obj = g.dims[0]
        gens.append(Aut((obj, tuple(mor_of[(obj[x], obj[y])] for x, y in zip(c.src, c.tgt)))))
    return close_group(gens, on=c)


def object_maps(action):
    """The object map of every element of a category action, closed by `GroupAction.elements`.

    This is how `orbit_nerve` takes its group.
    """
    return [g.dims[0] for g in action.elements]


def random_path_category(rng, max_nodes=5, max_edges=6):
    """Free category on a random DAG multigraph: morphisms are directed paths.

    Duplicate edges give parallel morphisms, so this exercises the
    non-poset corners of the category machinery.
    """
    n = rng.randint(2, max_nodes)
    edges = []
    for _ in range(rng.randint(1, max_edges)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.append((min(a, b), max(a, b)))
    return path_category(n, edges)[0]


def path_category(n, edges, order=sorted):
    """Free category on the DAG multigraph with `n` objects and `edges`, (src, tgt) pairs.

    Its morphisms are the directed paths, tuples of edge indices, numbered
    as `order` lists them.  Returns the category and that list of paths.
    """
    by_src = {}
    for i, (a, _b) in enumerate(edges):
        by_src.setdefault(a, []).append(i)
    paths = [(i,) for i in range(len(edges))]
    frontier = list(paths)
    while frontier:
        new = [
            p + (e,)
            for p in frontier
            for e in by_src.get(edges[p[-1]][1], ())
        ]
        paths.extend(new)
        frontier = new
    paths = order(paths)
    index = {p: i for i, p in enumerate(paths)}
    morphisms = [
        (edges[p[0]][0], edges[p[-1]][1], "e" + "".join(map(str, p))) for p in paths
    ]
    comp = [
        (index[p1], index[p2], index[p1 + p2])
        for p1 in paths
        for p2 in paths
        if edges[p1[-1]][1] == edges[p2[0]][0]
    ]
    return AcyclicCategory(n, morphisms, comp), paths


def chain_poset(k):
    """The total order 0 < 1 < ... < k-1."""
    return poset_from_relation(k, [(i, i + 1) for i in range(k - 1)])


def poset_composition_table(p):
    """Every composite of a poset, listed as `poset_from_relation` once stored them.

    A dict (m1, m2) -> m12, filled by m1 and then by m2.
    """
    c = p.category
    by_src = {}
    for j, y in enumerate(c.src):
        by_src.setdefault(y, []).append(j)
    table, mor_of = {}, morphism_index(c)
    for i, (x, y) in enumerate(zip(c.src, c.tgt)):
        for j in by_src.get(y, ()):
            table[(i, j)] = mor_of[(x, c.tgt[j])]
    return table


def poset_from_relation_oracle(labels, strict_pairs):
    """`poset_from_relation` on descendant bitmasks through the constructor's row checks.

    Refuses a relation with the library's messages, and stores every
    composite in a table.
    """
    if isinstance(labels, int):
        labels = [str(i) for i in range(labels)]
    n = len(labels)
    succ = [set() for _ in range(n)]
    for x, y in strict_pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise InputError(f"relation pair out of range: {(x, y)}")
        if x == y:
            raise InputError(f"relation is reflexive at {x}")
        succ[x].add(y)
    indegree = Counter(y for ys in succ for y in ys)
    order = [x for x in range(n) if not indegree[x]]
    for x in order:
        for y in succ[x]:
            indegree[y] -= 1
            if not indegree[y]:
                order.append(y)
    if len(order) < n:
        cycle = directed_cycle(range(n), lambda x: sorted(succ[x]))
        raise InputError(f"relation has a cycle through {labels[cycle[0]]}")
    desc = [0] * n
    for x in reversed(order):
        for y in succ[x]:
            desc[x] |= (1 << y) | desc[y]
    pairs = []
    for x in range(n):
        mask = desc[x]
        while mask:
            low = mask & -mask
            pairs.append((x, low.bit_length() - 1))
            mask ^= low
    cat = AcyclicCategory(labels, [(x, y, f"{labels[x]}<{labels[y]}") for x, y in pairs])
    p = as_poset(cat)
    cat.comp = poset_composition_table(p)
    return p


def covers_oracle(p):
    """The cover relations of a poset by brute force: each relation x < y with
    no object z at all such that x < z < y, in sorted order."""
    lt, objects = p.lt, range(p.n)
    pairs = sorted(zip(p.category.src, p.category.tgt))
    return [(x, y) for x, y in pairs if not any(lt(x, z) and lt(z, y) for z in objects)]


def leq(p, x, y):
    """x <= y in the poset p."""
    return x == y or bool(p.category.hom(x, y))


def terminal_objects(c):
    """Every object that sends no morphism to another object and receives
    exactly one from each other object, read off the morphism list."""
    n, arrows = c.n_objects, list(zip(c.src, c.tgt))
    return [
        t
        for t in range(n)
        if all(arrows.count((t, x)) == 0 and arrows.count((x, t)) == 1 for x in range(n) if x != t)
    ]


def poset_automorphism_violation(p, g):
    """`cat_automorphism_violation` on a poset, read off the order.

    A poset's hom-sets have at most one element and it composes through its
    order, so the composite of the images of x < y < z is the one morphism
    gx -> gz, the image of the composite.  It suffices that the morphism map
    of g = (obj, mor) sends each x -> y to the morphism gx -> gy.
    """
    c = p.category
    obj, mor = g.dims
    if not _is_perm(obj, c.n_objects) or not _is_perm(mor, c.n_morphisms):
        return ("not-a-permutation",)
    mor_of = morphism_index(c)
    for m, (x, y) in enumerate(zip(c.src, c.tgt)):
        if mor[m] != mor_of.get((obj[x], obj[y])):
            return ("order", m)
    return None


def refines(fine, coarse):
    """Every block of `fine` is contained in a block of `coarse`."""
    lookup = {}
    for i, block in enumerate(coarse):
        for x in block:
            lookup[x] = i
    return all(len({lookup[x] for x in block}) == 1 for block in fine)


def partition_poset_oracle(n, fine_on_top=True):
    """(partitions, poset) of `partition_poset`, related by an all-pairs refinement scan."""
    parts = [p for p in set_partitions(n) if 1 < len(p) < n]
    pairs = []
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            if i != j and refines(p, q):
                pairs.append((j, i) if fine_on_top else (i, j))
    return tuple(parts), poset_from_relation([partition_label(p) for p in parts], pairs)


def partition_of_edges(n, edge_ids, edges):
    """Partition of {0..n-1} into the connected components of an edge set.

    Blocks are sorted, and ordered by their least member.
    """
    uf = _UnionFind(n)
    for e in edge_ids:
        uf.union(*edges[e])
    block_of, reps = uf.classes()
    blocks = [[] for _ in reps]
    for x, k in enumerate(block_of):
        blocks[k].append(x)
    return tuple(tuple(b) for b in blocks)


def transitive_closure_oracle(k, fp):
    """`transitive_closure_operator`: each face to the union of complete graphs
    on its components, found by union-find and looked up by its edge set."""
    images = []
    for d, s in fp.elements:
        partition = partition_of_edges(k.n, k.faces_by_dim[d][s], k.edges)
        closed = [k.edge_index[pair] for block in partition for pair in combinations(block, 2)]
        images.append(k.index[frozenset(closed)])
    return tuple(images)


class GraphClasses(NamedTuple):
    edges: tuple  # edge -> vertex pair, lexicographic; edge i is bit i of a graph's mask
    class_of: dict  # mask of each disconnected graph with an edge -> its class, a mask
    related: frozenset  # (a, b): some graph of class a is a proper subgraph of one of class b
    chain_counts: tuple  # chains a_0 < ... < a_d of classes, per d: the order complex


def graph_class_oracle(n):
    """The disconnected graphs with an edge on n labelled vertices, up to isomorphism,
    ordered by "is isomorphic to a proper subgraph of".

    A graph is the bitmask of its edges, and its class is the least image of
    the mask over the n! vertex permutations.  Each permutation maps a mask
    byte by byte through its own edge tables; the images of distinct bytes
    share no bit, so they add.  Deleting one edge keeps a graph disconnected
    and generates the subgraph order, and the class order is its image,
    closed transitively: a ⊂ b and g b ⊂ c give g a ⊂ c.
    """
    edges = tuple(combinations(range(n), 2))
    bit = {pair: 1 << i for i, pair in enumerate(edges)}
    widths = [min(8, len(edges) - j) for j in range(0, len(edges), 8)]
    tables = []
    for perm in permutations(range(n)):
        images = [bit[tuple(sorted((perm[a], perm[b])))] for a, b in edges]
        per_byte = []
        for j, width in enumerate(widths):
            table = [0] * (1 << width)
            for byte in range(1, 1 << width):
                low = byte & -byte
                table[byte] = table[byte ^ low] | images[8 * j + low.bit_length() - 1]
            per_byte.append(table)
        tables.append(per_byte)

    def disconnected(mask):
        reached, stack = {0}, [0]
        while stack:
            a = stack.pop()
            for (u, v), b in bit.items():
                if mask & b and a in (u, v) and u + v - a not in reached:
                    reached.add(u + v - a)
                    stack.append(u + v - a)
        return len(reached) < n

    shifts = range(0, 8 * len(widths), 8)
    class_of = {}
    for mask in range(1, 1 << len(edges)):
        if disconnected(mask):
            parts = [mask >> s & 255 for s in shifts]
            class_of[mask] = min(sum(map(list.__getitem__, t, parts)) for t in tables)
    above = {a: set() for a in class_of.values()}
    for mask, b in class_of.items():
        for e in bit.values():
            if mask & e and mask != e:
                above[class_of[mask ^ e]].add(b)
    for a in sorted(above, key=int.bit_count, reverse=True):  # the larger graphs first
        above[a] |= {c for b in list(above[a]) for c in above[b]}
    related = frozenset((a, b) for a, bs in above.items() for b in bs)

    ends, counts = dict.fromkeys(above, 1), []
    while any(ends.values()):
        counts.append(sum(ends.values()))
        grown = dict.fromkeys(above, 0)
        for a, b in related:
            grown[b] += ends[a]
        ends = grown
    return GraphClasses(edges, class_of, related, tuple(counts))


def opposite_category(c):
    """Same objects, all morphisms reversed."""
    morphisms = [(c.tgt[m], c.src[m], c.mor_labels[m]) for m in range(c.n_morphisms)]
    comp = [(m2, m1, m12) for (m1, m2), m12 in c.comp.items()]
    return AcyclicCategory(c.objects, morphisms, comp)


class Functor(NamedTuple):
    """A functor given by an object map and a morphism map.

    A morphism entry of None means the morphism collapses to the identity
    at the (shared) image of its endpoints.
    """

    obj: tuple
    mor: tuple


def poset_functor(p, obj):
    """The functor on a poset that an order-preserving object map induces."""
    obj = tuple(obj)
    mor_of, mor = morphism_index(p.category), []
    for x, y in zip(p.category.src, p.category.tgt):
        fx, fy = obj[x], obj[y]
        if not leq(p, fx, fy):
            raise ValueError(f"object map is not order-preserving at {(x, y)}")
        mor.append(None if fx == fy else mor_of[(fx, fy)])
    return Functor(obj, tuple(mor))


def check_functor(c, d, f):
    """Witnesses where the Functor f: c -> d breaks an endpoint or a defined composite."""
    witnesses = []
    for m in range(c.n_morphisms):
        fs, ft, fm = f.obj[c.src[m]], f.obj[c.tgt[m]], f.mor[m]
        if (fs, ft) != ((fs, fs) if fm is None else (d.src[fm], d.tgt[fm])):
            witnesses.append(("endpoints", m))
    for (m1, m2), m12 in c.comp.items():
        fm1, fm2 = f.mor[m1], f.mor[m2]
        if fm1 is None or fm2 is None:
            expected = fm2 if fm1 is None else fm1
        else:
            expected = d.comp.get((fm1, fm2), "undefined")
        if f.mor[m12] != expected:
            witnesses.append(("composition", (m1, m2)))
    return witnesses


def nerve_map_images(c_src, c_dst, f):
    """images[d][s] = (dim, index) in the nerve of c_dst of the simplex (d, s) of that of c_src
    under the functor f, both nerves numbered by `nerve_oracle`.

    Identity components of the image chain are deleted; a chain that
    collapses entirely goes to the vertex of its image object.
    """
    chains, index = nerve_oracle(c_src)[0], nerve_oracle(c_dst)[2]
    images = []
    for d, level in enumerate(chains):
        row = []
        for s, ms in enumerate(level):
            img = tuple(f.mor[m] for m in ms if f.mor[m] is not None)
            if img:
                row.append((len(img), index[img]))
            else:
                row.append((0, f.obj[c_src.src[ms[0]] if d else s]))
        images.append(tuple(row))
    return tuple(images)


def check_operator_class_coherence(p, action, f):
    """Do equal morphism classes stay equal after a one-sided equivariant operator?

    Each class of the quotient of `p` must go to one class (or one identity)
    both in that quotient and in the quotient of the image subposet.  An
    ascending operator is checked as a descending one on the opposite poset,
    where the same permutations act.  Returns (ok, witnesses).
    """
    witnesses = check_closure_operator(p, f)
    if closure_direction(witnesses) is None:
        raise PreconditionError("operator is not one-sided")
    if witnesses["descending"]:
        p = as_poset(opposite_category(p.category))
        action = close_group([g.dims[0] for g in action.generators], on=p)
    if any(f[g.dims[0][x]] != g.dims[0][f[x]] for g in action.generators for x in range(p.n)):
        raise PreconditionError("operator is not equivariant")
    qc = quotient_category(p.category, explicit_action(p, action))
    sub_p, keep = subposet(p, set(f))  # the image quotient, on the morphism-orbit path
    pos = {x: i for i, x in enumerate(keep)}
    sub_gens = [[pos[g.dims[0][x]] for x in keep] for g in action.generators]
    sub_qc = quotient_category(sub_p.category, explicit_action(sub_p, close_group(sub_gens, on=sub_p)))
    p_mor, sub_mor = morphism_index(p.category), morphism_index(sub_p.category)

    def arrow_class(q, mor_of, x, y):
        if x == y:
            return ("id", q.obj_class[x])
        return ("mor", q.mor_class[mor_of[(x, y)]])

    witnesses = []
    for members in class_members(qc.mor_class):
        tags_q, tags_img = set(), set()
        for m in members:
            fx, fy = f[p.category.src[m]], f[p.category.tgt[m]]
            tags_q.add(arrow_class(qc, p_mor, fx, fy))
            tags_img.add(arrow_class(sub_qc, sub_mor, pos[fx], pos[fy]))
        if len(tags_q) > 1:
            witnesses.append(("quotient", members, tuple(sorted(tags_q))))
        if len(tags_img) > 1:
            witnesses.append(("image-quotient", members, tuple(sorted(tags_img))))
    return (not witnesses), witnesses


def quotient_poset_closure_oracle(p, f, qc):
    """The closure map on the nerve of the quotient `qc` of `p`, class by class.

    Red classes are those meeting the image of the one-sided operator `f`,
    the other classes are blue, and each blue class goes to the class of the
    image of its members, which must agree.  As `quotient_poset_closure_map`
    built it before it pushed the map `f` induces on the nerve of `p`.
    """
    direction = closure_direction(check_closure_operator(p, f))
    if direction is None:
        raise PreconditionError("operator is not a one-sided closure operator")
    red = frozenset(qc.obj_class[x] for x in set(f))
    blue = frozenset(range(qc.category.n_objects)) - red
    mapping = {}
    members = class_members(qc.obj_class)
    for cls in blue:
        images = {qc.obj_class[f[x]] for x in members[cls]}
        if len(images) != 1:
            raise SoundnessError("operator image is not constant on classes")
        mapping[cls] = images.pop()
    return TrispClosureMap(blue, red, mapping, "min" if direction == "descending" else "max")


def class_members(classes):
    """members[k] = the items of class k, in increasing order."""
    members = [[] for _ in range(max(classes, default=-1) + 1)]
    for item, k in enumerate(classes):
        members[k].append(item)
    return tuple(tuple(m) for m in members)


def canonical_lifts(qc, cm):
    """lifts[d][s] = an orbit of the source nerve over the simplex (d, s) of the quotient nerve.

    `cm` is the canonical map of `qc`; its orbits are those of the orbit
    trisp rebuilt here.  A chain of classes is lifted one morphism at a
    time: each next class member must start where the lifted chain ends.
    The quotient nerve's chains and the source nerve's index come from
    `nerve_oracle`.
    """
    c = qc.source
    nerve_src = nerve(c)
    qt = quotient_trisp(nerve_src.trisp, induced_trisp_action(nerve_src, qc.action))
    index, dst_chains = nerve_oracle(c)[2], nerve_oracle(qc.category)[0]
    mor_members = class_members(qc.mor_class)
    lifts = [tuple(qt.projection[0][x] for x in qc.obj_reps)]
    for d in range(1, cm.nerve_dst.trisp.dim + 1):
        level = []
        for classes in dst_chains[d]:
            lifted = []
            for cls in classes:
                lifted.append(next(
                    m for m in mor_members[cls] if not lifted or c.src[m] == c.tgt[lifted[-1]]
                ))
            level.append(qt.projection[d][index[tuple(lifted)]])
        lifts.append(tuple(level))
    return tuple(lifts)


def invert_perm(g):
    inv = [0] * len(g)
    for i, x in enumerate(g):
        inv[x] = i
    return tuple(inv)


def inverse(g):
    """Inverse of an automorphism, level by level."""
    return Aut(tuple(invert_perm(p) for p in g.dims))


def is_identity(g):
    """Does the automorphism fix everything?"""
    return all(all(i == x for i, x in enumerate(p)) for p in g.dims)


def regular_action_oracle(t, action):
    """The quotient-regularity condition by its definition, over every group element.

    For every element g and simplex σ, every common iterated face of σ and
    gσ must be fixed by g and fixed vertexwise.  Returns (ok, witness) with
    the witness (element index, simplex, face, kind).
    """
    moving = [(gi, g, inverse(g)) for gi, g in enumerate(action.elements) if not is_identity(g)]
    for d in range(t.dim + 1):
        for s in range(t.n(d)):
            face_list = sorted(iterated_faces(t, d, s))
            face_set = set(face_list)
            for gi, g, inv in moving:
                for (dd, ss) in face_list:
                    if (dd, inv.dims[dd][ss]) not in face_set:
                        continue  # not a face of g(σ)
                    if g.dims[dd][ss] != ss:
                        return False, (gi, (d, s), (dd, ss), "moved")
                    if any(g.dims[0][v] != v for v in t.vertex_tuple(dd, ss)):
                        return False, (gi, (d, s), (dd, ss), "vertex")
    return True, None


def quotient_category_oracle(c, action):
    """`symmetry.quotient_category` as it was before it scanned only
    representative pairs: the fixpoint and the functor check run over every
    entry of the composition table.  Horizontality is decided from its
    definition, over every group element: no morphism joins x to gx != x."""
    for x, y in zip(c.src, c.tgt):
        if x != y and any(g.dims[0][x] == y for g in action.elements):
            raise PreconditionError(f"action is not horizontal at {(x, y)}")
    obj_class, obj_reps = orbit_partition([g.dims[0] for g in action.generators], c.n_objects)

    uf = _UnionFind(c.n_morphisms)
    for g in action.generators:
        for m in range(c.n_morphisms):
            uf.union(m, g.dims[1][m])
    changed = True
    while changed:
        changed = False
        first = {}
        for (m1, m2), m12 in c.comp.items():
            key = (uf.find(m1), uf.find(m2))
            changed |= uf.union(first.setdefault(key, m12), m12)

    mor_class, roots = uf.classes()
    mor_members = [[] for _ in roots]
    for m in range(c.n_morphisms):
        mor_members[mor_class[m]].append(m)

    q_src, q_tgt = [], []
    for members in mor_members:
        srcs = {obj_class[c.src[m]] for m in members}
        tgts = {obj_class[c.tgt[m]] for m in members}
        if len(srcs) != 1 or len(tgts) != 1:
            raise SoundnessError("congruence broke endpoint classes")
        q_src.append(srcs.pop())
        q_tgt.append(tgts.pop())

    comp_entries = {}
    for (m1, m2), m12 in c.comp.items():
        key = (mor_class[m1], mor_class[m2])
        if comp_entries.setdefault(key, mor_class[m12]) != mor_class[m12]:
            raise SoundnessError(f"the projection is not a functor at {(m1, m2)}")

    labels = [f"[{c.objects[x]}]" for x in obj_reps]
    mor_list = [
        (q_src[k], q_tgt[k], f"[{c.mor_labels[mor_members[k][0]]}]") for k in range(len(roots))
    ]
    quotient = AcyclicCategory(labels, mor_list, [(a, b, m) for (a, b), m in comp_entries.items()])
    report = validate_category(quotient)
    if not report.ok:
        raise SoundnessError(f"quotient category invalid: {report.to_json()}")
    return QuotientCategory(
        c,
        action,
        quotient,
        tuple(obj_class),
        tuple(mor_class),
        tuple(obj_reps),
    )


def simplicial_automorphism_violation(t, g):
    """Setwise automorphism check: faces must map to faces, but positions may permute.

    Vertex relabelings of a simplicial complex are automorphisms in this
    sense even when they reverse the vertex order inside a simplex; they
    need not commute with the ordered boundary operators, which is what the
    quotient machinery requires.
    """
    if len(g.dims) != t.dim + 1:
        return ("wrong-dimension-count",)
    for d in range(t.dim + 1):
        if sorted(g.dims[d]) != list(range(t.n(d))):
            return ("not-a-permutation", d)
    for d in range(1, t.dim + 1):
        for s in range(t.n(d)):
            image_faces = set(t.faces(d, g.dims[d][s]))
            mapped_faces = {g.dims[d - 1][f] for f in t.faces(d, s)}
            if image_faces != mapped_faces:
                return ("faces", (d, s))
    return None


def automorphism_violation_by_face(t, g):
    """`trisp_automorphism_violation`, scanning every face (d, s, i) in order."""
    if len(g.dims) != t.dim + 1:
        return ("wrong-dimension-count",)
    for d in range(t.dim + 1):
        if sorted(g.dims[d]) != list(range(t.n(d))):
            return ("not-a-permutation", d)
    for d in range(1, t.dim + 1):
        for s in range(t.n(d)):
            for i in range(d + 1):
                if t.face(d, g.dims[d][s], i) != g.dims[d - 1][t.face(d, s, i)]:
                    return ("boundary", (d, s, i))
    return None


def union_find_orbits(perms, n):
    """`orbit_partition` by union-find over the edges i -- p[i] of every permutation."""
    uf = _UnionFind(n)
    for p in perms:
        for i, j in enumerate(p):
            uf.union(i, j)
    return uf.classes()


def dgn_trisp_action(k, perms=None):
    """The relabeling action on the complex DG_n itself (not on its face poset).

    Generated by the vertex permutations `perms` (by default the generators
    of S_n).  Relabelings permute the vertices inside a simplex, so they are
    only setwise automorphisms; the action fails the quotient-regularity
    condition unless it is trivial, which is why the pipelines act on the
    face poset instead.
    """
    gens = []
    for perm in sn_generator_perms(k.n) if perms is None else perms:
        eperm = lift_to_edges(perm, k.edges, k.edge_index)
        dims = []
        for level in k.faces_by_dim:
            place = {face: s for s, face in enumerate(level)}
            dims.append(tuple(place[tuple(sorted(eperm[e] for e in face))] for face in level))
        g = Aut(tuple(dims))
        witness = simplicial_automorphism_violation(k.trisp, g)
        if witness is not None:
            raise AssertionError(f"relabeling {perm} is not a setwise automorphism: {witness}")
        gens.append(g)
    return GroupAction(tuple(gens))


def iterated_faces(t, d, s):
    """All simplices reachable by repeated boundaries, including (d, s) itself."""
    seen = {(d, s)}
    frontier = [(d, s)]
    while frontier:
        dd, ss = frontier.pop()
        if dd == 0:
            continue
        for f in t.faces(dd, ss):
            key = (dd - 1, f)
            if key not in seen:
                seen.add(key)
                frontier.append(key)
    return seen


# -- reference closure kernels -------------------------------------------------


def coface_table(t):
    """cofaces[(d, s)] = all (τ, j) with ∂_j τ = s in dimension d + 1."""
    cofaces = {(d, s): [] for d in range(t.dim + 1) for s in range(t.n(d))}
    for d in range(1, t.dim + 1):
        for tau in range(t.n(d)):
            for j, f in enumerate(t.faces(d, tau)):
                cofaces[(d - 1, f)].append((tau, j))
    return cofaces


def extreme_blue(t, d, s, cmap):
    """Position and vertex of the extreme blue vertex of a simplex, or None."""
    vt = t.vertex_tuple(d, s)
    positions = [p for p, v in enumerate(vt) if v in cmap.blue]
    if not positions:
        return None
    p = positions[0] if cmap.convention == "min" else positions[-1]
    return p, vt[p]


def extensions_by_vertex(t, cofaces, d, s, vertex):
    """All (coface, j) whose j-th face is (d, s) and whose j-th vertex is `vertex`."""
    return [
        (tau, j)
        for (tau, j) in cofaces[(d, s)]
        if t.vertex_tuple(d + 1, tau)[j] == vertex
    ]


def verify_trisp_closure_map_oracle(t, cmap):
    cmap.check_vertices(t)
    for d in range(1, t.dim + 1):
        for s in range(t.n(d)):
            if len(set(t.vertex_tuple(d, s))) != d + 1:
                raise PreconditionError(f"trisp is not regular at {(d, s)}")
    cofaces = coface_table(t)
    failures = []
    partners = [array("l", [-1] * t.n(d)) for d in range(t.dim + 1)]
    targets = [[-1] * t.n(d) for d in range(t.dim + 1)]
    contained = extended = 0
    for d in range(t.dim + 1):
        for s in range(t.n(d)):
            hit = extreme_blue(t, d, s, cmap)
            if hit is None:
                continue
            _, b = hit
            phi_b = targets[d][s] = cmap.mapping[b]
            if phi_b in t.vertex_tuple(d, s):
                contained += 1
                continue
            exts = extensions_by_vertex(t, cofaces, d, s, phi_b)
            if len(exts) == 1:
                extended += 1
                partners[d][s] = exts[0][0]
            else:
                failures.append((d, s, len(exts)))
    return ClosureVerifyReport(failures, contained, extended, partners, targets)


def closure_matching_oracle(t, cmap, verify_report):
    if not verify_report.ok:
        raise PreconditionError(f"not a closure map: {verify_report.failures[:3]}")
    cofaces = coface_table(t)
    up = {}
    down_partner = {}
    for d in range(t.dim + 1):
        for s in range(t.n(d)):
            hit = extreme_blue(t, d, s, cmap)
            if hit is None:
                continue
            _, b = hit
            phi_b = cmap.mapping[b]
            vt = t.vertex_tuple(d, s)
            if phi_b in vt:
                pos = vt.index(phi_b)
                down_partner[(d, s)] = (d - 1, t.face(d, s, pos))
            else:
                (tau, _j), = extensions_by_vertex(t, cofaces, d, s, phi_b)
                up[(d, s)] = (d + 1, tau)
    if len(up) != len(down_partner):
        raise AssertionError("matching rules disagree in size")
    for sigma, tau in up.items():
        if down_partner.get(tau) != sigma:
            raise AssertionError(f"inconsistent pairing at {sigma} / {tau}")
    return tuple(sorted((sigma, tau) for sigma, tau in up.items()))


def parent_simplices(sub):
    """The simplices (d, s) of the parent trisp that a subtrisp keeps."""
    return {(d, s) for d, level in enumerate(sub.to_parent) for s in level}


def partner_arrays(t, pairs):
    """Partner arrays of a matching given as pairs ((d, σ), (d + 1, τ)): up[d][σ] = τ, else -1."""
    up = [array("l", [-1]) * t.n(d) for d in range(t.dim + 1)]
    for (d, s), (_d1, tau) in pairs:
        up[d][s] = tau
    return up


def matching_pairs(up):
    """The pairs ((d, σ), (d + 1, τ)) that partner arrays match, in (d, σ) order."""
    return tuple(
        ((d, s), (d + 1, tau)) for d, partner in enumerate(up) for s, tau in enumerate(partner)
        if tau >= 0
    )


def collapse_oracle(t, matching, red_vertices):
    removed = set()
    cofaces = coface_table(t)
    coface_count = {key: len(cofs) for key, cofs in cofaces.items()}
    up = dict(matching)

    def is_free(sigma):
        return coface_count[sigma] == 1

    queue = [sigma for sigma in up if is_free(sigma)]
    steps = []
    chi = euler_characteristic(t)
    while queue:
        sigma = queue.pop()
        if sigma in removed or sigma not in up:
            continue
        if not is_free(sigma):
            continue
        tau = up[sigma]
        if tau in removed:
            raise AssertionError(
                f"matched pair {(sigma, tau)}: the coface {tau} is already removed"
            )
        steps.append((sigma, tau))
        for cell in (tau, sigma):
            removed.add(cell)
            d, s = cell
            if d > 0:
                for f in t.faces(d, s):
                    key = (d - 1, f)
                    coface_count[key] -= 1
                    if key in up and key not in removed and is_free(key):
                        queue.append(key)
    if len(steps) != len(up):
        cycle = check_matching_acyclic(t, partner_arrays(t, matching))
        raise AssertionError(
            f"collapse got stuck with {len(up) - len(steps)} pairs left; cycle: {cycle}"
        )
    final = induced_subtrisp(t, red_vertices)
    remaining = {(d, s) for d in range(t.dim + 1) for s in range(t.n(d))} - removed
    if remaining != parent_simplices(final):
        raise AssertionError("final subtrisp is not the red subtrisp")
    if euler_characteristic(final.trisp) != chi:
        raise AssertionError("collapse changed the Euler characteristic")
    return CollapseCertificate(tuple(steps), final, chi)


def verify_collapse_sequence_oracle(t, steps):
    remaining = {(d, s) for d in range(t.dim + 1) for s in range(t.n(d))}
    cofaces = coface_table(t)
    coface_count = {}
    for (d, s) in remaining:
        count = sum(1 for (tau, _j) in cofaces[(d, s)] if (d + 1, tau) in remaining)
        coface_count[(d, s)] = count
    for sigma, tau in steps:
        d, s = sigma
        if sigma not in remaining or tau not in remaining:
            raise AssertionError(f"step removes absent simplex: {sigma}, {tau}")
        if tau[0] != d + 1:
            raise AssertionError(f"step pair has wrong dimensions: {sigma}, {tau}")
        if coface_count[sigma] != 1:
            raise AssertionError(f"face {sigma} is not free (count {coface_count[sigma]})")
        if sigma[1] not in t.faces(tau[0], tau[1]):
            raise AssertionError(f"{sigma} is not a face of {tau}")
        if coface_count[tau] != 0:
            raise AssertionError(f"coface {tau} is not maximal (count {coface_count[tau]})")
        for cell in (tau, sigma):
            remaining.discard(cell)
            dd, ss = cell
            if dd > 0:
                for f in t.faces(dd, ss):
                    if (dd - 1, f) in remaining:
                        coface_count[(dd - 1, f)] -= 1
    return remaining


def search_collapse_to_point_oracle(t):
    """Recursive backtracking search for a collapse to a vertex: the steps, or None.

    Least free pair first, failed states memoized; recursion depth is the
    number of steps, so this is for small complexes only.
    """
    failed = set()

    def free_pairs(remaining):
        count, partner = {}, {}
        for (d, s) in remaining:
            for f in t.faces(d, s) if d > 0 else ():
                count[(d - 1, f)] = count.get((d - 1, f), 0) + 1
                partner[(d - 1, f)] = (d, s)
        return sorted(
            (sigma, partner[sigma])
            for sigma, c in count.items()
            if c == 1 and sigma in remaining and partner[sigma] not in count
        )

    def dfs(remaining):
        if len(remaining) == 1 and next(iter(remaining))[0] == 0:
            return []
        if remaining in failed:
            return None
        for sigma, tau in free_pairs(remaining):
            steps = dfs(remaining - {sigma, tau})
            if steps is not None:
                return [(sigma, tau)] + steps
        failed.add(remaining)
        return None

    steps = dfs(frozenset((d, s) for d in range(t.dim + 1) for s in range(t.n(d))))
    return tuple(steps) if steps is not None else None


def edge_matrix(t, d, s, cache):
    """For each position pair i < j, the 1-simplex of σ spanning those positions."""
    key = (d, s)
    if key in cache:
        return cache[key]
    if d == 1:
        mat = {(0, 1): s}
    else:
        mat = dict(edge_matrix(t, d - 1, t.face(d, s, d), cache))
        last = edge_matrix(t, d - 1, t.face(d, s, 0), cache)
        mat[(0, d)] = edge_matrix(t, d - 1, t.face(d, s, 1), cache)[(0, d - 1)]
        for i in range(1, d):
            mat[(i, d)] = last[(i - 1, d - 1)]
    cache[key] = mat
    return mat


def flag_failure_dimension(t):
    """The least dimension at which the valid trisp `t` is not flag, or None if it is.

    Dimension 2: every composable pair of edges must span exactly one
    triangle.  Dimension d >= 3: every coherent clique, a realized
    (d-1)-simplex with a new vertex w and one edge into w from each of its
    vertices, every triple realized as a triangle, must be filled once.
    """
    cache = {}
    fillings = Counter((t.face(2, s, 2), t.face(2, s, 0)) for s in range(t.n(2)))
    edges = t.vertex_tuples(1)
    if not all(
        fillings[e1, e2] == 1
        for e1, (_u, v) in enumerate(edges)
        for e2, (w, _x) in enumerate(edges)
        if w == v
    ):
        return 2
    triangles = {
        tuple(edge_matrix(t, 2, s, cache)[p] for p in ((0, 1), (0, 2), (1, 2)))
        for s in range(t.n(2))
    }
    edges_between = {}
    for e, (u, w) in enumerate(edges):
        edges_between.setdefault((u, w), []).append(e)
    d = 3
    while t.n(d - 1) > 0:
        candidates = set()
        for s in range(t.n(d - 1)):
            mat = edge_matrix(t, d - 1, s, cache)
            verts = t.vertex_tuple(d - 1, s)
            for w in range(t.n(0)):
                if w in verts:
                    continue
                options = [edges_between.get((v, w), ()) for v in verts]
                stack = [()]
                for opts in options:
                    stack = [chosen + (e,) for chosen in stack for e in opts]
                for chosen in stack:
                    if all(
                        (mat[(a, b)], chosen[a], chosen[b]) in triangles
                        for a, b in combinations(range(len(verts)), 2)
                    ):
                        full = dict(mat)
                        for i, e in enumerate(chosen):
                            full[(i, d)] = e
                        candidates.add(tuple(sorted(full.items())))
        realized = Counter(
            tuple(sorted(edge_matrix(t, d, s, cache).items())) for s in range(t.n(d))
        )
        if any(realized[key] != 1 for key in candidates):
            return d
        d += 1
    return None


def validate_trisp_oracle(t):
    """`validate_trisp(t).to_json()` from the definitions.

    Identities face by face, regularity by counting distinct vertices,
    simpliciality by sorted vertex tuples and flagness by
    `flag_failure_dimension`.
    """
    identity = [
        [d, s, i, j]
        for d in range(2, t.dim + 1)
        for s in range(t.n(d))
        for i, j in combinations(range(d + 1), 2)
        if t.face(d - 1, t.face(d, s, j), i) != t.face(d - 1, t.face(d, s, i), j - 1)
    ]
    regularity = [] if identity else [
        [d, s]
        for d in range(1, t.dim + 1)
        for s, vt in enumerate(t.vertex_tuples(d))
        if len(set(vt)) != d + 1
    ]
    out = {
        "ok": not identity and not regularity,
        "identity_violations": identity,
        "regularity_violations": regularity,
    }
    if out["ok"] and t.total <= CLASSIFY_LIMIT:
        out["is_simplicial"] = all(
            len({tuple(sorted(vt)) for vt in t.vertex_tuples(d)}) == t.n(d)
            for d in range(t.dim + 1)
        )
        out["is_flag_complex"] = flag_failure_dimension(t) is None
    return out
