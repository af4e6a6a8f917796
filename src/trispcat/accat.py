"""Finite acyclic categories, posets, and closure operators on posets.

Objects and non-identity morphisms are dense integer indices with optional
string labels; identities are implicit and never stored.  A category
indexes its morphisms by source once, as ``out[x]``; the nerve, validation
and quotients read that index.  Composition is a partial map defined
exactly on composable pairs: ``comp[(m1, m2)]`` is the morphism "m1
followed by m2".  A category read from a document stores it as a table.
A poset built by `poset_from_relation` stores none: in a poset (x<y)(y<z)
is x<z, so ``comp`` is a read-only view that looks the composite up in
the order.  An operator on a poset is the tuple of its object images,
``f[x]``: a poset has at most one morphism between two objects, so the
images of the objects fix those of the morphisms; nothing indexes a
morphism by its ends, as a poset's order is read through its up-sets.  A
check returns its witnesses, and a property holds when they are empty:
`check_closure_operator` returns a list per property, and
`closure_direction` reads the one-sided rule off them.
"""

from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping, Sequence
from itertools import chain
from operator import itemgetter

from .errors import InputError, NotAPosetError, malformed
from .trisp import nogc


class AcyclicCategory:
    """A finite category in which only the (implicit) identities are invertible.

    Immutable once handed out.  Construction checks the endpoint columns as
    a whole (int type and range) and each composition entry, and indexes
    the morphisms by source: ``out[x]`` is the tuple of morphisms with
    source x, in increasing order.
    Whether the data actually is an acyclic category (no directed cycles,
    total and associative composition) is the job of `validate_category`.
    These row checks are the only path for documents, quotients and tests.
    `poset_from_relation` alone bypasses them: it passes no morphisms and
    installs its own columns, ``out`` and its order view as ``comp``
    before it returns.
    """

    def __init__(self, objects, morphisms, composition=()):
        if isinstance(objects, int):
            objects = [str(i) for i in range(objects)]
        self.objects = tuple(str(o) for o in objects)
        n_obj = len(self.objects)
        morphisms = list(morphisms)
        rows = [m if len(m) == 3 else (*m, f"m{i}") for i, m in enumerate(morphisms)]
        if set(map(len, rows)) - {3}:
            raise ValueError("a morphism is (src, tgt) or (src, tgt, label)")
        src, tgt, labels = (tuple(map(itemgetter(k), rows)) for k in range(3))
        ends = src + tgt
        if ends and not (set(map(type, ends)) == {int} and min(ends) >= 0 and max(ends) < n_obj):
            for m, s, t in zip(morphisms, src, tgt):
                if not (type(s) is type(t) is int and 0 <= s < n_obj and 0 <= t < n_obj):
                    raise InputError(f"morphism endpoint out of range: {m}")
        self.src, self.tgt = src, tgt
        self.mor_labels = tuple(map(str, labels))
        n = len(src)
        comp = {}
        for m1, m2, m12 in composition:
            if not (
                type(m1) is type(m2) is type(m12) is int
                and 0 <= m1 < n and 0 <= m2 < n and 0 <= m12 < n
            ):
                raise InputError(f"composition entry out of range: {(m1, m2, m12)}")
            if (m1, m2) in comp and comp[(m1, m2)] != m12:
                raise InputError(f"conflicting composition entries for {(m1, m2)}")
            comp[(m1, m2)] = m12
        self.comp = comp
        out = [[] for _ in range(n_obj)]
        for m, x in enumerate(src):
            out[x].append(m)
        self.out = tuple(map(tuple, out))

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_morphisms(self):
        return len(self.src)

    def hom(self, x, y):
        """Indices of non-identity morphisms x -> y."""
        return tuple(m for m in self.out[x] if self.tgt[m] == y)

    def __repr__(self):
        return f"AcyclicCategory({self.n_objects} objects, {self.n_morphisms} morphisms)"

    def to_json(self):
        return {
            "objects": [{"id": i, "label": l} for i, l in enumerate(self.objects)],
            "morphisms": [
                {"id": m, "src": self.src[m], "tgt": self.tgt[m], "label": self.mor_labels[m]}
                for m in range(self.n_morphisms)
            ],
            "composition": sorted([m1, m2, m12] for (m1, m2), m12 in self.comp.items()),
        }

    @classmethod
    def from_json(cls, data):
        with malformed("category"):
            labels = []
            for i, o in enumerate(data["objects"]):
                if o.get("id") != i:
                    raise InputError(f"object ids must be dense, got {o!r} at position {i}")
                labels.append(o.get("label", str(i)))
            morphisms = []
            for i, m in enumerate(data["morphisms"]):
                if m.get("id") != i:
                    raise InputError(f"morphism ids must be dense, got {m!r} at position {i}")
                morphisms.append((m["src"], m["tgt"], m.get("label", f"m{i}")))
            return cls(labels, morphisms, data.get("composition", []))


class CategoryReport:
    """Validation outcome with witnesses for every failed law."""

    def __init__(self, self_loops, cycle, missing_compositions, bad_endpoints, associativity_failures):
        self.self_loops = self_loops
        self.cycle = cycle  # list, or None
        self.missing_compositions = missing_compositions
        self.bad_endpoints = bad_endpoints
        self.associativity_failures = associativity_failures

    @property
    def acyclic(self):
        return not self.self_loops and self.cycle is None

    @property
    def composition_total(self):
        return not self.missing_compositions

    @property
    def ok(self):
        return (
            self.acyclic
            and self.composition_total
            and not self.bad_endpoints
            and not self.associativity_failures
        )

    def to_json(self):
        return {
            "ok": self.ok,
            "acyclic": self.acyclic,
            "self_loops": self.self_loops,
            "cycle": self.cycle,
            "composition_total": self.composition_total,
            "missing_compositions": self.missing_compositions,
            "bad_endpoints": self.bad_endpoints,
            "associativity_failures": self.associativity_failures,
        }


def validate_category(c):
    """Check the acyclic-category laws, returning witnesses rather than raising.

    Reports: directed cycles (including self-loops), missing composites of
    composable pairs, composites with wrong endpoints, and associativity
    failures wherever both parenthesizations are defined.
    """
    self_loops = [m for m in range(c.n_morphisms) if c.src[m] == c.tgt[m]]
    cycle = directed_cycle(range(c.n_objects), lambda x: sorted({c.tgt[m] for m in c.out[x]} - {x}))

    missing = []
    bad_endpoints = []
    for m1 in range(c.n_morphisms):
        for m2 in c.out[c.tgt[m1]]:
            m12 = c.comp.get((m1, m2))
            if m12 is None:
                missing.append((m1, m2))
            elif c.src[m12] != c.src[m1] or c.tgt[m12] != c.tgt[m2]:
                bad_endpoints.append((m1, m2))

    assoc = []
    for (m1, m2), m12 in c.comp.items():
        for m3 in c.out[c.tgt[m2]]:
            left = c.comp.get((m12, m3))
            m23 = c.comp.get((m2, m3))
            right = None if m23 is None else c.comp.get((m1, m23))
            if left is not None and right is not None and left != right:
                assoc.append((m1, m2, m3))
    return CategoryReport(self_loops, cycle, missing, bad_endpoints, assoc)


def directed_cycle(roots, successors):
    """The first directed cycle a depth-first search from `roots` meets, or None.

    `successors(node)` lists a node's out-neighbours in the order to visit
    them.  The search keeps its own stack, so depth is not limited by
    Python's recursion limit.
    """
    color = {}  # 1 while on the current path, 2 when finished
    for root in roots:
        if root in color:
            continue
        color[root] = 1
        path, pending = [root], [iter(successors(root))]
        while pending:
            for nxt in pending[-1]:
                if color.get(nxt) == 1:
                    return path[path.index(nxt):]
                if nxt not in color:
                    color[nxt] = 1
                    path.append(nxt)
                    pending.append(iter(successors(nxt)))
                    break
            else:
                pending.pop()
                color[path.pop()] = 2
    return None


class Poset:
    """A finite poset, viewed as an acyclic category with hom-sets of size <= 1,
    whose order is read through its up-sets: ``above[x]``, the objects above x."""

    def __init__(self, category, above, relation):  # relation: pairs closing to the order
        self.category, self.above, self.relation = category, above, relation

    @property
    def n(self):
        return self.category.n_objects

    @property
    def labels(self):
        return self.category.objects

    def lt(self, x, y):
        return y in self.above[x]

    def __repr__(self):
        return f"Poset({self.n} elements, {self.category.n_morphisms} relations)"


def as_poset(c):
    """View a category as a poset; raises NotAPosetError with a witness pair."""
    p = Poset(c, [set(map(c.tgt.__getitem__, ms)) for ms in c.out], tuple(zip(c.src, c.tgt)))
    if sum(map(len, p.above)) < c.n_morphisms:
        raise NotAPosetError(next(pair for pair, k in Counter(p.relation).items() if k > 1))
    return p


@nogc
def poset_from_relation(labels, strict_pairs):
    """Build a poset from any irreflexive acyclic relation, taking the transitive closure.

    Descendant sets are unions taken in reverse topological order.  The
    columns are written directly, as the closure of the checked pairs needs
    no row checks: morphisms x -> y, labelled "x<y" when read, are listed
    by source and then by target, so ``out[x]`` is a contiguous range.
    ``comp`` reads each composite off the order.  The descendant sets are
    the up-sets, the given pairs less repeats the ``relation``.  The
    collector is paused: a collection would scan every tuple made so far.
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
    indegree = [0] * n
    for y in chain.from_iterable(succ):
        indegree[y] += 1
    order = [x for x in range(n) if not indegree[x]]  # grows into a topological order
    for x in order:
        for y in succ[x]:
            indegree[y] -= 1
            if not indegree[y]:
                order.append(y)
    if len(order) < n:  # the objects on or behind a cycle never reach indegree 0
        cycle = directed_cycle(range(n), lambda x: sorted(succ[x]))
        raise InputError(f"relation has a cycle through {labels[cycle[0]]}")
    desc = [None] * n
    for x in reversed(order):
        desc[x] = succ[x].union(*map(desc.__getitem__, succ[x]))
    cat = AcyclicCategory(labels, ())
    src, tgt, out = [], [], []
    for x in range(n):
        ys = sorted(desc[x])
        out.append(tuple(range(len(tgt), len(tgt) + len(ys))))
        src += [x] * len(ys)
        tgt += ys
    cat.src, cat.tgt, cat.out = tuple(src), tuple(tgt), tuple(out)
    cat.mor_labels = _OrderLabels(cat.objects, cat.src, cat.tgt)
    cat.comp = _OrderComposition(cat.src, cat.tgt, cat.out)
    return Poset(cat, desc, tuple((x, y) for x in range(n) for y in sorted(succ[x])))


class _OrderLabels(Sequence):
    """The labels "x<y" of a poset's morphisms, read off its object labels when read."""

    def __init__(self, names, src, tgt):
        self._names, self._src, self._tgt = names, src, tgt

    def __getitem__(self, m):
        return f"{self._names[self._src[m]]}<{self._names[self._tgt[m]]}"

    def __len__(self):
        return len(self._src)


class _OrderComposition(Mapping):
    """The composition of a poset's category, read off its order.

    ``self[(m1, m2)]`` is the morphism src[m1] -> tgt[m2] when tgt[m1] ==
    src[m2], bisected in the range out[src[m1]], whose targets ascend, and a
    KeyError otherwise.  Pairs are listed by m1 and then by m2, the order in
    which a stored table would be filled, and counted without listing them.
    """

    def __init__(self, src, tgt, out):
        self._src, self._tgt, self._out = src, tgt, out

    def __getitem__(self, pair):
        m1, m2 = pair
        src, tgt = self._src, self._tgt
        if 0 <= m1 < len(src) and 0 <= m2 < len(src) and tgt[m1] == src[m2]:
            ms = self._out[src[m1]]
            return bisect_left(tgt, tgt[m2], ms[0], ms[-1] + 1)
        raise KeyError(pair)

    def __iter__(self):
        out = self._out
        for m1, y in enumerate(self._tgt):
            for m2 in out[y]:
                yield (m1, m2)

    def __len__(self):
        out = self._out
        return sum(len(out[y]) for y in self._tgt)


def subposet(p, keep):
    """Induced subposet on `keep`; returns (poset, new-to-old index map)."""
    keep = sorted(keep)
    pos = {x: i for i, x in enumerate(keep)}
    pairs = [(pos[x], pos[y]) for x in keep for y in p.above[x].intersection(pos)]
    labels = [p.labels[x] for x in keep]
    return poset_from_relation(labels, pairs), tuple(keep)


def covers(p):
    """Cover relations of a poset (the Hasse diagram edges), sorted.

    x < y is a cover when no z has x < z < y; every such z is above x, so
    the covers of x are what is above x less what is above those.
    """
    upper_covers = [ys.difference(*map(p.above.__getitem__, ys)) for ys in p.above]
    return [(x, y) for x, ys in enumerate(upper_covers) for y in sorted(ys)]


def check_closure_operator(p, f):
    """The witnesses against an operator `f` (object images) on a poset, by property.

    Returns a dict of four lists, ``monotone``, ``idempotent``,
    ``descending`` and ``ascending``; a property holds when its list is
    empty.  The monotone witnesses are every relation x < y with f(x) not
    below f(y), the others the objects x at which the property fails.
    """
    ends, above, objects = zip(p.category.src, p.category.tgt), p.above, range(p.n)
    return {
        "monotone": [(x, y) for x, y in ends if f[x] != f[y] and f[y] not in above[f[x]]],
        "idempotent": [x for x in objects if f[f[x]] != f[x]],
        "descending": [x for x in objects if f[x] != x and x not in above[f[x]]],
        "ascending": [x for x in objects if f[x] != x and f[x] not in above[x]],
    }


def closure_direction(witnesses):
    """'descending' or 'ascending' for a one-sided closure operator, else None.

    `witnesses` is what `check_closure_operator` returned for the operator.
    The identity is both; it counts as 'descending'.
    """
    if witnesses["monotone"] or witnesses["idempotent"]:
        return None
    if not witnesses["descending"]:
        return "descending"
    return None if witnesses["ascending"] else "ascending"


def find_terminal_object(c):
    """The object that sends no morphism to another object and receives
    exactly one from every other object, or None.

    At most one object qualifies, for any category data, self-loops
    included: if t1 != t2 both did, t1 would receive exactly one morphism
    t2 -> t1, while t2 sends none to another object.  So the first object
    that qualifies is the only one.
    """
    n, tgt = c.n_objects, c.tgt
    for t in range(n):
        if all(tgt[m] == t for m in c.out[t]) and all(
            len(c.hom(x, t)) == 1 for x in range(n) if x != t
        ):
            return t
    return None


def to_dot(obj):
    """DOT export: full morphism digraph for a category, Hasse diagram for a poset."""

    def quoted(label):  # a DOT string: `\` and `"` inside it are escaped
        return '"' + str(label).replace("\\", "\\\\").replace('"', '\\"') + '"'

    if isinstance(obj, Poset):
        lines = ["digraph hasse {"]
        for i, lab in enumerate(obj.labels):
            lines.append(f"  n{i} [label={quoted(lab)}];")
        for x, y in covers(obj):
            lines.append(f"  n{x} -> n{y};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    c = obj
    lines = ["digraph category {"]
    for i, lab in enumerate(c.objects):
        lines.append(f"  n{i} [label={quoted(lab)}];")
    for m in range(c.n_morphisms):
        lines.append(f"  n{c.src[m]} -> n{c.tgt[m]} [label={quoted(c.mor_labels[m])}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
