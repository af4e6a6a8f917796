"""Finite acyclic categories, posets, and closure operators on posets.

Objects and non-identity morphisms are dense integer indices with optional
string labels; identities are implicit and never stored.  Composition is a
partial table defined exactly on composable pairs: ``comp[(m1, m2)]`` is the
morphism "m1 followed by m2".  An operator on a poset is the tuple of its
object images, ``f[x]``: a poset has at most one morphism between two
objects, so the images of the objects fix those of the morphisms.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import InputError, NotAPosetError, SoundnessError, malformed


class AcyclicCategory:
    """A finite category in which only the (implicit) identities are invertible.

    Immutable after construction; construction checks index ranges only.
    Whether the data actually is an acyclic category (no directed cycles,
    total and associative composition) is the job of `validate_category`.
    """

    def __init__(self, objects, morphisms, composition=()):
        if isinstance(objects, int):
            objects = [str(i) for i in range(objects)]
        self.objects = tuple(str(o) for o in objects)
        n_obj = len(self.objects)
        src, tgt, labels = [], [], []
        for m in morphisms:
            if len(m) == 2:
                s, t = m
                lab = f"m{len(src)}"
            else:
                s, t, lab = m
            if not (type(s) is type(t) is int and 0 <= s < n_obj and 0 <= t < n_obj):
                raise InputError(f"morphism endpoint out of range: {m}")
            src.append(s)
            tgt.append(t)
            labels.append(str(lab))
        self.src = tuple(src)
        self.tgt = tuple(tgt)
        self.mor_labels = tuple(labels)
        n = len(self.src)
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
        hom = {}
        for m in range(n):
            hom.setdefault((self.src[m], self.tgt[m]), []).append(m)
        self._hom = {k: tuple(v) for k, v in hom.items()}

    @property
    def n_objects(self):
        return len(self.objects)

    @property
    def n_morphisms(self):
        return len(self.src)

    def hom(self, x, y):
        """Indices of non-identity morphisms x -> y."""
        return self._hom.get((x, y), ())

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


@dataclass
class CategoryReport:
    """Validation outcome with witnesses for every failed law."""

    self_loops: list
    cycle: list | None
    missing_compositions: list
    bad_endpoints: list
    associativity_failures: list

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
    cycle = _find_cycle(c)

    by_src = {}
    for m in range(c.n_morphisms):
        by_src.setdefault(c.src[m], []).append(m)
    missing = []
    bad_endpoints = []
    for m1 in range(c.n_morphisms):
        for m2 in by_src.get(c.tgt[m1], ()):
            m12 = c.comp.get((m1, m2))
            if m12 is None:
                missing.append((m1, m2))
            elif c.src[m12] != c.src[m1] or c.tgt[m12] != c.tgt[m2]:
                bad_endpoints.append((m1, m2))

    assoc = []
    for (m1, m2), m12 in c.comp.items():
        for m3 in by_src.get(c.tgt[m2], ()):
            left = c.comp.get((m12, m3))
            m23 = c.comp.get((m2, m3))
            right = None if m23 is None else c.comp.get((m1, m23))
            if left is not None and right is not None and left != right:
                assoc.append((m1, m2, m3))
    return CategoryReport(self_loops, cycle, missing, bad_endpoints, assoc)


def _find_cycle(c):
    """Directed cycle of objects in the morphism digraph, or None."""
    adjacency = {x: set() for x in range(c.n_objects)}
    for m in range(c.n_morphisms):
        if c.src[m] != c.tgt[m]:
            adjacency[c.src[m]].add(c.tgt[m])
    return directed_cycle(range(c.n_objects), lambda x: sorted(adjacency[x]))


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
    """A finite poset, viewed as an acyclic category with hom-sets of size <= 1."""

    def __init__(self, category):
        self.category = category
        self.mor_of = {}
        for m in range(category.n_morphisms):
            self.mor_of[(category.src[m], category.tgt[m])] = m

    @property
    def n(self):
        return self.category.n_objects

    @property
    def labels(self):
        return self.category.objects

    def leq(self, x, y):
        return x == y or (x, y) in self.mor_of

    def lt(self, x, y):
        return (x, y) in self.mor_of

    def __repr__(self):
        return f"Poset({self.n} elements, {self.category.n_morphisms} relations)"


def as_poset(c):
    """View a category as a poset; raises NotAPosetError with a witness pair."""
    for (x, y), ms in c._hom.items():
        if len(ms) > 1:
            raise NotAPosetError((x, y))
    return Poset(c)


def poset_from_relation(labels, strict_pairs):
    """Build a poset from any irreflexive acyclic relation, taking the transitive closure."""
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
    cycle = directed_cycle(range(n), lambda x: sorted(succ[x]))
    if cycle is not None:
        raise InputError(f"relation has a cycle through {labels[cycle[0]]}")
    indegree = Counter(y for ys in succ for y in ys)
    order = [x for x in range(n) if not indegree[x]]  # grows into a topological order
    for x in order:
        for y in succ[x]:
            indegree[y] -= 1
            if not indegree[y]:
                order.append(y)
    desc = [0] * n  # descendant sets as bitmasks, filled in reverse topological order
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
    index = {p: i for i, p in enumerate(pairs)}
    by_src = {}
    for j, (y, z) in enumerate(pairs):
        by_src.setdefault(y, []).append(j)
    comp = []
    for i, (x, y) in enumerate(pairs):
        for j in by_src.get(y, ()):
            comp.append((i, j, index[(x, pairs[j][1])]))
    cat = AcyclicCategory(labels, [(x, y, f"{labels[x]}<{labels[y]}") for x, y in pairs], comp)
    return Poset(cat)


def subposet(p, keep):
    """Induced subposet on `keep`; returns (poset, new-to-old index map)."""
    keep = sorted(keep)
    pos = {x: i for i, x in enumerate(keep)}
    pairs = [(pos[x], pos[y]) for (x, y) in p.mor_of if x in pos and y in pos]
    labels = [p.labels[x] for x in keep]
    return poset_from_relation(labels, pairs), tuple(keep)


def covers(p):
    """Cover relations of a poset (the Hasse diagram edges)."""
    out = []
    for x, y in sorted(p.mor_of):
        if not any(p.lt(x, z) and p.lt(z, y) for z in range(p.n)):
            out.append((x, y))
    return out


@dataclass
class ClosureReport:
    """Flags for a candidate closure operator; each False flag has witnesses."""

    monotone: bool
    idempotent: bool
    descending: bool
    ascending: bool
    witnesses: dict

    @property
    def is_closure_operator(self):
        return self.monotone and self.idempotent

    def direction(self):
        """'descending' or 'ascending' when one-sided (identity counts as both)."""
        if not self.is_closure_operator:
            return None
        if self.descending:
            return "descending"
        if self.ascending:
            return "ascending"
        return None

    def to_json(self):
        return {
            "monotone": self.monotone,
            "idempotent": self.idempotent,
            "descending": self.descending,
            "ascending": self.ascending,
            "witnesses": {k: list(v) for k, v in self.witnesses.items()},
        }


def check_closure_operator(p, f):
    """Classify an operator `f` (object images) on a poset: monotone, idempotent, one-sided.

    The monotone witnesses are every relation x < y with f(x) not below f(y).
    """
    witnesses = {"monotone": [], "idempotent": [], "descending": [], "ascending": []}
    for (x, y) in p.mor_of:
        if not p.leq(f[x], f[y]):
            witnesses["monotone"].append((x, y))
    for x in range(p.n):
        if f[f[x]] != f[x]:
            witnesses["idempotent"].append(x)
        if not p.leq(f[x], x):
            witnesses["descending"].append(x)
        if not p.leq(x, f[x]):
            witnesses["ascending"].append(x)
    return ClosureReport(
        monotone=not witnesses["monotone"],
        idempotent=not witnesses["idempotent"],
        descending=not witnesses["descending"],
        ascending=not witnesses["ascending"],
        witnesses=witnesses,
    )


def find_terminal_object(c):
    """The object receiving exactly one morphism from every other object, or None."""
    found = []
    for t in range(c.n_objects):
        if any(c.hom(t, x) for x in range(c.n_objects) if x != t):
            continue
        if all(len(c.hom(x, t)) == 1 for x in range(c.n_objects) if x != t):
            found.append(t)
    if len(found) > 1:
        raise SoundnessError(f"terminal objects {found} would force a directed cycle")
    return found[0] if found else None


def to_dot(obj):
    """DOT export: full morphism digraph for a category, Hasse diagram for a poset."""
    if isinstance(obj, Poset):
        lines = ["digraph hasse {"]
        for i, lab in enumerate(obj.labels):
            lines.append(f'  n{i} [label="{lab}"];')
        for x, y in covers(obj):
            lines.append(f"  n{x} -> n{y};")
        lines.append("}")
        return "\n".join(lines) + "\n"
    c = obj
    lines = ["digraph category {"]
    for i, lab in enumerate(c.objects):
        lines.append(f'  n{i} [label="{lab}"];')
    for m in range(c.n_morphisms):
        lines.append(f'  n{c.src[m]} -> n{c.tgt[m]} [label="{c.mor_labels[m]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
