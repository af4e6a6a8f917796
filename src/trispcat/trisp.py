"""Regular trisps (delta-complexes) as graded simplex lists with boundary tables.

A trisp stores, per dimension d, only the simplex count and for d >= 1 the
boundary table ``bnd[d][s][i]`` = index of the i-th face of simplex s in
dimension d-1.  Everything else (vertex tuples, skeleta) is derived, so
there is a single source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, malformed


class Trisp:
    def __init__(self, counts, bnd):
        """counts[d] = number of d-simplices; bnd[d - 1] = boundary table of dimension d >= 1.

        Row s of the table of dimension d lists the d+1 faces (∂_0 s, ..., ∂_d s)
        as indices of (d-1)-simplices.  Counts and face indices must be ints.
        """
        counts = tuple(counts)
        if not all(type(x) is int and x >= 0 for x in counts):
            raise InputError(f"simplex counts must be non-negative integers: {list(counts)}")
        if len(bnd) < len(counts) - 1:
            raise InputError("boundary tables missing for some dimension")
        tables = [()]  # _bnd[d] is the table of dimension d
        for d in range(1, len(counts)):
            table = tuple(tuple(row) for row in bnd[d - 1])
            if len(table) != counts[d]:
                raise InputError(f"dimension {d}: {len(table)} rows for {counts[d]} simplices")
            for s, row in enumerate(table):
                if len(row) != d + 1:
                    raise InputError(f"simplex ({d},{s}): boundary row must have {d + 1} entries")
                for i in row:
                    if type(i) is not int or not 0 <= i < counts[d - 1]:
                        raise InputError(f"simplex ({d},{s}): face index {i!r} out of range")
            tables.append(table)
        # trailing zero counts are trimmed only after their tables are checked
        while counts and counts[-1] == 0:
            counts = counts[:-1]
        if counts and counts[0] == 0:
            raise InputError("positive-dimensional simplices need vertices")
        self.counts = counts
        self._bnd = tuple(tables[: len(counts) or 1])
        self._vt = None

    @property
    def dim(self):
        return len(self.counts) - 1

    def n(self, d):
        return self.counts[d] if 0 <= d <= self.dim else 0

    @property
    def total(self):
        return sum(self.counts)

    def face(self, d, s, i):
        return self._bnd[d][s][i]

    def faces(self, d, s):
        """Boundary row (∂_0 s, ..., ∂_d s)."""
        return self._bnd[d][s]

    def boundary_table(self, d):
        """Rows of dimension d; empty for d = 0 and above the top dimension."""
        return self._bnd[d] if 0 <= d <= self.dim else ()

    def __repr__(self):
        return f"Trisp(counts={self.counts})"

    # -- derived structure ------------------------------------------------

    def vertex_tuples(self, d):
        """Ordered vertex tuples of every d-simplex (position 0 = minimal vertex); () above dim."""
        if self._vt is None:
            vt = [tuple((v,) for v in range(self.n(0)))]
            for k in range(1, self.dim + 1):
                rows = []
                for s in range(self.counts[k]):
                    if k == 1:
                        rows.append((self.face(1, s, 1), self.face(1, s, 0)))
                    else:
                        prefix = vt[k - 1][self.face(k, s, k)]
                        last = vt[k - 1][self.face(k, s, 0)][-1]
                        rows.append(prefix + (last,))
                vt.append(tuple(rows))
            self._vt = vt
        return self._vt[d] if 0 <= d <= self.dim else ()

    def vertex_tuple(self, d, s):
        return self.vertex_tuples(d)[s]

    def to_json(self):
        dims = [{"count": self.n(0)}] if self.counts else []
        for d in range(1, self.dim + 1):
            dims.append({"count": self.counts[d], "bnd": [list(r) for r in self._bnd[d]]})
        return {"dims": dims}

    @classmethod
    def from_json(cls, data):
        with malformed("trisp"):
            counts = []
            bnd = []
            for d, layer in enumerate(data["dims"]):
                if "count" not in layer:
                    raise InputError(f"dimension {d}: missing 'count'")
                counts.append(layer["count"])
                if d >= 1:
                    table = layer.get("bnd")
                    if table is None:
                        raise InputError(f"dimension {d}: missing 'bnd'")
                    bnd.append(table)
            return cls(counts, bnd)


# -- validation -----------------------------------------------------------


@dataclass
class SimplicialFlag:
    """Is the trisp an abstract simplicial complex, and is it flag?

    `is_simplicial`: distinct simplices have distinct vertex sets.
    `is_flag_complex`: the trisp is maximal given its 1-skeleton, among
    trisps whose simplices have unique 1-skeleta; concretely, every
    composable pair of edges spans exactly one triangle, and every coherent
    clique (all triples realized) is filled by exactly one simplex.
    """

    is_simplicial: bool
    is_flag_complex: bool


@dataclass
class TrispReport:
    identity_violations: list
    regularity_violations: list
    flags: SimplicialFlag | None

    @property
    def ok(self):
        return not self.identity_violations and not self.regularity_violations

    @property
    def regular(self):
        return not self.regularity_violations

    def to_json(self):
        out = {
            "ok": self.ok,
            "identity_violations": [list(w) for w in self.identity_violations],
            "regularity_violations": [list(w) for w in self.regularity_violations],
        }
        if self.flags is not None:
            out["is_simplicial"] = self.flags.is_simplicial
            out["is_flag_complex"] = self.flags.is_flag_complex
        return out


def validate_trisp(t, compute_flags=True):
    """Check the simplicial identities and regularity; classify the result.

    The identity checked is ∂_i ∂_j = ∂_{j-1} ∂_i for i < j.  Regularity
    means every d-simplex has d+1 distinct vertices.  Flags are computed
    only for valid trisps (pass compute_flags=False to skip the flag search
    on large complexes).
    """
    identity = []
    for d in range(2, t.dim + 1):
        for s in range(t.n(d)):
            row = t.faces(d, s)
            for i, j in combinations(range(d + 1), 2):
                if t.face(d - 1, row[j], i) != t.face(d - 1, row[i], j - 1):
                    identity.append((d, s, i, j))
    regularity = [] if identity else regularity_violations(t)
    flags = None
    if not identity and not regularity and compute_flags:
        flags = compute_simplicial_flag(t)
    return TrispReport(identity, regularity, flags)


def regularity_violations(t):
    """(d, s) of every simplex whose d + 1 vertices are not pairwise distinct."""
    return [
        (d, s)
        for d in range(1, t.dim + 1)
        for s, vt in enumerate(t.vertex_tuples(d))
        if len(set(vt)) != d + 1
    ]


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


def compute_simplicial_flag(t):
    """Brute-force simpliciality and flagness check; intended for desk scale."""
    simplicial = all(
        len({frozenset(vt) for vt in t.vertex_tuples(d)}) == t.n(d) for d in range(1, t.dim + 1)
    )

    cache = {}
    # dimension 2: every composable edge pair must span exactly one triangle
    fillings = {}
    for s in range(t.n(2)):
        key = (t.face(2, s, 2), t.face(2, s, 0))
        fillings[key] = fillings.get(key, 0) + 1
    edges = t.vertex_tuples(1)
    flag = all(
        fillings.get((e1, e2), 0) == 1
        for e1, (_u, v) in enumerate(edges)
        for e2, (w, _x) in enumerate(edges)
        if w == v
    )

    if flag:
        # extend realized cliques by one vertex at a time; every coherent
        # clique (all triples realized as triangles) must be filled once
        triangles = {
            tuple(edge_matrix(t, 2, s, cache)[p] for p in ((0, 1), (0, 2), (1, 2)))
            for s in range(t.n(2))
        }
        edges_between = {}
        for e in range(t.n(1)):
            u, w = t.vertex_tuple(1, e)
            edges_between.setdefault((u, w), []).append(e)
        d = 3
        while flag and t.n(d - 1) > 0:
            candidates = set()
            for s in range(t.n(d - 1)):
                mat = edge_matrix(t, d - 1, s, cache)
                verts = t.vertex_tuple(d - 1, s)
                for w in range(t.n(0)):
                    if w in verts:
                        continue
                    options = [edges_between.get((v, w), ()) for v in verts]
                    if any(not o for o in options):
                        continue
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
            realized_d = {}
            for s in range(t.n(d)):
                key = tuple(sorted(edge_matrix(t, d, s, cache).items()))
                realized_d[key] = realized_d.get(key, 0) + 1
            flag = all(realized_d.get(key, 0) == 1 for key in candidates)
            d += 1

    return SimplicialFlag(simplicial, flag)


# -- derived constructions -------------------------------------------------


@dataclass
class Subtrisp:
    trisp: Trisp
    to_parent: tuple  # per dimension, tuple mapping sub-index -> parent index


def induced_subtrisp(t, vertices):
    """Subtrisp of all simplices whose vertices lie in the given set."""
    vertices = set(vertices)
    keep = []
    new_index = []
    for d in range(t.dim + 1):
        kept = [s for s in range(t.n(d)) if set(t.vertex_tuple(d, s)) <= vertices]
        keep.append(kept)
        new_index.append({s: i for i, s in enumerate(kept)})
    counts = [len(k) for k in keep]
    bnd = [
        [tuple(new_index[d - 1][f] for f in t.faces(d, s)) for s in keep[d]]
        for d in range(1, t.dim + 1)
    ]
    return Subtrisp(Trisp(counts, bnd), tuple(tuple(k) for k in keep))


def euler_characteristic(t):
    return sum((-1) ** d * t.n(d) for d in range(t.dim + 1))


@dataclass
class TrispMatch:
    ok: bool
    mapping: tuple | None  # per dimension, tuple T1-index -> T2-index
    witness: tuple | None = None


def trisps_equal_over_vertices(t1, t2, vertex_map):
    """Dimension-wise simplex bijection commuting with all boundaries.

    The bijection on 0-simplices is given; higher dimensions are matched
    deterministically by grouping simplices on their (already matched)
    boundary rows and pairing groups in canonical order.
    """
    vertex_map = tuple(vertex_map)
    if t1.counts != t2.counts:
        return TrispMatch(False, None, ("counts", t1.counts, t2.counts))
    if t1.dim >= 0 and (sorted(vertex_map) != list(range(t2.n(0))) or len(vertex_map) != t1.n(0)):
        return TrispMatch(False, None, ("vertex-map-not-bijective",))
    mapping = [vertex_map]
    for d in range(1, t1.dim + 1):
        prev = mapping[d - 1]
        groups1, groups2 = {}, {}
        for s in range(t1.n(d)):
            key = tuple(prev[f] for f in t1.faces(d, s))
            groups1.setdefault(key, []).append(s)
        for s in range(t2.n(d)):
            groups2.setdefault(t2.faces(d, s), []).append(s)
        if set(groups1) != set(groups2):
            missing = sorted(set(groups1) ^ set(groups2))[0]
            return TrispMatch(False, None, ("unmatched-boundary-row", d, missing))
        level = [0] * t1.n(d)
        for key, members in groups1.items():
            others = groups2[key]
            if len(members) != len(others):
                return TrispMatch(False, None, ("multiplicity", d, key, len(members), len(others)))
            for a, b in zip(sorted(members), sorted(others)):
                level[a] = b
        mapping.append(tuple(level))
    return TrispMatch(True, tuple(mapping))


def reverse_trisp(t):
    """Mirror image: boundary indices read back to front (nerve of the opposite)."""
    bnd = [[t.faces(d, s)[::-1] for s in range(t.n(d))] for d in range(1, t.dim + 1)]
    return Trisp(t.counts, bnd)


def simplicial_from_faces(n_vertices, faces):
    """Build the simplicial trisp on the given downward-closed family of faces.

    Faces are iterables of vertex indices; every nonempty proper subset of a
    face must itself be present.  Returns (trisp, faces_by_dim, index) where
    index maps a frozenset to its (d, s).
    """
    by_dim = {}
    for f in faces:
        fs = tuple(sorted(set(f)))
        if not fs:
            raise InputError("empty face")
        if fs[0] < 0 or fs[-1] >= n_vertices:
            raise InputError(f"face {fs} out of vertex range")
        by_dim.setdefault(len(fs) - 1, set()).add(fs)
    dim = max(by_dim, default=-1)
    faces_by_dim = []
    index = {}
    for d in range(dim + 1):
        level = sorted(by_dim.get(d, ()))
        faces_by_dim.append(tuple(level))
        for s, f in enumerate(level):
            index[frozenset(f)] = (d, s)
    for d in range(1, dim + 1):
        for f in faces_by_dim[d]:
            for sub in combinations(f, d):
                if frozenset(sub) not in index:
                    raise InputError(f"family not downward closed: {sub} missing under {f}")
    if dim >= 0 and faces_by_dim[0] != tuple((v,) for v in range(n_vertices)):
        raise InputError("all vertices must appear as 0-dimensional faces")
    counts = [n_vertices] + [len(faces_by_dim[d]) for d in range(1, dim + 1)]
    bnd = [
        [
            tuple(index[frozenset(f[:i] + f[i + 1:])][1] for i in range(d + 1))
            for f in faces_by_dim[d]
        ]
        for d in range(1, dim + 1)
    ]
    return Trisp(counts, bnd), faces_by_dim, index


def skeleton_dot(t):
    """DOT export of the 1-skeleton (edges directed minimal -> maximal vertex)."""
    lines = ["digraph skeleton {"]
    for v in range(t.n(0)):
        lines.append(f"  n{v};")
    for e in range(t.n(1)):
        u, w = t.vertex_tuple(1, e)
        lines.append(f"  n{u} -> n{w};")
    lines.append("}")
    return "\n".join(lines) + "\n"
