"""Regular trisps (delta-complexes) as graded simplex lists with boundary tables.

A trisp stores, per dimension d, only the simplex count and for d >= 1 the
boundary table ``bnd[d][s][i]`` = index of the i-th face of simplex s in
dimension d-1.  Everything else (vertex tuples, skeleta) is derived, so
there is a single source of truth.  A check returns its witnesses, and a
result comes paired with its witness: `trisps_equal_over_vertices`
returns (mapping, witness), exactly one of them None.
"""

import functools
import gc
from collections import Counter
from itertools import chain, combinations, repeat

from .errors import InputError, malformed


def nogc(fn):
    """Run `fn` with the cyclic garbage collector paused, then restore its state.

    The collector runs whenever enough container objects have been allocated,
    whether or not they can form cycles.  The tables a certificate is read,
    built and replayed from are tuples, lists, bytearrays and arrays of ints
    with no reference cycles, so on a large trisp those runs find nothing and
    scan every live table each time.

    The pause is taken once per command, at `cli.main`, and no command
    handler takes its own.  The library entry points that callers use
    directly, without `main`, take it too: `Trisp.from_json`,
    `closure.verify_collapse_sequence` and `accat.poset_from_relation`.
    Nested pauses are harmless: the inner one finds the collector off and
    leaves it off.  The pause is safe because no command builds a reference
    cycle: all it allocates is freed by reference counting, so no later
    collection has anything of the command's to free.  argparse's parser is
    cyclic; `cli.main` builds it only for a line `cli._parse_plain` declines
    (help, abbreviations, usage errors), and it waits for a later collection.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


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
                below, table = vt[k - 1], self._bnd[k]
                if k == 1:
                    rows = [(row[1], row[0]) for row in table]
                else:
                    rows = [below[row[k]] + (below[row[0]][-1],) for row in table]
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
    @nogc
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


# `validate_trisp` classifies a valid trisp of at most this many simplices
CLASSIFY_LIMIT = 3000


class TrispReport:
    def __init__(self, identity_violations, regularity_violations, is_simplicial, is_flag_complex):
        self.identity_violations = identity_violations
        self.regularity_violations = regularity_violations
        self.is_simplicial = is_simplicial  # None when not classified
        self.is_flag_complex = is_flag_complex  # None when not classified

    @property
    def ok(self):
        return not self.identity_violations and not self.regularity_violations

    def to_json(self):
        out = {
            "ok": self.ok,
            "identity_violations": [list(w) for w in self.identity_violations],
            "regularity_violations": [list(w) for w in self.regularity_violations],
        }
        if self.is_simplicial is not None:
            out["is_simplicial"] = self.is_simplicial
            out["is_flag_complex"] = self.is_flag_complex
        return out


def validate_trisp(t):
    """Check the simplicial identities and regularity; classify the result.

    The identity checked is ∂_i ∂_j = ∂_{j-1} ∂_i for i < j.  Regularity
    means every d-simplex has d+1 distinct vertices.  A valid trisp of at
    most CLASSIFY_LIMIT simplices is classified by `is_simplicial` and
    `is_flag_complex`; otherwise both are None.
    """
    identity = []
    for d in range(2, t.dim + 1):
        for s in range(t.n(d)):
            row = t.faces(d, s)
            for i, j in combinations(range(d + 1), 2):
                if t.face(d - 1, row[j], i) != t.face(d - 1, row[i], j - 1):
                    identity.append((d, s, i, j))
    regularity = [] if identity else regularity_violations(t)
    if identity or regularity or t.total > CLASSIFY_LIMIT:
        return TrispReport(identity, regularity, None, None)
    return TrispReport(identity, regularity, is_simplicial(t), is_flag_complex(t))


def regularity_violations(t):
    """(d, s) of every simplex whose d + 1 vertices are not pairwise distinct.

    Read off the last vertex.  By `vertex_tuples`, vt(σ) = vt(∂_d σ) + (v,)
    for the last vertex v of σ.  So two vertices of σ agree exactly when two
    of ∂_d σ agree, or when v is also an earlier one, vt.index(v) != d.
    Listed by dimension, then by simplex.
    """
    out, irregular = [], set()  # the irregular simplices of the dimension below
    for d in range(1, t.dim + 1):
        found = {s for s, vt in enumerate(t.vertex_tuples(d)) if vt.index(vt[-1]) != d}
        if irregular:
            found.update(s for s, row in enumerate(t.boundary_table(d)) if row[d] in irregular)
        out.extend((d, s) for s in sorted(found))
        irregular = found
    return out


def is_simplicial(t):
    """Do distinct simplices have distinct vertex sets?"""
    return all(
        len({frozenset(vt) for vt in t.vertex_tuples(d)}) == t.n(d) for d in range(1, t.dim + 1)
    )


def is_flag_complex(t):
    """Is the valid trisp `t` flag, maximal given its 1-skeleton?

    Among trisps whose simplices have unique 1-skeleta, that is condition
    A, every composable edge pair (e, e') spans exactly one triangle, whose
    ∂_1 is the pair's filler; and, level by level, every coherent clique is
    the key of exactly one simplex.  A key lists a simplex's edges (i, j) by
    j, then i: a d-simplex's key is its ∂_d face's key and then its last
    column, the first entry of its ∂_1 face's last column followed by its
    ∂_0 face's last column.  A coherent clique extends a (d-1)-simplex σ by
    an edge e out of σ's last vertex: its edge from vertex a is the filler
    of (σ's edge (a, d-1), e), and the fillers must agree on each triple
    (a, b, d) with b < d-1.

    This is the search over every new vertex w and every choice of one edge
    from each vertex of σ to w whose triples all span triangles.  Under A
    the triple (a, d-1, d) spans a triangle exactly when the edge from a is
    the filler of (σ's edge (a, d-1), e), e the edge from d-1; so e forces
    the rest, and the other triples are the coherence test.  Nor can w be
    a vertex of σ: e is no loop, and were w vertex a < d-1 of σ, A would
    give (σ's edge (a, d-1), e) a triangle on the vertices (a, d-1, a),
    which a regular trisp does not have.
    """
    table = t.boundary_table(2)
    filler = {(f2, f0): f1 for f0, f1, f2 in table}
    outgoing = {}  # vertex -> the edges leaving it
    for e, (u, _w) in enumerate(t.vertex_tuples(1)):
        outgoing.setdefault(u, []).append(e)
    # a triangle's (∂_2, ∂_0) is composable, so A is a count
    composable = sum(len(outgoing.get(w, ())) for _u, w in t.vertex_tuples(1))
    if not len(filler) == t.n(2) == composable:
        return False
    keys = [(f2, f1, f0) for f0, f1, f2 in table]
    columns = [(f1, f0) for f0, f1, _f2 in table]
    for d in range(3, t.dim + 2):  # keys and columns are those of the (d-1)-simplices
        rows = t.boundary_table(d)
        next_columns = [(columns[row[1]][0],) + columns[row[0]] for row in rows]
        next_keys = [keys[row[d]] + col for row, col in zip(rows, next_columns)]
        filled = Counter(next_keys)
        for key, col, vt in zip(keys, columns, t.vertex_tuples(d - 1)):
            for e in outgoing.get(vt[-1], ()):
                clique = [filler[c, e] for c in col] + [e]
                if all(
                    clique[a] == filler[key[b * (b - 1) // 2 + a], clique[b]]
                    for b in range(1, d - 1) for a in range(b)
                ) and filled[key + tuple(clique)] != 1:
                    return False
        keys, columns = next_keys, next_columns
    return True


# -- derived constructions -------------------------------------------------


class Subtrisp:
    def __init__(self, trisp, to_parent):
        self.trisp = trisp
        self.to_parent = to_parent  # per dimension, tuple mapping sub-index -> parent index


def induced_subtrisp(t, vertices):
    """Subtrisp of all simplices whose vertices lie in the given set."""
    vertices = set(vertices)
    keep = []
    new_index = []
    for d in range(t.dim + 1):
        kept = [s for s, vt in enumerate(t.vertex_tuples(d)) if vertices.issuperset(vt)]
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


def trisps_equal_over_vertices(t1, t2, vertex_map):
    """(mapping, witness): a dimension-wise simplex bijection commuting with all boundaries.

    Exactly one of the two is None.  The mapping holds, per dimension, the
    tuple of `t2` indices of the simplices of `t1`; the witness is a tuple
    that names the first mismatch.  The bijection on 0-simplices is given;
    higher dimensions are matched deterministically by grouping simplices
    on their (already matched) boundary rows and pairing groups in
    canonical order.
    """
    vertex_map = tuple(vertex_map)
    if t1.counts != t2.counts:
        return None, ("counts", t1.counts, t2.counts)
    if t1.dim >= 0 and (sorted(vertex_map) != list(range(t2.n(0))) or len(vertex_map) != t1.n(0)):
        return None, ("vertex-map-not-bijective",)
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
            return None, ("unmatched-boundary-row", d, missing)
        level = [0] * t1.n(d)
        for key, members in groups1.items():
            others = groups2[key]
            if len(members) != len(others):
                return None, ("multiplicity", d, key, len(members), len(others))
            for a, b in zip(sorted(members), sorted(others)):
                level[a] = b
        mapping.append(tuple(level))
    return tuple(mapping), None


def reverse_trisp(t):
    """Mirror image: boundary indices read back to front (nerve of the opposite)."""
    bnd = [[t.faces(d, s)[::-1] for s in range(t.n(d))] for d in range(1, t.dim + 1)]
    return Trisp(t.counts, bnd)


def simplicial_from_faces(n_vertices, faces):
    """Build the simplicial trisp on the given downward-closed family of faces.

    Faces are iterables of vertex indices; every nonempty proper subset of a
    face must itself be present.  Returns (trisp, faces_by_dim), the d-simplex
    s being the sorted face ``faces_by_dim[d][s]``.  A sorted face's facets
    ∂_d, ..., ∂_0 are its ``combinations(f, d)``, looked up in the level below
    by tuple.
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
    faces_by_dim = [tuple(sorted(by_dim.get(d, ()))) for d in range(dim + 1)]
    bnd = []
    for d, level in enumerate(faces_by_dim[1:], 1):
        below = {f: s for s, f in enumerate(faces_by_dim[d - 1])}
        facets = list(map(below.get, chain.from_iterable(map(combinations, level, repeat(d)))))
        if None in facets:
            f = level[facets.index(None) // (d + 1)]
            sub = next(sub for sub in combinations(f, d) if sub not in below)
            raise InputError(f"family not downward closed: {sub} missing under {f}")
        bnd.append([row[::-1] for row in zip(*[iter(facets)] * (d + 1))])
    if dim >= 0 and faces_by_dim[0] != tuple((v,) for v in range(n_vertices)):
        raise InputError("all vertices must appear as 0-dimensional faces")
    counts = [n_vertices] + [len(faces_by_dim[d]) for d in range(1, dim + 1)]
    return Trisp(counts, bnd), faces_by_dim


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
