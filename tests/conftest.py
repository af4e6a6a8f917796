import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trispcat.accat import poset_from_relation
from trispcat.nerve import nerve
from trispcat.symmetry import CatAut, TrispAut, close_group
from trispcat.trisp import Trisp

from oracles import chain_poset


@pytest.fixture
def chain3():
    """The poset 0 < 1 < 2."""
    return chain_poset(3)


@pytest.fixture
def double_filled():
    """Filled triangle with double filling plus the swap action and quotient map.

    Vertices 0=b, 1=x, 2=r; two 2-simplices share all three boundary edges.
    """
    from trispcat.closure import TrispClosureMap

    t = Trisp((3, 3, 2), [[(1, 0), (2, 0), (2, 1)], [(2, 1, 0), (2, 1, 0)]])
    action = close_group([TrispAut(((0, 1, 2), (0, 1, 2), (1, 0)))], on=t)
    psi = TrispClosureMap(frozenset({0}), frozenset({1, 2}), {0: 2}, "min")
    return t, action, psi


@pytest.fixture
def triangle_boundary():
    """Face poset of the hollow triangle with its rotation of order three."""
    p = poset_from_relation(
        ["v0", "v1", "v2", "e0", "e1", "e2"],
        [(0, 3), (0, 5), (1, 3), (1, 4), (2, 4), (2, 5)],
    )
    obj = (1, 2, 0, 4, 5, 3)
    mor = [None] * 6
    for (x, y), m in p.mor_of.items():
        mor[m] = p.mor_of[(obj[x], obj[y])]
    action = close_group([CatAut(obj, tuple(mor))], on=p.category)
    return p, action


@pytest.fixture
def two_edges_z2():
    """Two disjoint edges r_i < b_i swapped by an involution, with b_i -> r_i.

    Built as the nerve of the disjoint union of two 2-chains, so vertex ids
    are poset elements: 0=r1, 1=b1, 2=r2, 3=b2.
    """
    from trispcat.closure import induced_trisp_closure_map

    p = poset_from_relation(["r1", "b1", "r2", "b2"], [(0, 1), (2, 3)])
    obj = (2, 3, 0, 1)
    mor = [None] * 2
    for (x, y), m in p.mor_of.items():
        mor[m] = p.mor_of[(obj[x], obj[y])]
    cat_action = close_group([CatAut(obj, tuple(mor))], on=p.category)
    nv = nerve(p.category)
    from trispcat.symmetry import induced_trisp_action

    taction = induced_trisp_action(nv, cat_action)
    cmap = induced_trisp_closure_map(p, (0, 0, 2, 2))
    return p, nv, cat_action, taction, cmap


@pytest.fixture(scope="session")
def dgn4_bundle():
    """Shared n=4 application data: complex, face poset, operator, actions."""
    from trispcat.accat import check_closure_operator
    from trispcat.graphs import (
        build_dgn,
        face_poset,
        face_poset_action,
        transitive_closure_operator,
    )
    from trispcat.symmetry import induced_trisp_action

    k = build_dgn(4)
    fp = face_poset(k)
    bd = nerve(fp.category)
    f = transitive_closure_operator(k, fp)
    act = face_poset_action(k, fp)
    tact = induced_trisp_action(bd, act)
    report = check_closure_operator(fp.poset, f)
    return {
        "k": k,
        "fp": fp,
        "bd": bd,
        "f": f,
        "act": act,
        "tact": tact,
        "closure_report": report,
    }
