"""Exact twisted cohomology of simplicial complexes with rational weights."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lcsflow.exactlinalg import rational_rank
from lcsflow.simplicial import (
    FIXTURE_BUILDERS,
    CocycleViolation,
    build_complex,
    circle_complex,
    coboundary_matrix,
    cylinder_complex,
    disk_complex,
    local_system,
    projective_plane_complex,
    random_local_system,
    sphere_complex,
    torus_grid_complex,
    twisted_betti,
)
from oracles import gauge_transform


def _frac_matmul(a, b):
    if not a or not b:
        return []
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_build_complex_closure_and_counts():
    cx = build_complex([(0, 1, 2), (1, 2, 3)])
    assert cx.counts() == (4, 5, 2)
    assert cx.euler_characteristic == 1
    assert (1, 2) in cx.simplices[1]
    with pytest.raises(ValueError):
        build_complex([(0, 0, 1)])
    with pytest.raises(ValueError):
        build_complex([])


def test_untwisted_betti_of_the_standard_fixtures():
    cases = [
        (circle_complex(), (1, 1)),
        (disk_complex(), (1, 0, 0)),
        (sphere_complex(), (1, 0, 1)),
        (torus_grid_complex(), (1, 2, 1)),
        (cylinder_complex(), (1, 1, 0)),
        (projective_plane_complex(), (1, 0, 0)),
    ]
    for fixture, expected in cases:
        res = twisted_betti(local_system(fixture.complex, []))
        assert res.dims == expected, fixture.name
        assert res.trivial_system
        assert res.euler_alternating_sum == res.chi


def test_coboundary_squares_to_zero():
    rng = np.random.default_rng(40)
    for name in ("sphere", "torus", "projective_plane"):
        sys = random_local_system(FIXTURE_BUILDERS[name](), rng)
        d0 = coboundary_matrix(sys, 0)
        d1 = coboundary_matrix(sys, 1)
        prod = _frac_matmul(d1, d0)
        assert all(x == 0 for row in prod for x in row)


def test_nontrivial_circle_holonomy_kills_cohomology():
    fx = circle_complex()
    # weight 2 on one edge: loop holonomy 2 != 1
    sys = local_system(fx.complex, [((0, 5), Fraction(2))])
    assert not sys.is_trivial
    res = twisted_betti(sys)
    assert res.dims == (0, 0)
    assert res.euler_alternating_sum == res.chi


def test_gauge_transform_preserves_betti_numbers():
    rng = np.random.default_rng(41)
    fx = torus_grid_complex()
    sys = random_local_system(fx, rng)
    base = twisted_betti(sys)
    pot = {
        v: Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        for v in fx.complex.vertices
    }
    res = twisted_betti(gauge_transform(sys, pot))
    assert res.dims == base.dims
    with pytest.raises(ValueError):
        gauge_transform(sys, {0: Fraction(-1)})


def test_euler_identity_on_random_systems():
    rng = np.random.default_rng(42)
    for name, builder in FIXTURE_BUILDERS.items():
        for _ in range(6):
            sys = random_local_system(builder(), rng)
            res = twisted_betti(sys)
            assert res.euler_alternating_sum == res.chi, name
            assert res.chi == sys.complex.euler_characteristic


fixture_names = st.sampled_from(sorted(FIXTURE_BUILDERS))
seeds = st.integers(0, 2**32 - 1)
positive_rationals = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))


@given(name=fixture_names, seed=seeds, data=st.data())
def test_gauge_transform_never_changes_twisted_betti(name, seed, data):
    fx = FIXTURE_BUILDERS[name]()
    sys = random_local_system(fx, np.random.default_rng(seed))
    pot = {v: data.draw(positive_rationals) for v in fx.complex.vertices}
    assert twisted_betti(gauge_transform(sys, pot)).dims == twisted_betti(sys).dims


@given(name=fixture_names, seed=seeds)
def test_euler_identity_holds_for_random_systems_on_every_fixture(name, seed):
    fx = FIXTURE_BUILDERS[name]()
    res = twisted_betti(random_local_system(fx, np.random.default_rng(seed)))
    assert res.euler_alternating_sum == res.chi == fx.complex.euler_characteristic


@given(name=fixture_names, seed=seeds)
def test_exact_ranks_match_float_ranks_on_every_fixture(name, seed):
    # the Euler identity above holds for any ranks; this one can fail on a
    # wrong rank (the coboundaries' smallest relative nonzero singular
    # values sit far above the float rank cutoff)
    fx = FIXTURE_BUILDERS[name]()
    sys = random_local_system(fx, np.random.default_rng(seed))
    for k in range(fx.complex.dim):
        m = coboundary_matrix(sys, k)
        assert rational_rank(m) == np.linalg.matrix_rank(np.array(m, dtype=float)), (name, k)


def test_pure_gauge_system_matches_classical_betti():
    rng = np.random.default_rng(43)
    fx = sphere_complex()
    # no cocycles on the sphere: random system is pure gauge, hence trivial
    sys = random_local_system(fx, rng)
    assert sys.is_trivial
    assert twisted_betti(sys).dims == (1, 0, 1)


def test_torus_with_one_unit_holonomy():
    fx = torus_grid_complex()
    # put holonomy t on the first winding cocycle only
    t = Fraction(3, 2)
    weights = [
        (e, t ** z) for e, z in fx.cocycles[0].items()
    ]
    sys = local_system(fx.complex, weights)
    assert not sys.is_trivial
    res = twisted_betti(sys)
    # one nontrivial circle factor: all twisted Betti numbers vanish
    assert res.dims == (0, 0, 0)
    assert res.euler_alternating_sum == res.chi


def test_weight_inference_from_triangles():
    # one 2-simplex: fixing two edges forces the third
    cx = build_complex([(0, 1, 2)])
    sys = local_system(cx, [((0, 1), Fraction(2)), ((1, 2), Fraction(3, 2))])
    assert sys.weights[(0, 2)] == Fraction(3)
    assert sys.is_trivial  # simply connected, so always pure gauge


def test_cocycle_violation_detected():
    cx = build_complex([(0, 1, 2)])
    with pytest.raises(CocycleViolation):
        local_system(
            cx,
            [((0, 1), Fraction(2)), ((1, 2), Fraction(1)), ((0, 2), Fraction(5))],
        )
    with pytest.raises(ValueError):
        local_system(cx, [((0, 1), Fraction(-2))])
    with pytest.raises(ValueError):
        local_system(cx, [((0, 7), Fraction(2))])


def test_reverse_orientation_spec_inverts_weight():
    fx = circle_complex()
    sys = local_system(fx.complex, [((5, 0), "1/2")])
    assert sys.weights[(0, 5)] == Fraction(2)
    assert sys.transport(5, 0) == Fraction(1, 2)


def test_h0_counts_components_only_for_trivial_holonomy():
    # two disjoint circles: b0 = 2 untwisted
    edges = [(i, (i + 1) % 3) for i in range(3)]
    edges += [(3 + i, 3 + (i + 1) % 3) for i in range(3)]
    cx = build_complex(edges)
    res = twisted_betti(local_system(cx, []))
    assert res.dims == (2, 2)
    # twist one component: only the untwisted one still contributes
    sys = local_system(cx, [((0, 2), Fraction(7))])
    assert twisted_betti(sys).dims == (1, 1)
