import numpy as np
import pytest

from maxplus import (
    CoveringConfig,
    Grid,
    GridFn,
    Kernel,
    NEG_INF,
    POS_INF,
    ValidationError,
    build_covering,
    conjugate,
    quasicontinuity_check,
    solve_preimage,
    verdict,
)
from conftest import random_kernel_and_g
from oracles import enumerate_preimages, slow_covering_interior
from test_conjugacy import identity_kernel

NEG = NEG_INF
POS = POS_INF

EXACT = CoveringConfig(stencil_radius=0, assume_finite_exact=True)


def test_identity_kernel_covering_minimal():
    k, g = identity_kernel(2)
    rep = build_covering(GridFn(g, [2.0, 5.0]), k)
    assert rep.covered
    assert rep.pieces() == {0: [0], 1: [1]} or {
        y: p.tolist() for y, p in rep.pieces().items()
    } == {0: [0], 1: [1]}
    assert rep.alg_essential.tolist() == [0, 1]
    assert rep.minimal_top


def test_zero_kernel_covering_not_minimal():
    # on a two-point space the discrete topology (radius 0) is the honest
    # one: a radius-1 ball would swallow the whole index set
    g = Grid.line(0, 1, 2)
    k = Kernel.from_table(g, g, np.zeros((2, 2)))
    rep = build_covering(GridFn(g, np.zeros(2)), k, stencil_radius=0)
    assert rep.covered
    for y, piece in rep.pieces().items():
        assert piece.tolist() == [0, 1]
    assert rep.alg_essential.size == 0
    assert not rep.minimal_top


def test_all_plus_inf_g_has_empty_pieces():
    # documented degenerate behavior: +inf g carries no subdifferential, so
    # nothing is covered even though every dual value is -inf
    k, g = identity_kernel(2)
    rep = build_covering(GridFn(g, [POS, POS]), k)
    assert rep.piece_index.tolist() == [0, 1]
    assert all(p.size == 0 for p in rep.pieces().values())
    assert not rep.covered
    assert rep.uncovered_nodes.tolist() == [0, 1]


def test_removing_inessential_piece_keeps_cover(rng):
    for _ in range(30):
        k, g = random_kernel_and_g(rng)
        rep = build_covering(g, k, stencil_radius=0)
        if not rep.covered:
            continue
        target = np.flatnonzero(rep.target)
        ess = set(rep.alg_essential.tolist())
        for y in rep.piece_index:
            if int(y) in ess:
                continue
            others = np.zeros(k.x_grid.size, dtype=bool)
            for z in rep.piece_index:
                if z != y:
                    others[rep.piece(int(z))] = True
            assert others[target].all()


# ---------------------------------------------------------------------------
# quasi-continuity
# ---------------------------------------------------------------------------

def test_quasicontinuity_monotone_step():
    g = Grid.line(0, 3, 4)
    ok, witness = quasicontinuity_check(GridFn(g, [0.0, 0.0, 1.0, 1.0]), 1)
    assert ok and witness is None


def test_quasicontinuity_isolated_spike():
    g = Grid.line(0, 2, 3)
    ok, witness = quasicontinuity_check(GridFn(g, [0.0, 5.0, 0.0]), 1)
    assert not ok
    assert witness == 0  # closing lifts the neighbours of the spike


def test_quasicontinuity_constant():
    g = Grid.line(0, 2, 3)
    ok, _ = quasicontinuity_check(GridFn(g, [7.0, 7.0, 7.0]), 1)
    assert ok


def test_quasicontinuity_needs_domain():
    g = Grid.line(0, 2, 3)
    with pytest.raises(ValidationError):
        quasicontinuity_check(GridFn(g, [POS, POS, NEG]), 1)


# ---------------------------------------------------------------------------
# pre-image certification
# ---------------------------------------------------------------------------

def test_preimage_identity_kernel_exact():
    k, g = identity_kernel(2)
    rep = solve_preimage(GridFn(g, [2.0, 5.0]), k)
    assert rep.passed
    assert np.array_equal(rep.candidate.values, [-2.0, -5.0])
    assert rep.le_margin <= 0.0
    assert rep.eq_residual == 0.0


def test_preimage_bilinear_quadratic_within_grid_resolution():
    g = Grid.line(-1, 1, 101)
    k = Kernel.bilinear(g, g)
    gx = GridFn(g, g.coords**2 / 2)
    h = g.step(0)
    interior = np.arange(10, 91)
    rep = solve_preimage(gx, k, interior, le_tol=0.0, eq_tol=h * h)
    assert rep.passed
    assert rep.eq_residual <= h * h / 2
    # dual values reproduce the quadratic up to grid resolution
    dual = conjugate(gx, k.transpose())
    assert np.abs(dual.values - g.coords**2 / 2).max() <= h * h / 2


def test_preimage_neg_inf_g_documents_degenerate_rows():
    g = Grid.line(0, 1, 2)
    table = np.array([[0.0, NEG], [NEG, 0.0]])
    k = Kernel.from_table(g, g, table)
    rep = solve_preimage(GridFn(g, [NEG, 1.0]), k)
    assert rep.degenerate_rows.tolist() == [0]
    # the candidate is +inf at the node dual to the degenerate row, so the
    # transform collapses there and the certificate passes
    assert np.isposinf(rep.candidate.values[0])
    assert rep.passed


def test_certificate_exact_on_quantized_instances(rng):
    # dyadic data keeps every float operation exact, so PASS certificates
    # satisfy the inequalities on the nose
    hits = 0
    for _ in range(60):
        k, g = random_kernel_and_g(rng)
        rep = solve_preimage(g, k)
        bf, gv = rep.transformed.flat, g.flat
        le = (bf <= gv) | (np.isposinf(bf) & np.isposinf(gv))
        assert le.all()
        if rep.passed:
            hits += 1
            assert np.array_equal(bf, gv)  # X' defaulted to every node
    assert hits > 5


def test_any_subsolution_dominates_dual(rng):
    # antitone Galois property: Bf' <= g forces f' >= dual conjugate of g
    for _ in range(40):
        k, g = random_kernel_and_g(rng)
        dual = conjugate(g, k.transpose()).flat
        ny = k.y_grid.size
        f = rng.integers(-48, 49, ny) / 8.0
        bf = conjugate(GridFn(k.y_grid, f), k).flat
        gv = g.flat
        if ((bf <= gv) | (np.isposinf(bf) & np.isposinf(gv))).all():
            assert (f >= dual).all()


# ---------------------------------------------------------------------------
# verdicts vs exhaustive enumeration
# ---------------------------------------------------------------------------

def _enum_values():
    return [float(v) for v in range(-6, 7)] + [POS]


def test_identity_verdict_unique():
    k, g = identity_kernel(2)
    v = verdict(GridFn(g, [2.0, 5.0]), k, None, EXACT)
    assert v.existence == "YES" and v.uniqueness == "UNIQUE"
    count, found = enumerate_preimages(
        k.matrix().tolist(), [2.0, 5.0], [0, 1], [-6.0, -2.0, -5.0, 0.0, POS]
    )
    assert count == 1 and np.array_equal(found[0], [-2.0, -5.0])


def test_zero_kernel_verdict_not_unique():
    g = Grid.line(0, 1, 2)
    k = Kernel.from_table(g, g, np.zeros((2, 2)))
    v = verdict(GridFn(g, np.zeros(2)), k, None, EXACT)
    assert v.existence == "YES" and v.uniqueness == "NOT_UNIQUE"
    count, found = enumerate_preimages(
        k.matrix().tolist(), [0.0, 0.0], [0, 1], [0.0, 1.0, POS]
    )
    assert count >= 2


def test_uncovered_verdict_no():
    # +inf target value is unreachable by functions bounded below
    k, g = identity_kernel(2)
    v = verdict(GridFn(g, [POS, 0.0]), k, [0, 1], EXACT)
    assert v.existence == "NO"
    count, _ = enumerate_preimages(k.matrix().tolist(), [POS, 0.0], [0, 1], _enum_values())
    assert count == 0


def test_verdicts_match_enumeration(rng):
    from oracles import quantized_instance

    checked = 0
    for _ in range(25):
        b, g, xprime = quantized_instance(rng)
        nx, ny = b.shape
        xg = Grid.line(0, 1, nx) if nx > 1 else Grid.line(0, 0, 1)
        yg = Grid.line(0, 1, ny) if ny > 1 else Grid.line(0, 0, 1)
        k = Kernel.from_table(xg, yg, b)
        v = verdict(GridFn(xg, g), k, xprime, EXACT)
        count, _ = enumerate_preimages(b.tolist(), g.tolist(), xprime, _enum_values())
        assert (v.existence == "YES") == (count >= 1)
        if count >= 1:
            assert v.uniqueness in ("UNIQUE", "NOT_UNIQUE")
            assert (v.uniqueness == "UNIQUE") == (count == 1)
        checked += 1
    assert checked == 25


@pytest.mark.parametrize("radius", [0, 1, 2])
@pytest.mark.parametrize("shape", [(1,), (2,), (37,), (1, 9), (9, 1), (7, 8)])
def test_covering_interior_matches_ball_loop(rng, shape, radius):
    # build_covering's pinned set is alg | interior(top), with interior
    # taken by one boolean dilation; the oracle tests one ball at a time
    if len(shape) == 1:
        yg = Grid.line(0.0, 1.0, shape[0]) if shape[0] > 1 else Grid.line(0.0, 0.0, 1)
        xg = Grid.line(0.0, 1.0, 5)
    else:
        lo = tuple(0.0 if n == 1 else -1.0 for n in shape)
        yg = Grid(lo, (0.0 if shape[0] == 1 else 1.0, 0.0 if shape[1] == 1 else 1.0), shape)
        xg = Grid.line(0.0, 1.0, 5)
    for _ in range(40):
        b = np.round(rng.normal(0, 2, (xg.size, yg.size)), 0)
        b[rng.random(b.shape) < 0.2] = NEG
        b[:, ~np.isfinite(b).any(axis=0)] = 0.0
        b[~np.isfinite(b).any(axis=1), 0] = 0.0
        k = Kernel.from_table(xg, yg, b)
        g = GridFn(xg, np.where(rng.random(5) < 0.2, POS, rng.normal(0, 1, 5)))
        rep = build_covering(g, k, stencil_radius=radius)
        top = np.zeros(yg.size, dtype=bool)
        top[rep.top_essential] = True
        alg = np.zeros(yg.size, dtype=bool)
        alg[rep.alg_essential] = True
        dual_dom = np.isfinite(rep.subdiff.dual.flat)
        ref = alg | slow_covering_interior(yg, top, dual_dom, radius)
        assert rep.pinned.tolist() == np.flatnonzero(ref).tolist()


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def wrapped(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)
    return calls


@pytest.mark.parametrize("finite_exact", [True, False])
def test_verdict_builds_each_piece_once(rng, monkeypatch, finite_exact):
    import maxplus.covering as covering

    k, g = random_kernel_and_g(rng, max_nodes=6)
    cfg = CoveringConfig(stencil_radius=1, assume_finite_exact=finite_exact)
    want = verdict(g, k, None, cfg)
    conj = _counting(monkeypatch, covering, "conjugate")
    masks = _counting(monkeypatch, covering, "domain_masks")
    lifts = _counting(monkeypatch, covering, "lifted_candidate")
    sub = _counting(monkeypatch, covering, "subdifferential_map")
    got = verdict(g, k, None, cfg)
    # the dual conjugate inside subdifferential_map (through its own
    # module) plus B of the candidate: one conjugate call here
    assert (len(sub), len(conj), len(masks), len(lifts)) == (1, 1, 1, 1)
    assert (got.existence, got.uniqueness) == (want.existence, want.uniqueness)
    assert got.assumptions == want.assumptions


def test_solve_preimage_with_a_built_candidate_is_unchanged(rng):
    from maxplus.covering import lifted_candidate

    for _ in range(40):
        k, g = random_kernel_and_g(rng, max_nodes=6)
        xprime = np.flatnonzero(rng.random(k.x_grid.size) < 0.6)
        plain = solve_preimage(g, k, xprime, eq_tol=0.5)
        cand = lifted_candidate(conjugate(g, k.transpose()))
        reuse = solve_preimage(g, k, xprime, eq_tol=0.5, _candidate=cand)
        for name in ("candidate", "transformed"):
            assert np.array_equal(getattr(plain, name).values, getattr(reuse, name).values)
        assert (plain.le_margin, plain.eq_residual, plain.passed) == (
            reuse.le_margin, reuse.eq_residual, reuse.passed
        )
        for name in ("le_violations", "eq_violations", "degenerate_rows"):
            assert np.array_equal(getattr(plain, name), getattr(reuse, name))
