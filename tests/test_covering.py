import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxplus import (
    Grid,
    GridFn,
    Kernel,
    NEG_INF,
    POS_INF,
    ValidationError,
    WindowSides,
    build_covering,
    conjugate,
    quasicontinuity_check,
    solve_preimage,
    verdict,
)
from conftest import random_kernel_and_g
from oracles import (
    ball_slices,
    enumerate_preimages,
    slow_covering_interior,
    slow_essential_pieces,
    zero_tol_verdict,
)
from test_conjugacy import dense_attain, identity_kernel

NEG = NEG_INF
POS = POS_INF


def test_identity_kernel_covering_minimal():
    k, g = identity_kernel(2)
    rep = build_covering(GridFn(g, [2.0, 5.0]), k)
    assert rep.covered
    assert [rep.piece(y).tolist() for y in rep.piece_index] == [[0], [1]]
    assert rep.alg_essential.tolist() == [0, 1]
    assert rep.minimal_top


def test_zero_kernel_covering_not_minimal():
    # on a two-point space the discrete topology is the honest one: a
    # radius-1 ball would swallow the whole index set
    g = Grid.line(0, 1, 2)
    k = Kernel.from_table(g, g, np.zeros((2, 2)))
    rep = build_covering(GridFn(g, np.zeros(2)), k, discrete=True)
    assert rep.covered
    for y in rep.piece_index:
        assert rep.piece(y).tolist() == [0, 1]
    assert rep.alg_essential.size == 0
    assert not rep.minimal_top


def test_all_plus_inf_g_has_empty_pieces():
    # documented degenerate behavior: +inf g carries no subdifferential, so
    # nothing is covered even though every dual value is -inf
    k, g = identity_kernel(2)
    rep = build_covering(GridFn(g, [POS, POS]), k)
    assert rep.piece_index.tolist() == [0, 1]
    assert all(rep.piece(y).size == 0 for y in rep.piece_index)
    assert not rep.covered
    assert rep.uncovered_nodes.tolist() == [0, 1]


def test_removing_inessential_piece_keeps_cover(rng):
    for _ in range(30):
        k, g = random_kernel_and_g(rng)
        rep = build_covering(g, k, discrete=True)
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
    ok, witness = quasicontinuity_check(GridFn(g, [0.0, 0.0, 1.0, 1.0]))
    assert ok and witness is None


def test_quasicontinuity_isolated_spike():
    g = Grid.line(0, 2, 3)
    ok, witness = quasicontinuity_check(GridFn(g, [0.0, 5.0, 0.0]))
    assert not ok
    assert witness == 0  # closing lifts the neighbours of the spike


def test_quasicontinuity_constant():
    g = Grid.line(0, 2, 3)
    ok, _ = quasicontinuity_check(GridFn(g, [7.0, 7.0, 7.0]))
    assert ok


def test_quasicontinuity_empty_domain_is_vacuous():
    # no finite value, no node to judge: the check passes, as in verdict
    g = Grid.line(0, 2, 3)
    for vals in ([POS, POS, NEG], [POS, POS, POS], [NEG, NEG, NEG]):
        for tol in (0.0, 1.0):
            assert quasicontinuity_check(GridFn(g, vals), tol) == (True, None)


def survives_closing(f, radius):
    """Does f survive its closing over the Chebyshev balls of ``radius``,
    taken one ball at a time (``oracles.ball_slices``), on its domain?"""
    grid, v = f.grid, f.values

    def ball(i):
        return tuple(slice(lo, hi + 1) for lo, hi in ball_slices(grid, i, radius))

    usc = np.array([v[ball(i)].max() for i in range(grid.size)]).reshape(grid.shape)
    closing = np.array([usc[ball(i)].min() for i in range(grid.size)])
    dom = np.isfinite(f.flat)
    return bool((closing[dom] <= f.flat[dom]).all())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exact_mode_quasicontinuity_is_the_radius_0_closing(data):
    nx, ny = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    cells = st.sampled_from([0.0, 1.0, -2.0, NEG])
    b = np.array(data.draw(st.lists(cells, min_size=nx * ny, max_size=nx * ny)))
    b = b.reshape(nx, ny)
    b[~np.isfinite(b).any(axis=1), 0] = 0.0
    b[0, ~np.isfinite(b).any(axis=0)] = 0.0
    g = np.array(data.draw(st.lists(
        st.sampled_from([0.0, 3.0, -1.0, NEG, POS]), min_size=nx, max_size=nx
    )))
    xg = Grid.line(0, 1, nx) if nx > 1 else Grid.line(0, 0, 1)
    yg = Grid.line(0, 1, ny) if ny > 1 else Grid.line(0, 0, 1)
    # a discrete grid's balls are its nodes: every candidate, +inf
    # entries included, survives the closing; a sampled grid's have radius 1
    k = Kernel.from_table(xg, yg, b)
    exact = verdict(GridFn(xg, g), k, None, discrete=True)
    cand = exact.certificate.candidate
    assert exact.assumptions.quasicontinuous_dual == survives_closing(cand, 0)
    sampled = verdict(GridFn(xg, g), k, None)
    assert sampled.assumptions.quasicontinuous_dual == survives_closing(cand, 1)
    assert quasicontinuity_check(cand)[0] == survives_closing(cand, 1)


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
    rep = solve_preimage(gx, k, interior)
    # B f* reproduces g exactly on these nodes, and the residual stays
    # within the grid's bound
    assert rep.passed
    assert rep.le_margin <= 0.0
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


def test_one_ulp_miss_at_an_xprime_node_fails():
    # B f* is the constant 1 under a zero kernel; g exceeds it by one ulp
    # at node 1 alone, so B f* <= g holds and B f* = g fails there
    xg = Grid.line(0, 1, 3)
    k = Kernel.from_table(xg, Grid.line(0, 1, 2), np.zeros((3, 2)))
    ulp = np.nextafter(1.0, 2.0)
    g = GridFn(xg, [1.0, ulp, 1.0])
    rep = solve_preimage(g, k)
    assert rep.transformed.flat.tolist() == [1.0, 1.0, 1.0]
    assert not rep.passed
    assert rep.eq_violations.tolist() == [1] and rep.le_violations.size == 0
    assert rep.eq_residual == ulp - 1.0
    # off X' the miss is no violation
    assert solve_preimage(g, k, [0, 2]).passed
    v = verdict(g, k, None, discrete=True)
    assert v.existence == "NO" and v.certificate.eq_violations.tolist() == [1]


_PALETTE = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1 + 2**-52, -1 - 2**-52, 1e300, -1e300]


def _palette_or_dyadic(rng, size):
    out = rng.integers(-64, 65, size) / 8.0
    pick = rng.random(size) < 0.3
    out[pick] = rng.choice(_PALETTE, int(pick.sum()))
    return out


def _line(rng, n):
    lo = rng.integers(-16, 1) / 8.0
    return Grid.line(lo, lo + rng.integers(1, 17) / 8.0, n) if n > 1 else Grid.line(lo, lo, 1)


def _box(rng, n):
    axes = [_line(rng, m) for m in n]
    return Grid.box([a.lo[0] for a in axes], [a.hi[0] for a in axes], n)


def _differential_case(rng):
    """A random table or bilinear (1-D or 2-D) kernel, g with infinities,
    X' and the verdict's topology and Y-window sides."""
    kind = rng.integers(3)
    if kind == 0:
        while True:
            nx, ny = rng.integers(1, 9, 2)
            b = _palette_or_dyadic(rng, (nx, ny))
            b[rng.random((nx, ny)) < 0.15] = NEG
            fin = np.isfinite(b)
            if fin.any(axis=1).all() and fin.any(axis=0).all():
                break
        k = Kernel.from_table(_line(rng, nx), _line(rng, ny), b)
    elif kind == 1:
        k = Kernel.bilinear(*(_line(rng, n) for n in rng.integers(1, 10, 2)))
    else:
        k = Kernel.bilinear(*(_box(rng, n) for n in rng.integers(1, 4, (2, 2))))
    nx = k.x_grid.size
    if rng.random() < 0.5:
        gv = _palette_or_dyadic(rng, nx)
    else:
        # an image B f, then with it a one-ulp miss at one node
        f = _palette_or_dyadic(rng, k.y_grid.size)
        f[rng.random(f.size) < 0.1] = POS
        gv = np.array(conjugate(GridFn(k.y_grid, f), k).flat)
        if rng.random() < 0.6:
            i = rng.integers(nx)
            gv[i] = np.nextafter(gv[i], rng.choice([NEG, POS]))
    gv[rng.random(nx) < 0.1] = POS
    gv[rng.random(nx) < 0.05] = NEG
    xprime = None if rng.random() < 0.3 else np.flatnonzero(rng.random(nx) < 0.6)
    dim = k.y_grid.dim
    sides = None if rng.random() < 0.3 else WindowSides(
        *(tuple(bool(v) for v in rng.integers(0, 2, dim)) for _ in range(2))
    )
    return k, GridFn(k.x_grid, gv), xprime, bool(rng.integers(2)), sides


def test_exact_certificate_is_the_zero_tolerance_one():
    # the certificate once compared finite pairs through their difference
    # against tolerances and infinite ones by sign; at zero tolerance that
    # is the exact comparison, so every verdict field agrees with it
    rng = np.random.default_rng(29)
    outcomes = set()
    for _ in range(1200):
        k, g, xprime, discrete, sides = _differential_case(rng)
        got = verdict(g, k, xprime, discrete=discrete, sides=sides)
        want = zero_tol_verdict(g, k, xprime, discrete=discrete, sides=sides)
        assert (got.existence, got.uniqueness, got.assumptions) == (
            want.existence, want.uniqueness, want.assumptions
        )
        for name in (
            "target", "piece_index", "covered", "uncovered_nodes", "alg_essential",
            "top_essential", "pinned", "minimal_alg", "minimal_top",
        ):
            assert np.array_equal(getattr(got.covering, name), getattr(want.covering, name))
        gc, wc = got.certificate, want.certificate
        assert np.array_equal(gc.candidate.flat, wc.candidate.flat)
        assert np.array_equal(gc.transformed.flat, wc.transformed)
        assert (gc.passed, gc.le_margin, gc.eq_residual) == (
            wc.passed, wc.le_margin, wc.eq_residual
        )
        for name in ("le_violations", "eq_violations", "degenerate_rows"):
            assert getattr(gc, name).tolist() == list(getattr(wc, name))
        outcomes.add((k.kind, k.y_grid.dim, discrete, gc.passed, got.existence))
    # both topologies, both kernel kinds and both certificate outcomes occur
    assert {(d, p) for _, _, d, p, _ in outcomes} == {
        (d, p) for d in (True, False) for p in (True, False)
    }
    assert {(kind, dim) for kind, dim, *_ in outcomes} == {
        ("table", 1), ("bilinear", 1), ("bilinear", 2)
    }
    assert {e for *_, e in outcomes} == {"YES", "NO", "UNKNOWN"}


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
    v = verdict(GridFn(g, [2.0, 5.0]), k, None, discrete=True)
    assert v.existence == "YES" and v.uniqueness == "UNIQUE"
    count, found = enumerate_preimages(
        k.matrix().tolist(), [2.0, 5.0], [0, 1], [-6.0, -2.0, -5.0, 0.0, POS]
    )
    assert count == 1 and np.array_equal(found[0], [-2.0, -5.0])


def test_zero_kernel_verdict_not_unique():
    g = Grid.line(0, 1, 2)
    k = Kernel.from_table(g, g, np.zeros((2, 2)))
    v = verdict(GridFn(g, np.zeros(2)), k, None, discrete=True)
    assert v.existence == "YES" and v.uniqueness == "NOT_UNIQUE"
    count, found = enumerate_preimages(
        k.matrix().tolist(), [0.0, 0.0], [0, 1], [0.0, 1.0, POS]
    )
    assert count >= 2


def test_uncovered_verdict_no():
    # +inf target value is unreachable by functions bounded below
    k, g = identity_kernel(2)
    v = verdict(GridFn(g, [POS, 0.0]), k, [0, 1], discrete=True)
    assert v.existence == "NO"
    count, _ = enumerate_preimages(k.matrix().tolist(), [POS, 0.0], [0, 1], _enum_values())
    assert count == 0


@pytest.mark.parametrize(
    "xprime", [[-1], [7], [0, 5], np.ones(2, dtype=bool), [1.7], [True, 2]],
    ids=["negative", "past-the-end", "at-the-size", "short-mask", "fraction", "bool-entry"],
)
def test_verdict_rejects_xprime_outside_the_grid(xprime):
    # [-1] once targeted node 4 and read YES, [7] raised IndexError and a
    # short mask a numpy broadcast error; [1.7] targeted node 1 and read
    # YES, and [True, 2] nodes 1 and 2
    k, g = identity_kernel(5)
    with pytest.raises(ValidationError):
        verdict(GridFn(g, np.zeros(5)), k, xprime, discrete=True)


def test_verdicts_match_enumeration(rng):
    from oracles import quantized_instance

    checked = 0
    for _ in range(25):
        b, g, xprime = quantized_instance(rng)
        nx, ny = b.shape
        xg = Grid.line(0, 1, nx) if nx > 1 else Grid.line(0, 0, 1)
        yg = Grid.line(0, 1, ny) if ny > 1 else Grid.line(0, 0, 1)
        k = Kernel.from_table(xg, yg, b)
        v = verdict(GridFn(xg, g), k, xprime, discrete=True)
        count, _ = enumerate_preimages(b.tolist(), g.tolist(), xprime, _enum_values())
        assert (v.existence == "YES") == (count >= 1)
        if count >= 1:
            assert v.uniqueness in ("UNIQUE", "NOT_UNIQUE")
            assert (v.uniqueness == "UNIQUE") == (count == 1)
        checked += 1
    assert checked == 25


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("shape", [(1,), (2,), (37,), (1, 9), (9, 1), (7, 8)])
def test_covering_interior_matches_ball_loop(shape, seed):
    # build_covering's pinned set is alg | interior(top), with interior
    # taken by one boolean dilation on a sampled grid and top itself on a
    # discrete one; the oracle tests one ball at a time, of radius 1 and 0
    rng = np.random.default_rng(20240817 + seed)
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
        for discrete, radius in ((False, 1), (True, 0)):
            rep = build_covering(g, k, discrete=discrete)
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
    want = verdict(g, k, None, discrete=finite_exact)
    conj = _counting(monkeypatch, covering, "conjugate")
    masks = _counting(monkeypatch, covering, "domain_masks")
    lifts = _counting(monkeypatch, covering, "lifted_candidate")
    sub = _counting(monkeypatch, covering, "subdifferential_map")
    got = verdict(g, k, None, discrete=finite_exact)
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
        plain = solve_preimage(g, k, xprime)
        cand = lifted_candidate(conjugate(g, k.transpose()))
        reuse = solve_preimage(g, k, xprime, _candidate=cand)
        for name in ("candidate", "transformed"):
            assert np.array_equal(getattr(plain, name).values, getattr(reuse, name).values)
        assert (plain.le_margin, plain.eq_residual, plain.passed) == (
            reuse.le_margin, reuse.eq_residual, reuse.passed
        )
        for name in ("le_violations", "eq_violations", "degenerate_rows"):
            assert np.array_equal(getattr(plain, name), getattr(reuse, name))


# ---------------------------------------------------------------------------
# essential pieces against the per-node loop
# ---------------------------------------------------------------------------

def _y_grid(n):
    if len(n) == 1:
        return Grid.line(0.0, 1.0, n[0]) if n[0] > 1 else Grid.line(0.0, 0.0, 1)
    return Grid(
        tuple(0.0 for _ in n), tuple(1.0 if m > 1 else 0.0 for m in n), n
    )


@st.composite
def attainment_cases(draw):
    """Table kernels whose column maxima tie on random row sets.

    Entries in {0, -1, -2, -inf} make the attainment pattern random; a
    constant row ties with every column maximum 0, so some nodes are
    covered by pieces wider than any ball and reaching the grid edges.
    """
    if draw(st.booleans()):
        n = (draw(st.integers(1, 14)),)
    else:
        n = (draw(st.integers(1, 5)), draw(st.integers(1, 5)))
    yg = _y_grid(n)
    nx, ny = draw(st.integers(1, 7)), yg.size
    cells = st.sampled_from([0.0, 0.0, -1.0, -2.0, NEG])
    b = np.array(draw(st.lists(cells, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    if draw(st.booleans()):
        b[draw(st.integers(0, nx - 1))] = 0.0
    b[~np.isfinite(b).any(axis=1), 0] = 0.0
    b[0, ~np.isfinite(b).any(axis=0)] = 0.0
    g = np.array(draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.0, -1.0, POS, NEG]), min_size=nx, max_size=nx
    )))
    xprime = draw(st.one_of(
        st.none(),
        st.just([]),  # an empty target
        st.lists(st.booleans(), min_size=nx, max_size=nx).map(np.array),
    ))
    return b, g, yg, xprime, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(attainment_cases())
def test_essential_pieces_match_per_node_loop(case):
    b, g, yg, xprime, discrete = case
    radius = 0 if discrete else 1  # a discrete grid's balls are its nodes
    xg = Grid.line(0.0, 1.0, b.shape[0]) if b.shape[0] > 1 else Grid.line(0.0, 0.0, 1)
    k = Kernel.from_table(xg, yg, b)
    rep = build_covering(GridFn(xg, g), k, xprime, discrete=discrete)

    # attainment by its definition: b finite, g < +inf, and the term
    # otimes(b, -g) equal to the dual, which is the column max of the terms
    with np.errstate(invalid="ignore"):
        term = np.where(np.isneginf(b) | np.isposinf(g)[:, None], NEG, b - g[:, None])
    dual = term.max(axis=0)
    assert np.array_equal(rep.subdiff.dual.flat, dual)
    attain = np.isfinite(b) & (g < POS)[:, None] & (term == dual)
    assert np.array_equal(rep.subdiff.pairs, np.flatnonzero(attain))

    piece_mask = dual < POS
    alg, top = slow_essential_pieces(attain, piece_mask, rep.target, yg, radius)
    pinned = alg | slow_covering_interior(yg, top, np.isfinite(dual), radius)
    covered_by = (attain & piece_mask).any(axis=1)
    assert rep.uncovered_nodes.tolist() == np.flatnonzero(rep.target & ~covered_by).tolist()
    assert rep.alg_essential.tolist() == np.flatnonzero(alg).tolist()
    assert rep.top_essential.tolist() == np.flatnonzero(top).tolist()
    assert rep.pinned.tolist() == np.flatnonzero(pinned).tolist()
    assert rep.minimal_top == bool(top[piece_mask].all())
    assert rep.minimal_alg == bool(alg[piece_mask].all())


def _centred_grid(n, half):
    """Axes on [-half, half]; a single-node axis sits at half / 4."""
    lo = tuple(-half if m > 1 else half / 4 for m in n)
    return Grid(lo, tuple(-v if m > 1 else v for v, m in zip(lo, n)), n)


def _sweep_case(rng):
    """A random covering problem on a 1-D or 2-D bilinear kernel or a table.

    The envelope merge emits the pairs of every 1-D bilinear case with no
    g = -inf node; one 1-D bilinear case in five has more than 512
    Y-nodes.  g holds rounded values (random ties), a plane through the
    origin (every term ties at one Y-node), sprinkled +inf nodes and rare
    -inf ones; a -inf node makes the dual +inf wherever its kernel row is
    finite, so on a table the piece mask is partial.  A table may pair an
    entry 1e308 with g = -1e308, whose term overflows to +inf: a column
    that is no piece, attained at a target node.
    """
    kind = rng.integers(3)
    if kind < 2:
        dim = 1 + int(kind)
        big = dim == 1 and rng.random() < 0.2
        nx = tuple(int(v) for v in rng.integers(1, 13 if dim == 1 else 5, dim))
        ny = (int(rng.integers(513, 600)),) if big else tuple(
            int(v) for v in rng.integers(1, 40 if dim == 1 else 7, dim)
        )
        xg, yg = _centred_grid(nx, 2.0), _centred_grid(ny, 3.0)
        k = Kernel.bilinear(xg, yg)
        x = xg.coords.reshape(xg.size, dim)
        shape = rng.integers(3)
        if shape == 0:
            g = np.round(rng.uniform(-2, 2, xg.size) + (x**2).sum(axis=1), 1)
        elif shape == 1:
            a = yg.coords.reshape(yg.size, dim)[rng.integers(yg.size)]
            g = x[:, 0] * a[0] + (x[:, 1] * a[1] if dim == 2 else 0.0)
        else:
            g = np.zeros(xg.size)
    else:
        n = rng.integers(1, 9, 1) if rng.random() < 0.5 else rng.integers(1, 5, 2)
        yg = _y_grid(tuple(int(v) for v in n))
        nx, ny = int(rng.integers(1, 9)), yg.size
        b = rng.choice([0.0, 0.0, -1.0, -2.0, 0.5, 1e308, NEG], (nx, ny), p=[0.16] * 5 + [0.05, 0.15])
        b[~np.isfinite(b).any(axis=1), 0] = 0.0
        b[0, ~np.isfinite(b).any(axis=0)] = 0.0
        xg = Grid.line(0.0, 1.0, nx) if nx > 1 else Grid.line(0.0, 0.0, 1)
        k = Kernel.from_table(xg, yg, b)
        g = rng.choice([0.0, 0.0, -1.0, 0.5, -1e308], nx)
    g[rng.random(g.size) < 0.1] = POS
    g[rng.random(g.size) < (0.15 if kind == 2 else 0.03)] = NEG
    xprime = [  # every node, a bool mask or an index list
        None,
        rng.random(xg.size) < 0.7,
        rng.choice(xg.size, int(rng.integers(xg.size + 1)), replace=False),
    ][rng.integers(3)]
    return k, GridFn(xg, g), xprime, bool(rng.random() < 0.3)


def test_build_covering_sweep_against_per_node_loop():
    # the covering read from the pairs against the per-node loop fed the
    # dense attainment matrix, which the pairs must equal
    rng = np.random.default_rng(3217)
    partial = merged = big = overflow = 0
    for _ in range(1200):
        k, fn, xprime, discrete = _sweep_case(rng)
        rep = build_covering(fn, k, xprime, discrete=discrete)
        with np.errstate(over="ignore"):  # the oracle's sums overflow too
            dense = dense_attain(fn, k)
        assert np.array_equal(rep.subdiff.pairs, np.flatnonzero(dense))
        assert np.array_equal(rep.subdiff.attain, dense)

        dual = rep.subdiff.dual.flat
        piece_mask = dual < POS
        partial += 0 < piece_mask.sum() < piece_mask.size
        merged += k.kind == "bilinear" and k.x_grid.dim == 1 and not (fn.flat == NEG).any()
        big += k.kind == "bilinear" and k.y_grid.size > 512
        target = fn.flat > NEG
        if xprime is not None:
            chosen = np.zeros(target.size, dtype=bool)
            chosen[xprime] = True  # a bool mask or an index list
            target &= chosen
        assert np.array_equal(rep.target, target)
        overflow += (dense[target] & ~piece_mask).any()

        radius = 0 if discrete else 1
        alg, top = slow_essential_pieces(dense, piece_mask, target, k.y_grid, radius)
        pinned = alg | slow_covering_interior(k.y_grid, top, np.isfinite(dual), radius)
        uncovered = target & ~(dense & piece_mask).any(axis=1)
        assert rep.covered == (not uncovered.any())
        assert rep.uncovered_nodes.tolist() == np.flatnonzero(uncovered).tolist()
        assert rep.alg_essential.tolist() == np.flatnonzero(alg).tolist()
        assert rep.top_essential.tolist() == np.flatnonzero(top).tolist()
        assert rep.pinned.tolist() == np.flatnonzero(pinned).tolist()
        assert rep.minimal_alg == bool(alg[piece_mask].all())
        assert rep.minimal_top == bool(top[piece_mask].all())
        for y in rep.piece_index:
            assert rep.piece(y).tolist() == np.flatnonzero(dense[:, y]).tolist()
    assert partial >= 50 and merged >= 200 and big >= 50 and overflow >= 10


def test_build_covering_peak_memory():
    # the covering reads the attaining pairs: no |X| x |Y| array, not even
    # the 2.56 MB of a bool attainment matrix
    import tracemalloc

    from maxplus import domain_masks

    n = 1601
    grid = Grid.line(-2.0, 2.0, n)
    k = Kernel.bilinear(grid, grid)
    g = GridFn(grid, 0.5 * grid.coords**2)
    masks = domain_masks(g)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = build_covering(g, k, masks.idom.reshape(-1), _masks=masks)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.covered and rep.minimal_top
    assert peak <= 1.0e6, f"peak {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# degenerate inputs: a verdict or a ValidationError, never NaN or a crash
# ---------------------------------------------------------------------------

@st.composite
def degenerate_cases(draw):
    """Small tables with ±inf entries, single-node axes and empty X'."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([NEG, NEG, POS]))
    b = np.array(draw(st.lists(cells, min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    if draw(st.booleans()):
        b[b == POS] = 0.0  # most tables are valid kernels
    g = np.array(draw(st.lists(
        st.one_of(st.integers(-3, 3).map(float), st.sampled_from([NEG, POS])),
        min_size=nx, max_size=nx,
    )))
    xprime = draw(st.one_of(
        st.just([]), st.lists(st.integers(0, nx - 1), max_size=nx, unique=True)
    ))
    return b, g, xprime


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(degenerate_cases(), st.booleans())
def test_verdict_on_degenerate_inputs(case, finite_exact):
    b, g, xprime = case
    nx, ny = b.shape
    xg = Grid.line(0, 1, nx) if nx > 1 else Grid.line(0, 0, 1)
    yg = Grid.line(0, 1, ny) if ny > 1 else Grid.line(0, 0, 1)
    try:
        k = Kernel.from_table(xg, yg, b)
        v = verdict(GridFn(xg, g), k, xprime, discrete=finite_exact)
    except ValidationError:
        # only a table that is no kernel is rejected
        fin = np.isfinite(b)
        assert np.isposinf(b).any() or not (fin.any(axis=1).all() and fin.any(axis=0).all())
        return
    assert v.existence in ("YES", "NO", "UNKNOWN")
    assert v.uniqueness in ("UNIQUE", "NOT_UNIQUE", "UNKNOWN")
    for arr in (v.certificate.candidate.values, v.certificate.transformed.values):
        assert not np.isnan(arr).any()
    assert not np.isnan([v.certificate.le_margin, v.certificate.eq_residual]).any()

    count, _ = enumerate_preimages(b.tolist(), g.tolist(), xprime, _enum_values())
    if v.existence == "YES":
        assert count >= 1
    if v.existence == "NO":
        assert count == 0
    if finite_exact:
        # on a finite grid with the assumptions granted, the verdict decides
        assert (v.existence == "YES") == (count >= 1)
        if count >= 1:
            assert (v.uniqueness == "UNIQUE") == (count == 1)


# entries and g near the float limit: a sum beyond the float range is
# ±inf, its rounded value, and no RuntimeWarning may fire
EXTREMES = [1e308, -1e308, 1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324, NEG]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("discrete", [False, True])
def test_verdict_where_sums_overflow(discrete):
    g = Grid.line(0, 1, 2)
    k = Kernel.from_table(g, g, np.array([[1e308, 0.0], [0.0, 1e308]]))
    v = verdict(GridFn(g, [-1e308, 0.0]), k, discrete=discrete)
    assert v.certificate.candidate.values.tolist() == [POS, 1e308]  # the dual
    assert v.existence in ("YES", "NO", "UNKNOWN")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("discrete", [False, True])
def test_verdict_sweep_near_the_float_limit(discrete):
    rng = np.random.default_rng(1308)
    for _ in range(300):
        nx, ny = rng.integers(1, 6, 2)
        b = rng.choice(EXTREMES, (nx, ny))
        # every row and every column finite somewhere
        for i in np.flatnonzero(~np.isfinite(b).any(axis=1)):
            b[i, rng.integers(ny)] = rng.choice(EXTREMES[:-1])
        for j in np.flatnonzero(~np.isfinite(b).any(axis=0)):
            b[rng.integers(nx), j] = rng.choice(EXTREMES[:-1])
        g = rng.choice(EXTREMES + [POS], nx)
        xg = Grid.line(0, 1, nx) if nx > 1 else Grid.line(0, 0, 1)
        yg = Grid.line(0, 1, ny) if ny > 1 else Grid.line(0, 0, 1)
        v = verdict(GridFn(xg, g), Kernel.from_table(xg, yg, b), discrete=discrete)
        assert v.existence in ("YES", "NO", "UNKNOWN")
        for arr in (v.certificate.candidate.values, v.certificate.transformed.values):
            assert not np.isnan(arr).any()
        assert not np.isnan([v.certificate.le_margin, v.certificate.eq_residual]).any()
