"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import json
import random
import time
import warnings

import pytest

from effhom.abgroup import AbGroup, Z, cyclic
from effhom.chains import homology_groups, normalized_chains
from effhom.reduction import check_reduction, trivial_equipment
from effhom.simplicial import from_facets, sphere
from helpers import RP2_FACETS, TORUS_FACETS, run_cli


@pytest.fixture
def report(capsys):
    """One always-visible pass/fail line per criterion."""

    def _report(n, desc, ok, elapsed=None):
        timing = f" ({elapsed:.1f}s)" if elapsed is not None else ""
        line = f"[criterion {n}] {desc}: {'PASS' if ok else 'FAIL'}{timing}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def equip(X, name):
    return trivial_equipment(X, normalized_chains(X, name=name))


# -- criterion 1: homology of finite complexes ------------------------------

def test_criterion_1_finite_homology(report):
    t0 = time.monotonic()
    ok = True
    s2 = [g.render() for g in homology_groups(normalized_chains(sphere(2)), 2)]
    ok &= s2 == ["Z", "0", "Z"]
    rp2 = [g.render() for g in
           homology_groups(normalized_chains(from_facets(RP2_FACETS)), 2)]
    ok &= rp2 == ["Z", "Z/2", "0"]
    # torus through the Eilenberg-Zilber route, against the finite model
    from effhom.ez import product_equivalence
    S1 = sphere(1)
    eq = product_equivalence([equip(S1, "C(S1)a"), equip(S1, "C(S1)b")])
    ez_groups = homology_groups(eq.effective, 2)
    brute = homology_groups(
        normalized_chains(from_facets(TORUS_FACETS)), 2)
    ok &= ez_groups == brute == [Z, AbGroup((0, 0)), Z]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    report(1, "homology of S2, RP2, torus-via-EZ", ok, elapsed)


# -- criterion 2: Eilenberg-MacLane homology --------------------------------

def test_criterion_2_em_homology(report):
    from effhom.em import em_equivalence
    t0 = time.monotonic()
    ok = True
    E = em_equivalence(cyclic(2), 1)
    got = [g.render() for g in homology_groups(E.effective, 6)]
    ok &= got == ["Z", "Z/2", "0", "Z/2", "0", "Z/2", "0"]
    E = em_equivalence(Z, 2)
    got = [g.render() for g in homology_groups(E.effective, 6)]
    ok &= got == ["Z", "0", "Z", "0", "Z", "0", "Z"]
    E = em_equivalence(Z, 1)
    got = [g.render() for g in homology_groups(E.effective, 3)]
    ok &= got == ["Z", "Z", "0", "0"]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    report(2, "H_*(K(Z/2,1)), H_*(K(Z,2)), H_*(K(Z,1))", ok, elapsed)


# -- criterion 3: homotopy groups -------------------------------------------

def test_criterion_3_homotopy_groups(report):
    from effhom.postnikov import build_tower
    t0 = time.monotonic()
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        Y2 = equip(sphere(2), "C(S2)")
        T2 = build_tower(Y2, 4)
        Y3 = equip(sphere(3), "C(S3)")
        T3 = build_tower(Y3, 4)
    ok &= T2.stage(2).pi_i == Z
    ok &= T2.stage(2).pi_i == homology_groups(Y2.chains, 2)[2]  # Hurewicz
    ok &= T3.stage(3).pi_i == Z
    ok &= T3.stage(3).pi_i == homology_groups(Y3.chains, 3)[3]  # Hurewicz
    ok &= T2.stage(3).pi_i == Z
    ok &= T3.stage(4).pi_i == cyclic(2)
    ok &= T2.stage(4).pi_i == cyclic(2)
    report(3, "pi_2..4 of S2 and pi_3..4 of S3", ok, time.monotonic() - t0)


# -- criteria 4 and 5: a fully instrumented pi_4(S3) run --------------------

@pytest.fixture(scope="module")
def instrumented_s3_run():
    import effhom.bar as bar_mod
    import effhom.em as em_mod
    import effhom.postnikov as pk_mod
    import effhom.reduction as red_mod

    registry = []
    counts = {"zero_checked_bpl": 0, "twisted_division": 0}
    orig_init = red_mod.Reduction.__init__
    orig_bpl = bar_mod.basic_perturbation
    orig_inv = bar_mod.bar_inverse_reduction

    def init_spy(self, *a, **kw):
        orig_init(self, *a, **kw)
        registry.append(self)

    def bpl_spy(*a, **kw):
        if kw.get("check_zero_small_delta"):
            counts["zero_checked_bpl"] += 1
        return orig_bpl(*a, **kw)

    def inv_spy(*a, **kw):
        # each division builds one standard bar contraction
        counts["twisted_division"] += 1
        return orig_inv(*a, **kw)

    red_mod.Reduction.__init__ = init_spy
    bar_mod.basic_perturbation = bpl_spy
    bar_mod.bar_inverse_reduction = inv_spy
    em_mod._em_cache.clear()
    pk_mod._tower_cache.clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            Y = equip(sphere(3), "C(S3)")
            tower = pk_mod.build_tower(Y, 4)
        assert tower.stage(4).pi_i == cyclic(2)
    finally:
        red_mod.Reduction.__init__ = orig_init
        bar_mod.basic_perturbation = orig_bpl
        bar_mod.bar_inverse_reduction = orig_inv
    return registry, counts, tower


def test_criterion_4_reduction_axiom_suite(instrumented_s3_run, report):
    registry, _counts, tower = instrumented_s3_run
    t0 = time.monotonic()
    cap = tower.degree_cap
    rng = random.Random(2024)
    samples = 200
    failures = sum(
        check_reduction(red, cap, rng, samples) is not None
        for red in registry)
    ok = failures == 0 and len(registry) > 100
    report(4, f"five axioms x {samples}/degree on {len(registry)} "
               "reductions from the pi_4(S3) run", ok,
            time.monotonic() - t0)


def test_criterion_5_perturbation_correctness(instrumented_s3_run, report):
    registry, counts, tower = instrumented_s3_run
    t0 = time.monotonic()
    cap = tower.degree_cap
    ok = True
    # every division in the run went through the zero-perturbation assertion
    ok &= counts["twisted_division"] >= 2
    ok &= counts["zero_checked_bpl"] >= counts["twisted_division"]
    # dd = 0 on every effective complex that appeared in a reduction
    seen = set()
    for red in registry:
        for C in (red.source, red.target):
            if id(C) in seen or not C.is_effective:
                continue
            seen.add(id(C))
            for k in range(cap + 1):
                for cell in C.basis(k):
                    if not C.diff(C.diff_cell(cell)).is_zero():
                        ok = False
    report(5, f"dd = 0 on {len(seen)} effective complexes; zero-perturbation "
               f"identity active in all {counts['twisted_division']} "
               "divisions", ok, time.monotonic() - t0)


# -- criterion 6: Postnikov consistency -------------------------------------

def test_criterion_6_postnikov_consistency(report):
    from effhom.postnikov import build_tower, verify_tower
    t0 = time.monotonic()
    ok = True
    susp = [f + (7,) for f in RP2_FACETS] + [f + (8,) for f in RP2_FACETS]
    cases = (("S2", sphere(2), 3), ("S3", sphere(3), 4),
             ("SRP2", from_facets(susp), 3))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, X, k in cases:
            T = build_tower(equip(X, f"C({name})"), k)
            ok &= all(verify_tower(T).values())
    report(6, "tower consistency for S2, S3, suspended RP2", ok,
            time.monotonic() - t0)


# -- criterion 7: Smith normal form -----------------------------------------

def _bareiss_det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for r in range(i + 1, n):
                if m[r][i]:
                    m[i], m[r] = m[r], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]


def test_criterion_7_smith_normal_form(report):
    from effhom.smith import IntMatrix, smith_normal_form
    t0 = time.monotonic()
    rng = random.Random(7)
    ok = True
    oracle_checked = 0
    for _ in range(1000):
        r, c = rng.randint(1, 30), rng.randint(1, 30)
        A = IntMatrix(r, c, {(i, j): rng.randint(-10, 10)
                             for i in range(r) for j in range(c)
                             if rng.random() < 0.5})
        s = smith_normal_form(A)
        D = s.U.mul(A).mul(s.V)
        diag = s.diagonal
        for (i, j), v in D.entries.items():
            if i != j or i >= len(diag) or diag[i] != v:
                ok = False
        for t in range(1, len(diag)):
            if diag[t - 1] and diag[t] % diag[t - 1]:
                ok = False
        # exact integer inverses witness |det| = 1
        if not (s.U.mul(s.Uinv) == IntMatrix.identity(r)
                and s.V.mul(s.Vinv) == IntMatrix.identity(c)):
            ok = False
        if r <= 15 and c <= 15:
            if abs(_bareiss_det(s.U.to_rows())) != 1 or \
                    abs(_bareiss_det(s.V.to_rows())) != 1:
                ok = False
            from sympy import Matrix
            from sympy.matrices.normalforms import smith_normal_form as ssnf
            ref = ssnf(Matrix(A.to_rows()))
            ref_diag = [abs(ref[i, i]) for i in range(min(r, c))
                        if ref[i, i] != 0]
            got = [d for d in diag if d]
            if ref_diag != got:
                ok = False
            oracle_checked += 1
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0 and oracle_checked > 100
    report(7, f"1000 random SNFs, {oracle_checked} oracle comparisons",
            ok, elapsed)


# -- criterion 8: byte-identical JSON output --------------------------------

def test_criterion_8_determinism(tmp_path, report):
    t0 = time.monotonic()
    doc = {"kind": "facets",
           "facets": [[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 3, 4],
                      [0, 2, 3, 4], [1, 2, 3, 4]]}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(doc))
    runs = [run_cli(["pi", str(path), "--k", "4",
                     "--assume-simply-connected", "--json"], seed)
            for seed in ("11", "22")]
    ok = runs[0] == runs[1] and \
        json.loads(runs[0])["groups"] == ["0", "Z", "Z/2"]
    report(8, "cmd_pi --json byte-identical across two runs", ok,
            time.monotonic() - t0)
