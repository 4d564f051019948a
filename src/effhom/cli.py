"""Command-line driver: homology, homotopy groups, Postnikov data, checks.

Input documents are JSON, either facet lists or explicit simplicial sets
(per-dimension cell names plus a face table of (base cell, degeneracy
list) pairs).  Exit codes: 0 ok, 1 verification failure, 2 input error,
3 internal consistency error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import warnings

from .chains import complex_homology, homology_groups, normalized_chains
from .reduction import (check_reduction, collapse_equipment,
                        trivial_equipment)
from .simplicial import FinSSet, Simplex, from_facets, nondeg, sphere
from .smith import IntMatrix, smith_normal_form


class InputError(Exception):
    pass


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def parse_document(doc) -> FinSSet:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InputError("document must be an object with a 'kind' field")
    kind = doc["kind"]
    if kind == "facets":
        facets = doc.get("facets")
        if not isinstance(facets, list) or not facets:
            raise InputError("'facets' must be a nonempty list")
        for pos, f in enumerate(facets):
            if (not isinstance(f, list) or not f
                    or not all(type(v) is int for v in f)):
                raise InputError(f"facet #{pos} is not a list of integers")
            if len(set(f)) != len(f):
                raise InputError(f"facet #{pos} has a duplicate vertex: {f}")
        return from_facets([tuple(f) for f in facets])
    if kind == "simplicial_set":
        return _parse_sset_document(doc)
    raise InputError(f"unknown document kind {kind!r}")


def _parse_sset_document(doc) -> FinSSet:
    try:
        cells = {int(d): names for d, names in doc["cells"].items()}
    except (KeyError, ValueError, AttributeError):
        raise InputError("'cells' must map dimensions to cell-name lists")
    dims = {}
    for d, names in cells.items():
        if d < 0:
            raise InputError(f"negative dimension {d}")
        if not isinstance(names, list) \
                or not all(isinstance(name, str) for name in names):
            raise InputError(f"cells of dimension {d} must be a list of "
                             "cell names (strings)")
        for name in names:
            if name in dims:
                raise InputError(f"duplicate cell name {name!r}")
            dims[name] = d
    faces = {}
    table = doc.get("faces", {})
    if not isinstance(table, dict):
        raise InputError("'faces' must map cell names to face lists")
    for name in table:
        if dims.get(name, 0) < 1:
            raise InputError(f"'faces' has an entry for {name!r}, which is "
                             "not a cell of dimension 1 or more")
    for name, dim in dims.items():
        if dim == 0:
            continue
        entry = table.get(name)
        if not isinstance(entry, list) or len(entry) != dim + 1:
            raise InputError(
                f"cell {name!r} needs exactly {dim + 1} face entries")
        built = []
        for i, pair in enumerate(entry):
            if not (isinstance(pair, list) and len(pair) == 2
                    and isinstance(pair[0], str) and isinstance(pair[1], list)
                    and all(type(x) is int for x in pair[1])):
                raise InputError(f"face {i} of {name!r} is malformed: "
                                 "expected [cell name, degeneracy list]")
            base, degs = pair[0], tuple(pair[1])
            if base not in dims:
                raise InputError(f"face {i} of {name!r}: unknown cell {base!r}")
            if dims[base] + len(degs) != dim - 1:
                raise InputError(
                    f"face {i} of {name!r} has dimension "
                    f"{dims[base] + len(degs)}, expected {dim - 1}")
            # s_j applies to a simplex of dimension dims[base] + t, the t-th
            # index of the ascending word, and needs j <= that dimension
            if any(not 0 <= j <= dims[base] + t for t, j in enumerate(degs)):
                raise InputError(
                    f"face {i} of {name!r}: degeneracies {list(degs)} do not "
                    f"apply to the {dims[base]}-cell {base!r}")
            try:
                built.append(Simplex(base, degs, dim - 1))
            except ValueError as exc:
                raise InputError(f"face {i} of {name!r}: {exc}")
        faces[name] = tuple(built)
    X = FinSSet({d: names for d, names in cells.items()}, faces)
    _check_face_identities(X, dims)
    return X


def _check_face_identities(X: FinSSet, dims):
    for name, d in dims.items():
        if d < 2:
            continue
        s = nondeg(name, d)
        for j in range(1, d + 1):
            for i in range(j):
                lhs = X.face(i, X.face(j, s))
                rhs = X.face(j - 1, X.face(i, s))
                if lhs != rhs:
                    raise InputError(
                        f"face table inconsistent at {name!r}: "
                        f"d_{i} d_{j} != d_{j - 1} d_{i}")


def parse_input(path) -> FinSSet:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    return parse_document(doc)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _emit(args, human_lines, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in human_lines:
            print(line)


def cmd_homology(args) -> int:
    if args.max_dim is not None and args.max_dim < 0:
        raise InputError("--max-dim must be at least 0")
    X = parse_input(args.file)
    d = args.max_dim if args.max_dim is not None else X.top_dim
    Y = collapse_equipment(X, normalized_chains(X))
    groups = homology_groups(Y.effective, d)
    rendered = [g.render() for g in groups]
    _emit(args, [", ".join(rendered)],
          {"command": "homology", "input": args.file,
           "groups": rendered, "checks": []})
    return 0


def _check_tower_args(args):
    if args.k < 2:
        raise InputError("--k must be at least 2")


def _file_tower(args, degree_cap=None):
    """Equip the input and build its tower; the tower is None on refusal.

    The input is equipped with the critical cells of a greedy collapse
    (`collapse_equipment`), so each stage's effective cone carries those
    instead of all of C(X).  `build_tower` refuses empty or disconnected
    input and input whose stage-1 group H_1 is not trivial; the reason
    goes to stderr.
    """
    from .postnikov import build_tower
    X = parse_input(args.file)
    Y = collapse_equipment(X, normalized_chains(X, name=f"C({args.file})"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return Y, build_tower(Y, args.k, degree_cap=degree_cap)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return Y, None


def cmd_pi(args) -> int:
    _check_tower_args(args)
    if not args.assume_simply_connected:
        print("warning: results are only meaningful for simply connected "
              "input; connectivity and H_1 = 0 are verified",
              file=sys.stderr)
    _, T = _file_tower(args)
    if T is None:
        return 1
    rendered = [T.stage(i).pi_i.render() for i in range(2, args.k + 1)]
    line = ", ".join(f"pi_{i} = {g}" for i, g in zip(range(2, args.k + 1),
                                                    rendered))
    _emit(args, [line], {"command": "pi", "input": args.file,
                         "groups": rendered, "checks": []})
    return 0


def _find_simplex(X: FinSSet, token: str):
    token = token.strip().strip("<>⟨⟩").strip()
    for cell in X.all_cells():
        if str(cell) == token:
            return X.simplex(cell)
    candidates = []
    if "," in token or " " in token:
        try:
            candidates.append(
                tuple(int(v) for v in token.replace(",", " ").split()))
        except ValueError:
            pass
    elif token.isdigit():
        # a number names a vertex before its digits name a simplex
        candidates += [(int(token),), tuple(int(ch) for ch in token)]
    for verts in candidates:
        for cell in X.all_cells():
            if cell == verts or (len(verts) == 1 and cell == verts[0]):
                return X.simplex(cell)
    raise InputError(f"unknown simplex name {token!r}")


def cmd_postnikov(args) -> int:
    from .postnikov import evaluate_k_invariant, evaluate_phi
    _check_tower_args(args)
    if args.degree_cap is not None and args.degree_cap < args.k + 2:
        raise InputError("--degree-cap must be at least k + 2")
    Y, T = _file_tower(args, args.degree_cap)
    if T is None:
        return 1
    lines, payload = [], {"command": "postnikov", "input": args.file,
                          "groups": [], "checks": []}
    if args.eval:
        stage_s, _, simplex_s = args.eval.partition(":")
        try:
            i = int(stage_s)
        except ValueError:
            raise InputError(f"bad --eval stage {stage_s!r}")
        if not 1 <= i <= args.k:
            raise InputError(f"--eval stage must be in 1..{args.k}")
        sigma = _find_simplex(Y.obj, simplex_s)
        img = evaluate_phi(T, i, sigma)
        prev = T.phi0(sigma) if i == 1 else T.stage(i - 1).phi_i(sigma)
        kimg = evaluate_k_invariant(T, i, prev)
        lines.append(f"phi_{i}({simplex_s}) = {img!r}")
        lines.append(f"k_{i - 1}(phi_{i - 1}({simplex_s})) = {kimg!r}")
        payload["eval"] = {"stage": i, "simplex": simplex_s,
                           "phi": repr(img), "k_invariant": repr(kimg)}
    else:
        cap = T.degree_cap
        for i in range(1, args.k + 1):
            st = T.stage(i)
            ranks = [len(st.P_i.effective.basis(d)) for d in range(cap + 1)]
            lines.append(f"stage {i}: pi_{i} = {st.pi_i.render()}, "
                         f"effective ranks {ranks}")
            payload["groups"].append(st.pi_i.render())
            payload["checks"].append({"name": f"stage_{i}_ranks",
                                      "ranks": ranks})
    _emit(args, lines, payload)
    return 0


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def _suite_reduction_axioms(seed, samples):
    from .ez import product_equivalence
    rng = random.Random(seed)
    checks = []
    S1 = sphere(1)
    S2 = sphere(2)
    eqs = [trivial_equipment(S1, normalized_chains(S1, name="C(S1)")),
           trivial_equipment(S2, normalized_chains(S2, name="C(S2)"))]
    torus = product_equivalence([eqs[0], eqs[0]])
    prod = product_equivalence(eqs)
    S3 = sphere(3)
    collapse2 = collapse_equipment(S2, eqs[1].chains)
    collapse3 = collapse_equipment(S3, normalized_chains(S3, name="C(S3)"))
    for name, red in (("torus Eilenberg-Zilber reduction", torus.red),
                      ("torus roof left leg", torus.eq.left),
                      ("S1xS2 Eilenberg-Zilber reduction", prod.red),
                      ("collapse of S2", collapse2.eq.right),
                      ("collapse of S3", collapse3.eq.right)):
        broken = check_reduction(red, 4, rng, samples)
        checks.append((f"reduction axioms: {name}"
                       + (f" [{broken}]" if broken else ""), broken is None))
    return checks


def _suite_smith(seed, samples):
    rng = random.Random(seed)
    checks = []
    ok_shape = ok_div = ok_uni = True
    for _ in range(samples):
        r, c = rng.randint(1, 12), rng.randint(1, 12)
        A = IntMatrix(r, c, {(i, j): rng.randint(-10, 10)
                             for i in range(r) for j in range(c)
                             if rng.random() < 0.6})
        s = smith_normal_form(A)
        D = s.U.mul(A).mul(s.V)
        diag = s.diagonal
        for (i, j), v in D.entries.items():
            if i != j or not (i < len(diag) and diag[i] == v):
                ok_shape = False
        for t in range(1, len(diag)):
            if diag[t - 1] and diag[t] % diag[t - 1]:
                ok_div = False
        if not (s.U.mul(s.Uinv) == IntMatrix.identity(r)
                and s.V.mul(s.Vinv) == IntMatrix.identity(c)):
            ok_uni = False
    checks.append(("smith: UAV is the stored diagonal", ok_shape))
    checks.append(("smith: divisibility chain", ok_div))
    checks.append(("smith: U, V unimodular with explicit inverses", ok_uni))
    return checks


def _suite_perturbation(seed, samples):
    from .em import em_equivalence
    from .abgroup import cyclic
    checks = []
    E = em_equivalence(cyclic(3), 2)
    eff = E.effective
    ok = True
    for k in range(5):
        for cell in eff.basis(k):
            if not eff.diff(eff.diff_cell(cell)).is_zero():
                ok = False
    checks.append(("perturbation: dd = 0 on the divided complex", ok))
    checks.append(("perturbation: H_2 of the divided K(Z/3,2) is Z/3",
                   complex_homology(eff, 2).group == cyclic(3)))
    rng = random.Random(seed)
    broken = check_reduction(E.eq.right, 4, rng, samples)
    checks.append(("perturbation: divided equipment axioms"
                   + (f" [{broken}]" if broken else ""), broken is None))
    return checks


def _suite_postnikov(_seed, _samples):
    from .postnikov import build_tower, verify_tower
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        S2 = sphere(2)
        T = build_tower(trivial_equipment(
            S2, normalized_chains(S2, name="C(S2)")), 3)
        report = verify_tower(T)
    return [(f"postnikov S2: {name}", passed)
            for name, passed in report.items()]


def _suite_injected_fault(seed, samples):
    """A deliberately broken reduction; must report a named axiom failure."""
    from .chains import Chain, ChainMap, circle_complex, z_complex
    from .reduction import Reduction
    C, D = circle_complex(), z_complex()
    red = Reduction(
        C, D,
        ChainMap(C, D, lambda c: Chain.single("*", 0)
                 if c == "e0" else Chain.zero(1)),
        ChainMap(D, C, lambda c: Chain.single("e0", 0, 2)),  # not a section
        ChainMap(C, C, lambda c: Chain.zero(C.cell_dim(c) + 1), shift=1))
    rng = random.Random(seed)
    broken = check_reduction(red, 1, rng, samples)
    return [(f"injected fault detected [{broken}]", broken is not None),
            ("injected fixture fails as designed", broken == "fg=id")]


_SUITES = {
    "reduction-axioms": _suite_reduction_axioms,
    "smith": _suite_smith,
    "perturbation": _suite_perturbation,
    "postnikov": _suite_postnikov,
    "injected-fault": _suite_injected_fault,
}


def cmd_verify(args) -> int:
    if args.samples < 1:
        raise InputError("--samples must be at least 1")
    if args.suite == "all":
        names = [n for n in _SUITES if n != "injected-fault"]
    elif args.suite in _SUITES:
        names = [args.suite]
    else:
        raise InputError(f"unknown suite {args.suite!r}; "
                         f"available: {', '.join(_SUITES)}, all")
    checks = []
    for name in names:
        checks.extend(_SUITES[name](args.seed, args.samples))
    lines = [f"{name}: {'pass' if ok else 'FAIL'}" for name, ok in checks]
    payload = {"command": "verify", "input": args.suite,
               "groups": [],
               "checks": [{"name": n, "passed": ok} for n, ok in checks]}
    _emit(args, lines, payload)
    return 0 if all(ok for _, ok in checks) else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="effhom",
        description="homology, homotopy groups and Postnikov stages of "
                    "finite simplicial complexes")
    sub = p.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("homology", help="homology of a finite input")
    ph.add_argument("file")
    ph.add_argument("--max-dim", type=int, default=None)
    ph.add_argument("--json", action="store_true")
    ph.set_defaults(func=cmd_homology)

    pp = sub.add_parser("pi", help="homotopy groups pi_2..pi_k")
    pp.add_argument("file")
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--assume-simply-connected", action="store_true")
    pp.add_argument("--json", action="store_true")
    pp.set_defaults(func=cmd_pi)

    pk = sub.add_parser("postnikov", help="Postnikov stage data")
    pk.add_argument("file")
    pk.add_argument("--k", type=int, required=True)
    group = pk.add_mutually_exclusive_group()
    group.add_argument("--dump", action="store_true")
    group.add_argument("--eval", metavar="STAGE:SIMPLEX")
    pk.add_argument("--degree-cap", type=int, default=None)
    pk.add_argument("--json", action="store_true")
    pk.set_defaults(func=cmd_postnikov)

    pv = sub.add_parser("verify", help="run a named property suite")
    pv.add_argument("--suite", default="all")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--samples", type=int, default=20)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
