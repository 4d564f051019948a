"""One benchmark worker: a fresh interpreter that runs one unit of work.

Usage: python3 worker.py SPEC_JSON

SPEC is a JSON object with `mode` "query" (one `effhom pi` CLI call) or
"kinv" (build the S^2 tower to k = 4 and time k-invariant evaluations),
plus `trace` (wrap the library with perfbench/tracing.py) and mode-specific
fields.  The last line of standard output is a JSON object with the
monotonic time at which set-up ended (`ready`), the timed operations, the
peak RSS right after them, the names of failed checks and, when traced,
the counters and spans.  The parent measures set-up from the moment it
started this process; CLOCK_MONOTONIC is shared by all processes.
"""

import contextlib
import io
import json
import random
import resource
import sys
import time
import warnings

import inputs


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_query(spec):
    """Time one `effhom pi DOC --k K --json --assume-simply-connected`."""
    import effhom.cli as cli
    import effhom.postnikov as postnikov
    query = spec["query"]
    with open(spec["doc_path"], "w") as fh:
        json.dump(inputs.build_document(query), fh)
    argv = ["pi", spec["doc_path"], "--k", str(query["k"]), "--json",
            "--assume-simply-connected"]
    out = io.StringIO()
    ready = time.monotonic()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    seconds = time.perf_counter() - t0
    rss = peak_rss_kb()
    op = {"name": query["name"], "size": query["size"], "s": seconds,
          "rc": rc, "groups": None}
    failed_checks = []
    if rc == 0:
        op["groups"] = json.loads(out.getvalue().splitlines()[-1])["groups"]
        if spec.get("verify"):
            # the tower the CLI built is the only one in the process cache
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                for _Y, tower in postnikov._tower_cache.values():
                    report = postnikov.verify_tower(tower)
                    failed_checks += [f"{query['name']}: verify_tower {name}"
                                      for name, ok in report.items() if not ok]
    return ready, [op], rss, failed_checks


def kinv_simplices(T, seed, schedule):
    """Distinct seeded simplices of P_2, `count` per (m, labels, count).

    Each is pair(delta c, the unique m-simplex of P_1): c is a +-1-valued
    1-cochain on Delta^m with 2 to m + 2 nonzero values
    (inputs.random_cocycle_labels), drawn until its coboundary has exactly
    `labels` nonzero values and is a nondegenerate simplex of K(Z, 2).
    """
    st2 = T.stage(2)
    P2, Kn = st2.P_i.obj, st2.fiber.obj
    P1 = T.stage(1).P_i.obj
    vertex = T.stage(1).phi_i(T.Y.obj.simplex(T.Y.obj.cells(0)[0]))
    rng = random.Random(seed)
    out, seen = [], set()
    for m, size, count in schedule:
        made = 0
        for _attempt in range(10_000 * count):
            if made == count:
                break
            labels = inputs.random_cocycle_labels(m, rng.randint(2, m + 2),
                                                  rng)
            key = (m, tuple(labels))
            if len(labels) != size or key in seen:
                continue
            seen.add(key)
            a = Kn.canon(Kn.make_raw(m, [(t, (v,)) for t, v in labels]))
            if a.is_degenerate():
                # then sigma is degenerate too and k_2 reads a lower simplex
                continue
            b = P1.apply_degeneracies(vertex, range(m))
            out.append(P2.pair(a, b))
            made += 1
        else:
            raise ValueError(f"too few distinct {m}-simplices with "
                             f"{size} labels")
    rng.shuffle(out)
    return out


def run_kinv(spec):
    """Build the S^2 tower to k = 4, then time k_2 on seeded simplices."""
    import effhom.cli as cli
    from effhom.chains import normalized_chains
    from effhom.postnikov import (build_tower, evaluate_k_invariant,
                                  evaluate_phi)
    from effhom.reduction import trivial_equipment
    warnings.simplefilter("ignore")
    X = cli.parse_document(inputs.minimal_sphere(2))
    Y = trivial_equipment(X, normalized_chains(X, name="C(S2)"))
    T = build_tower(Y, 4)
    timed = kinv_simplices(T, spec["seed"], spec["schedule"])
    P2 = T.stage(2).P_i.obj
    ready = time.monotonic()
    ops = []
    for sigma in timed:
        t0 = time.perf_counter()
        evaluate_k_invariant(T, 3, sigma)
        seconds = time.perf_counter() - t0
        # size: the number of nonzero values of sigma's cocycle
        ops.append({"name": f"k_2 on a {sigma.dim}-simplex",
                    "size": len(P2.components(sigma)[0].base[1]),
                    "s": seconds})
    rss = peak_rss_kb()

    # checks, outside the timed section
    failed = []
    st = T.stage(3)
    K = st.K_space
    checked = timed + kinv_simplices(T, spec["seed"] + ":check",
                                     spec["check_schedule"])
    for n, sigma in enumerate(checked):
        bad = inputs.face_defects(st.k_invariant, P2.face, K.face, sigma,
                                  sigma.dim)
        if bad:
            failed.append(f"k_2 not simplicial at sample {n}, faces {bad}")
        if sigma.dim >= 5 and not K.is_cocycle(
                K.uncanon(evaluate_k_invariant(T, 3, sigma))):
            failed.append(f"k_2 image of sample {n} not a cocycle")
    rng = random.Random(spec["seed"] + ":phi")
    cells = [c for d in range(3) for c in X.cells(d)]
    for n in range(spec["phi_checks"]):
        cell = rng.choice(cells)
        d = X.dim_of(cell)
        top = rng.randint(d, 5)
        degs = sorted(rng.sample(range(top), top - d))
        sigma = X.apply_degeneracies(X.simplex(cell), degs)
        for i in range(1, T.k + 1):
            try:
                evaluate_phi(T, i, sigma)
            except AssertionError as exc:
                failed.append(f"evaluate_phi stage {i} sample {n}: {exc}")
    return ready, ops, rss, failed


def main():
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.install()
    run = run_query if spec["mode"] == "query" else run_kinv
    ready, ops, rss, failed = run(spec)
    result = {"ready": ready, "ops": ops, "rss_kb": rss,
              "failed_checks": failed}
    if tracer is not None:
        result["counts"] = dict(tracer.counts)
        result["seconds"] = dict(tracer.seconds)
        result["snf_entries"] = tracer.snf_entries
        result["snf_max_side"] = tracer.snf_max_side
        result["spans"] = tracer.spans
        result["effective_rank"] = effective_rank()
    print(json.dumps(result))


def effective_rank() -> int:
    """Summed rank of every built stage's effective complex up to the cap."""
    import effhom.postnikov as postnikov
    total = 0
    for _Y, tower in postnikov._tower_cache.values():
        for st in tower.stages:
            eff = st.P_i.effective
            total += sum(len(eff.basis(d)) for d in range(tower.degree_cap + 1))
    return total


if __name__ == "__main__":
    main()
