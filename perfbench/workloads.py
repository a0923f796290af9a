"""The four workloads: seeded inputs, output checks and self-test corruptions.

Each workload object is built from the seed alone and holds the inputs of
one round.  `check(outputs)` maps the index of every operation whose output
is wrong to a reason; it runs outside the timed region and compares
against the reference computations in `exact` (plain Python integers) or
against properties the outputs must have, never against stored outputs.
`corruptions` are deliberate faults, each planted into a copy of a good
round's outputs, that `check` must catch.
"""

from __future__ import annotations

import copy
import json
import random
from collections import Counter
from itertools import product
from math import comb

import exact
from toric_exc.catalog import load_catalog
from toric_exc.cohomology import cohomology_table
from toric_exc.picard import build_pic_context, canonical_divisor, class_to_divisor


class Catalog:
    """The 18 catalog fans with the program's Pic contexts, built once per run."""

    def __init__(self):
        self.records = {r.name: r for r in load_catalog()}
        self.contexts = {n: build_pic_context(r.fan, r.pic_basis) for n, r in self.records.items()}
        self.class_maps = {n: [list(row) for row in c.class_map.entries] for n, c in self.contexts.items()}
        self.basis_problems = {n: exact.basis_problems(self.class_maps[n], r.fan.rays, r.fan.max_cones)
                               for n, r in self.records.items()}


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


class Prove:
    """prove-main-theorem through cli.main, one cold interpreter per operation.

    The theorem has no inputs, so the seed changes nothing here.
    """

    name = "prove"

    def __init__(self, seed, catalog, spawn):
        self.catalog = catalog
        self.spawn = spawn
        self.inputs = {}
        self.ops = self.items = 1
        self._single_thread = None
        self._oracle = {}

    def _single_thread_results(self):
        """`results` of one extra round with TORIC_EXC_THREADS=1, or why it failed."""
        if self._single_thread is None:
            try:
                out = self.spawn(self.name, self.inputs, threads=1)["outputs"][0]
                self._single_thread = json.loads(out["doc"])["results"]
            except Exception as exc:  # a failed reference round fails every comparison
                self._single_thread = f"the TORIC_EXC_THREADS=1 round failed: {exc}"
        return self._single_thread

    def _oracle_dims(self, name, cls):
        key = (name, cls)
        if key not in self._oracle:
            ctx = self.catalog.contexts[name]
            self._oracle[key] = cohomology_table(ctx, class_to_divisor(ctx, cls), escalate=True).dims
        return self._oracle[key]

    def _variety_problem(self, name, result):
        rec = self.catalog.records[name]
        if self.catalog.basis_problems[name]:
            return f"{name}: " + "; ".join(self.catalog.basis_problems[name])
        want = exact.bondal_classes(self.catalog.class_maps[name], rec.fan.rays)
        got = {tuple(s["coords"]) for s in result["summands"]}
        if got != want:
            return f"{name}: summand set differs from Bondal's set by {sorted(got ^ want)}"
        coll = [tuple(c["coords"]) for c in result["collection"]]
        acyclic = result["pairwise"]["acyclic"]
        backward = result["pairwise"]["backward_sections"]
        for a, b in product(range(len(coll)), repeat=2):
            dims = self._oracle_dims(name, tuple(x - y for x, y in zip(coll[b], coll[a])))
            if acyclic[a][b] != all(d == 0 for d in dims[1:]):
                return f"{name}: pair ({a},{b}) acyclicity verdict disagrees with cohomology_table {dims}"
            if a > b and backward[a][b] != (dims[0] > 0):
                return f"{name}: pair ({a},{b}) sections verdict disagrees with cohomology_table {dims}"
        if not result["pass"]:
            return f"{name}: variety did not pass"
        return None

    def check(self, outputs):
        out = outputs[0]
        if "error" in out:
            return {0: out["error"]}
        if out["code"] != 0:
            return {0: f"exit code {out['code']}"}
        results = json.loads(out["doc"])["results"]
        if sorted(results["varieties"]) != ["D1", "D2", "E1", "E2", "E4"] or results["all_pass"] is not True:
            return {0: "the theorem did not pass on all five varieties"}
        for name, result in sorted(results["varieties"].items()):
            problem = self._variety_problem(name, result)
            if problem:
                return {0: problem}
        single = self._single_thread_results()
        if isinstance(single, str):
            return {0: single}
        if json.dumps(results, sort_keys=True) != json.dumps(single, sort_keys=True):
            return {0: "results differ between TORIC_EXC_THREADS=1 and the pinned thread count"}
        return {}

    @staticmethod
    def _move_summand(outputs):
        doc = json.loads(outputs[0]["doc"])
        doc["results"]["varieties"]["D1"]["summands"][0]["coords"][0] += 1
        outputs[0]["doc"] = json.dumps(doc)
        return 0

    corruptions = (("one summand class moved", _move_summand),)


class OracleSweep:
    """cohomology_table, is_acyclic and the sections test on every class of
    the box [-2, 2]^rho of all 18 fans (9730 classes), in seeded order."""

    name = "oracle-sweep"
    SERRE_PER_FAN = 2

    def __init__(self, seed, catalog, spawn):
        rng = _rng(self.name, seed)
        self.catalog = catalog
        self.classes = [[n, list(c)] for n, r in catalog.records.items() for c in product(range(-2, 3), repeat=r.rho)]
        rng.shuffle(self.classes)
        self.index = {(n, tuple(c)): i for i, (n, c) in enumerate(self.classes)}
        self.serre = sorted(i for n in catalog.records
                            for i in rng.sample([j for j, (m, _) in enumerate(self.classes) if m == n], self.SERRE_PER_FAN))
        self.inputs = {"classes": self.classes}
        self.ops = self.items = len(self.classes)
        self._dual = {}

    def _dual_dims(self, i):
        if i not in self._dual:
            name, cls = self.classes[i]
            ctx = self.catalog.contexts[name]
            divisor = class_to_divisor(ctx, cls)
            dual = tuple(k - d for k, d in zip(canonical_divisor(ctx.fan), divisor))
            self._dual[i] = list(cohomology_table(ctx, dual, escalate=True).dims)
        return self._dual[i]

    def check(self, outputs):
        bad = {}
        for i, ((name, cls), out) in enumerate(zip(self.classes, outputs)):
            if "error" in out:
                bad[i] = out["error"]
            elif out["acyclic"] != all(d == 0 for d in out["dims"][1:]):
                bad[i] = f"{name} {cls}: criterion says acyclic={out['acyclic']}, oracle h={out['dims']}"
            elif out["sections"] != (out["dims"][0] > 0):
                bad[i] = f"{name} {cls}: sections test says {out['sections']}, oracle h={out['dims']}"
            elif not any(cls) and out["dims"] != [1, 0, 0, 0]:
                bad[i] = f"{name}: h(O) = {out['dims']}"
        # chi is a polynomial of degree <= 3 in the class, so along every
        # axis line of the box its 4th finite difference vanishes.
        for name, rec in self.catalog.records.items():
            for axis in range(rec.rho):
                for base in product(range(-2, 3), repeat=rec.rho):
                    if base[axis] != -2:
                        continue
                    line = [self.index[(name, base[:axis] + (base[axis] + k,) + base[axis + 1:])] for k in range(5)]
                    if any("error" in outputs[j] for j in line):
                        continue
                    chis = [sum((-1) ** q * h for q, h in enumerate(outputs[j]["dims"])) for j in line]
                    if sum((-1) ** k * comb(4, k) * chi for k, chi in enumerate(chis)):
                        for j in line:
                            bad.setdefault(j, f"{name}: 4th difference of chi along axis {axis} through {base} is not 0")
        for i in self.serre:
            out = outputs[i]
            if "error" not in out and out["dims"] != self._dual_dims(i)[::-1]:
                bad.setdefault(i, f"{self.classes[i]}: Serre duality fails, h(D)={out['dims']}, h(K-D)={self._dual_dims(i)}")
        return bad

    @staticmethod
    def _bump_h1(outputs):
        outputs[0]["dims"][1] += 1
        return 0

    corruptions = (("one h^p bumped by 1", _bump_h1),)


class Thomsen:
    """decompose for the trivial bundle, -K and a random twist on all 18 fans.

    Prime ladder: twists at 31 or 37 (small enough for the full multiset to
    be enumerated in Python), O and -K at 41 to 53, and F2 at 101, where the
    enumeration dominates and the thread pool pays.  The top rung is pinned
    so that peak memory compares across seeds.
    """

    name = "thomsen"
    LOW, MID, TOP = (31, 37), (41, 43, 47, 53), ("F2", 101)
    FULL_CHECK_MAX_P = 37

    def __init__(self, seed, catalog, spawn):
        rng = _rng(self.name, seed)
        self.catalog = catalog
        requests = []
        for name, rec in catalog.records.items():
            m = rec.fan.n_rays
            requests.append([name, [rng.randint(-3, 3) for _ in range(m)], rng.choice(self.LOW)])
            requests.append([name, [0] * m, rng.choice(self.MID)])
            requests.append([name, [1] * m, rng.choice(self.MID)])
        rng.shuffle(requests)
        top, p = self.TOP
        # First, on a fresh heap, so that its peak memory does not depend on the order.
        self.requests = requests = [[top, [0] * catalog.records[top].fan.n_rays, p]] + requests
        self.inputs = {"requests": requests}
        self.ops = len(requests)
        self.items = sum(p ** 3 for _, _, p in requests)
        self._multisets = {}

    def _multiset(self, i):
        if i not in self._multisets:
            name, a, p = self.requests[i]
            self._multisets[i] = exact.thomsen_multiset(self.catalog.class_maps[name],
                                                        self.catalog.records[name].fan.rays, a, p)
        return self._multisets[i]

    def check(self, outputs):
        bad = {}
        for i, ((name, a, p), out) in enumerate(zip(self.requests, outputs)):
            M = self.catalog.class_maps[name]
            if "error" in out:
                bad[i] = out["error"]
                continue
            got = Counter()
            for cls, mult in out["summands"]:
                got[tuple(cls)] += mult
            c1 = tuple(sum(mult * c[k] for c, mult in got.items()) for k in range(len(M)))
            if self.catalog.basis_problems[name]:
                bad[i] = f"{name}: " + "; ".join(self.catalog.basis_problems[name])
            elif tuple(out["divisor_class"]) != exact.apply(M, a):
                bad[i] = f"{name} {a}: divisor class {out['divisor_class']} != {exact.apply(M, a)}"
            elif sum(got.values()) != p ** 3 or any(mult <= 0 for mult in got.values()):
                bad[i] = f"{name} {a} p={p}: multiplicities sum to {sum(got.values())}, not p^3"
            elif c1 != exact.thomsen_c1(M, a, p):
                bad[i] = f"{name} {a} p={p}: first Chern sum {c1} != {exact.thomsen_c1(M, a, p)}"
            elif p <= self.FULL_CHECK_MAX_P and got != self._multiset(i):
                bad[i] = f"{name} {a} p={p}: summand multiset differs from the direct enumeration"
        return bad

    @staticmethod
    def _move_summand(outputs):
        outputs[0]["summands"][0][0][0] += 1
        return 0

    corruptions = (("one summand class moved", _move_summand),)


def star_subdivisions(rays, cones, target, rng):
    """Blow up seeded torus-fixed points and curves until there are `target` rays.

    A maximal cone (i, j, k) gets the ray v_i + v_j + v_k and splits into
    three; a 2-face (i, j) gets v_i + v_j and its two maximal cones split
    into four.  Both keep the fan smooth and complete.
    """
    rays = [list(r) for r in rays]
    cones = [tuple(c) for c in cones]
    while len(rays) < target:
        cone = rng.choice(cones)
        new = len(rays)
        if rng.random() < 0.5:
            rays.append([sum(rays[i][k] for i in cone) for k in range(3)])
            cones.remove(cone)
            i, j, k = cone
            cones += [(i, j, new), (i, k, new), (j, k, new)]
        else:
            edge = rng.sample(cone, 2)
            rays.append([rays[edge[0]][k] + rays[edge[1]][k] for k in range(3)])
            for c in [c for c in cones if set(edge) <= set(c)]:
                cones.remove(c)
                (other,) = set(c) - set(edge)
                cones += [(edge[0], other, new), (edge[1], other, new)]
    return rays, cones


class BlowupFans:
    """Seeded blow-ups of catalog fans, two of each size 9 to 13 rays, handed
    to the program as fan-file text.  Two per size halve the seed-to-seed
    spread that the shape of single fans adds to the round's time."""

    name = "blowup-fans"
    TARGETS = (9, 9, 10, 10, 11, 11, 12, 12, 13, 13)

    def __init__(self, seed, catalog, spawn):
        rng = _rng(self.name, seed)
        bases = list(catalog.records.values())
        self.fans = []
        for target in self.TARGETS:
            base = rng.choice(bases).fan
            rays, cones = star_subdivisions(base.rays, base.max_cones, target, rng)
            order = list(range(target))
            rng.shuffle(order)             # new label of each ray
            rays = [rays[old] for old in sorted(range(target), key=order.__getitem__)]
            cones = [tuple(order[i] for i in c) for c in cones]
            rng.shuffle(cones)
            self.fans.append((rays, cones))
        self.inputs = {"fans": [self.fan_file(r, c) for r, c in self.fans]}
        self.ops = self.items = len(self.fans)
        self._reference = {}

    @staticmethod
    def fan_file(rays, cones):
        lines = ["dim 3", "rays"] + [" ".join(map(str, r)) for r in rays]
        lines += ["cones"] + [" ".join(map(str, c)) for c in cones]
        return "\n".join(lines) + "\n"

    def _ref(self, i):
        if i not in self._reference:
            rays, cones = self.fans[i]
            m = len(rays)
            self._reference[i] = (exact.primitive_collections(m, cones), exact.is_fano(rays, cones),
                                  exact.forbidden_sets(m, cones))
        return self._reference[i]

    def _problem(self, i, out):
        rays, cones = self.fans[i]
        m = len(rays)
        if out["rays"] != rays or sorted(map(tuple, out["cones"])) != sorted(tuple(sorted(c)) for c in cones):
            return "parsed fan differs from the fan file"
        if not out["valid"] or out["problems"]:
            return f"validate_fan rejected a smooth complete fan: {out['problems']}"
        if out["rho"] != m - 3 or len(out["cones"]) != 2 * m - 4:
            return f"rho={out['rho']} with {len(out['cones'])} cones for {m} rays"
        problems = exact.basis_problems(out["class_map"], rays, cones)
        if problems:
            return "; ".join(problems)
        collections, fano, forbidden = self._ref(i)
        if set(map(tuple, out["primitive_collections"])) != collections:
            return "primitive collections differ from the minimal non-faces"
        if out["fano"] != fano:
            return f"is_fano says {out['fano']}, the wall relations say {fano}"
        got = {tuple(s): tuple(r) for s, r in out["forbidden"]}
        full = tuple(range(m))
        for s, r in got.items():
            complement = tuple(x for x in full if x not in s)
            if s and got.get(complement) != (r[0], r[2], r[1], r[3]):
                return f"forbidden set {s} has no complement with swapped homology ranks"
        if got != forbidden:
            return (f"forbidden sets differ from the reference: {len(forbidden.keys() - got.keys())} missing,"
                    f" {len(got.keys() - forbidden.keys())} extra, of {len(forbidden)}")
        if out["h_o"] != [1, 0, 0, 0] or out["h_k"] != [0, 0, 0, 1]:
            return f"h(O) = {out['h_o']}, h(K) = {out['h_k']}"
        return None

    def check(self, outputs):
        bad = {}
        for i, out in enumerate(outputs):
            problem = out["error"] if "error" in out else self._problem(i, out)
            if problem:
                bad[i] = problem
        return bad

    @staticmethod
    def _drop_forbidden(outputs):
        outputs[0]["forbidden"].pop()
        return 0

    @staticmethod
    def _bump_h0(outputs):
        outputs[0]["h_o"][0] += 1
        return 0

    corruptions = (("one forbidden set dropped", _drop_forbidden), ("one h^p bumped by 1", _bump_h0))


WORKLOADS = {w.name: w for w in (Prove, OracleSweep, Thomsen, BlowupFans)}


def self_test(workload, outputs):
    """Plant each corruption into a copy of good outputs; list the ones missed."""
    missed = []
    for label, corrupt in workload.corruptions:
        planted = copy.deepcopy(outputs)
        index = corrupt(planted)
        if index not in workload.check(planted):
            missed.append(label)
    return missed
