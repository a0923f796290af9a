"""Line bundle cohomology: forbidden sets, the acyclicity criterion, the oracle.

A ray subset I is forbidden when the full subcomplex on I has nontrivial
reduced homology.  A line bundle is acyclic exactly when none of its
representatives has a forbidden sign pattern (nonnegative on I, negative
off I) -- and the same homology data, summed over all representatives,
yields every cohomology dimension, which gives two independent routes to
cross-check.

Run:  python demos/03_cohomology_and_forbidden_sets.py
"""

import itertools

from toric_exc import (build_pic_context, canonical_divisor, class_label,
                       class_to_divisor, cohomology_table, forbidden_sets,
                       get_record, has_nonzero_global_sections, is_acyclic,
                       reduced_homology_ranks)

d1 = get_record("D1")
ctx = build_pic_context(d1.fan, d1.pic_basis)

print("Subcomplex homology on D1 (ranks in degrees -1..2)")
print("=" * 60)
for vertices in [(), (0, 1, 2), (0, 1, 3), (2, 5)]:
    label = "{" + ",".join(str(i + 1) for i in vertices) + "}"
    ranks = reduced_homology_ranks(d1.fan, vertices)
    print(f"  C_{label:12s} -> {ranks}")
print("  {1,2,4} is a hollow triangle (a circle), {3,6} two far-apart points")

print()
print("All forbidden sets of D1")
print("=" * 60)
report = forbidden_sets(d1.fan)
for s, ranks in zip(report.forbidden, report.homology_ranks):
    label = "{" + ",".join(str(i + 1) for i in s) + "}"
    print(f"  {label:14s} ranks {ranks}")

print()
print("Acyclicity by criterion vs. the cohomology oracle")
print("=" * 60)
for cls in [(0, 0, 0), (1, 1, 0), (-1, -1, 0), (0, 0, -1), (1, 2, 2), (-1, -2, -2)]:
    D = class_to_divisor(ctx, cls)
    table = cohomology_table(ctx, D, escalate=True)
    verdict = is_acyclic(ctx, D, escalate=True)
    print(f"  {class_label(ctx, cls):18s} h = {table.dims}   acyclic by criterion: {verdict}")
    assert verdict == table.is_acyclic

# The canonical class has exactly one representative with the all-negative
# pattern, landing all of its cohomology in top degree:
K = canonical_divisor(d1.fan)
print(f"\n  K_X: h = {cohomology_table(ctx, K).dims} (Serre-dual to h^0(O) = 1)")

print()
print("Sections = effectivity")
print("=" * 60)
for cls in [(0, 0, 0), (-1, 0, 0), (1, 2, 2)]:
    D = class_to_divisor(ctx, cls)
    print(f"  {class_label(ctx, cls):18s} has sections: {has_nonzero_global_sections(ctx, D, escalate=True)}")

print()
print("Exhaustive agreement on the radius-1 class box")
print("=" * 60)
mismatches = 0
for cls in itertools.product(range(-1, 2), repeat=3):
    D = class_to_divisor(ctx, cls)
    if is_acyclic(ctx, D, escalate=True) != cohomology_table(ctx, D, escalate=True).is_acyclic:
        mismatches += 1
print(f"  27 classes checked, {mismatches} disagreements")
