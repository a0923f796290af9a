"""The main result, end to end: full strongly exceptional collections.

For each of the five varieties whose collections required fresh work, the
script re-verifies the stored ordered sequence: every pairwise twist is
acyclic, no backward Homs survive, and fullness is certified either by
the summand-set/K_0-rank match or by a Koszul reduction.

Run:  python demos/04_exceptional_collections.py
"""

from toric_exc import (OrderedCollection, bondal_summands, build_pic_context, class_label,
                       describe_certificate, fullness_certificate, get_record,
                       koszul_reduction_certificate, to_class, verify_strongly_exceptional)

print("D1 in detail")
print("=" * 64)
d1 = get_record("D1")
ctx = build_pic_context(d1.fan, d1.pic_basis)
coll = OrderedCollection(tuple(to_class(ctx, d) for d in d1.collection))
for i, cls in enumerate(coll.classes):
    print(f"  L{i} = {class_label(ctx, cls)}")

se = verify_strongly_exceptional(ctx, coll)
print(f"strongly exceptional: {se.strongly_exceptional}")

summands = bondal_summands(ctx)
print(f"pushforward summands: {len(summands)}, collection size: {len(coll)}, "
      f"K_0 rank: {len(d1.fan.max_cones)}")

# One summand class, O(Z6-Z4), is not in the collection; the dualized
# Koszul complex of the primitive collection {v1, v2, v4}, twisted by it,
# resolves it through collection members only:
cert = koszul_reduction_certificate(ctx, coll, (-1, 0, 1), (0, 1, 3))
print("Koszul resolution of O(-Z4+Z6):")
for j, level in enumerate(cert.terms):
    pieces = " + ".join(f"{class_label(ctx, c)}^{m}" if m > 1 else class_label(ctx, c)
                        for c, m in level)
    print(f"  degree {j}: {pieces}")

print(f"fullness: {describe_certificate(ctx, fullness_certificate(ctx, coll, summands))}")

print()
print("All five varieties")
print("=" * 64)
for name in ("D1", "D2", "E1", "E2", "E4"):
    rec = get_record(name)
    ctx = build_pic_context(rec.fan, rec.pic_basis)
    coll = OrderedCollection(tuple(to_class(ctx, d) for d in rec.collection))
    se = verify_strongly_exceptional(ctx, coll)
    cert = fullness_certificate(ctx, coll, bondal_summands(ctx))
    status = "PASS" if se.strongly_exceptional else "FAIL"
    print(f"  {name}: {status}  ({len(coll)} bundles; {describe_certificate(ctx, cert)})")
    for note in rec.notes:
        print(f"      note: {note}")

print()
print("Together with the previously settled types, every smooth toric Fano")
print("3-fold carries a full strongly exceptional collection of line bundles.")
