"""Strong exceptionality verification and fullness certificates."""

import pytest

from toric_exc import exceptional
from toric_exc.errors import NotPrimitive, TermOutsideCollection, ToricExcError
from toric_exc.exceptional import (KoszulCertified, NotCertified, OrderedCollection,
                                   SummandSetMatchesK0Rank, fullness_certificate,
                                   koszul_reduction_certificate, verify_strongly_exceptional)
from toric_exc.frobenius import bondal_summands
from toric_exc.picard import class_to_divisor, to_class

D1_CLASSES = ((0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 1),
              (0, 1, 1), (1, 1, 1), (1, 2, 1), (2, 2, 1))


@pytest.fixture(scope="module")
def d1_collection():
    return OrderedCollection(D1_CLASSES)


class TestOrderedCollection:
    def test_duplicate_classes_rejected(self):
        with pytest.raises(ValueError):
            OrderedCollection(((0, 0, 0), (1, 1, 0), (0, 0, 0)))


class TestStronglyExceptional:
    def test_d1_sequence_passes(self, d1_ctx, d1_collection):
        report = verify_strongly_exceptional(d1_ctx, d1_collection)
        assert report.strongly_exceptional
        # single bundles are exceptional: the diagonal difference is acyclic
        assert all(report.acyclic[i][i] for i in range(8))

    def test_e2_sequence_passes(self, records, contexts):
        ctx = contexts["E2"]
        coll = OrderedCollection(tuple(to_class(ctx, d) for d in records["E2"].collection))
        assert verify_strongly_exceptional(ctx, coll).strongly_exceptional

    def test_reversed_ample_pair_fails_backward_homs(self, d1_ctx):
        # (O(-K), O) in that order: Hom(O(-K), O) would need H^0(-K) = 0
        pair = OrderedCollection(((1, 2, 2), (0, 0, 0)))
        report = verify_strongly_exceptional(d1_ctx, pair)
        assert not report.strongly_exceptional
        assert report.sections_backward[1][0] is True

    def test_twist_invariance(self, d1_ctx, d1_collection):
        # tensoring everything by a fixed class changes no tested difference
        twist = (1, -1, 2)
        twisted = OrderedCollection(tuple(
            tuple(c + t for c, t in zip(cls, twist)) for cls in d1_collection.classes
        ))
        r1 = verify_strongly_exceptional(d1_ctx, d1_collection)
        r2 = verify_strongly_exceptional(d1_ctx, twisted)
        assert r1.acyclic == r2.acyclic
        assert r1.sections_backward == r2.sections_backward

    @pytest.mark.parametrize("name", ["D1", "D2", "E1", "E2", "E4"])
    def test_member_divisors_are_computed_once(self, records, contexts, monkeypatch, name):
        ctx = contexts[name]
        collection = OrderedCollection(tuple(to_class(ctx, d) for d in records[name].collection))
        converted, asked = [], []
        monkeypatch.setattr(exceptional, "class_to_divisor",
                            lambda ctx, cls: converted.append(cls) or class_to_divisor(ctx, cls))
        real = exceptional.vanishing_verdicts
        monkeypatch.setattr(exceptional, "vanishing_verdicts",
                            lambda ctx, divisors: asked.extend(divisors) or real(ctx, divisors))
        report = verify_strongly_exceptional(ctx, collection)
        assert report.strongly_exceptional
        assert converted == list(collection.classes)   # one call per member, not one per difference
        classes = collection.classes
        distinct = list(dict.fromkeys(tuple(b - a for b, a in zip(lb, la)) for la in classes for lb in classes))
        assert asked == [class_to_divisor(ctx, cls) for cls in distinct]

    def test_empty_and_one_member_collections(self, d1_ctx):
        empty = verify_strongly_exceptional(d1_ctx, OrderedCollection(()))
        assert (empty.acyclic, empty.sections_backward, empty.strongly_exceptional) == ((), (), True)
        for cls in ((0, 0, 0), (2, -1, 3)):   # a single line bundle is exceptional: O is acyclic with sections
            one = verify_strongly_exceptional(d1_ctx, OrderedCollection((cls,)))
            assert (one.acyclic, one.sections_backward, one.strongly_exceptional) == (((True,),), ((None,),), True)

    def test_pass_forces_distinct_classes(self, d1_ctx):
        # equal classes in two slots would put the zero difference in a
        # backward Hom slot, and O always has sections; the constructor
        # rejects the degenerate input outright
        from toric_exc.cohomology import has_nonzero_global_sections
        assert has_nonzero_global_sections(d1_ctx, (0,) * 6)
        with pytest.raises(ValueError):
            OrderedCollection(((0, 0, 1), (0, 0, 1)))


class TestKoszulReduction:
    def test_d1_certificate_terms(self, d1_ctx, d1_collection):
        cert = koszul_reduction_certificate(d1_ctx, d1_collection, (-1, 0, 1), (0, 1, 3))
        assert cert.eliminated == (-1, 0, 1)
        assert dict(cert.terms[0]) == {(-1, 0, 1): 1}
        assert dict(cert.terms[1]) == {(0, 1, 1): 2, (0, 0, 1): 1}   # O(Z5+Z6)^2 + O(Z6)
        assert dict(cert.terms[2]) == {(1, 1, 1): 2, (1, 2, 1): 1}   # O(Z4+Z5+Z6)^2 + O(Z4+2Z5+Z6)
        assert dict(cert.terms[3]) == {(2, 2, 1): 1}                 # O(2Z4+2Z5+Z6)

    def test_alternating_class_sum_vanishes(self, d1_ctx, d1_collection):
        # sum over degrees of (-1)^j (sum of term classes) is the zero class
        cert = koszul_reduction_certificate(d1_ctx, d1_collection, (-1, 0, 1), (0, 1, 3))
        total = [0, 0, 0]
        for j, level in enumerate(cert.terms):
            for cls, mult in level:
                for t, x in enumerate(cls):
                    total[t] += (-1) ** j * mult * x
        assert total == [0, 0, 0]

    def test_rank_two_collection_fails(self, d1_ctx, d1_collection):
        with pytest.raises(TermOutsideCollection) as info:
            koszul_reduction_certificate(d1_ctx, d1_collection, (-1, 0, 1), (2, 5))
        assert info.value.offending  # names the classes that escaped

    def test_extra_inside_collection_rejected(self, d1_ctx, d1_collection):
        with pytest.raises(ToricExcError):
            koszul_reduction_certificate(d1_ctx, d1_collection, (0, 0, 1), (0, 1, 3))

    def test_cone_spanning_set_rejected(self, d1_ctx, d1_collection):
        with pytest.raises(NotPrimitive):
            koszul_reduction_certificate(d1_ctx, d1_collection, (-1, 0, 1), (0, 1, 2))

    def test_repeated_rays_rejected(self, d1_ctx, d1_collection):
        with pytest.raises(ValueError):
            koszul_reduction_certificate(d1_ctx, d1_collection, (-1, 0, 1), (0, 1, 1, 3))

    def test_ragged_class_vectors_rejected(self, d1_ctx):
        ragged = OrderedCollection(((0, 0, 0), (1, 1)))
        with pytest.raises(ValueError):
            verify_strongly_exceptional(d1_ctx, ragged)


class TestFullness:
    def test_d2_matches_k0_rank(self, records, contexts):
        ctx = contexts["D2"]
        rec = records["D2"]
        coll = OrderedCollection(tuple(to_class(ctx, d) for d in rec.collection))
        summands = bondal_summands(ctx)
        cert = fullness_certificate(ctx, coll, summands)
        assert cert == SummandSetMatchesK0Rank(8)

    def test_d1_needs_the_koszul_step(self, d1_ctx, d1_collection):
        summands = bondal_summands(d1_ctx)
        cert = fullness_certificate(d1_ctx, d1_collection, summands)
        assert isinstance(cert, KoszulCertified)
        (red,) = cert.reductions
        assert red.eliminated == (-1, 0, 1)           # O(Z6-Z4)
        assert red.collection_used == (0, 1, 3)       # {v1, v2, v4}
        assert dict(red.terms[1]) == {(0, 1, 1): 2, (0, 0, 1): 1}

    def test_unexplained_summand_not_certified(self, d1_ctx):
        summands = bondal_summands(d1_ctx)
        small = OrderedCollection(D1_CLASSES[:6])
        cert = fullness_certificate(d1_ctx, small, summands)
        assert isinstance(cert, NotCertified)
        assert cert.unexplained
