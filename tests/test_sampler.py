import random
from fractions import Fraction
from operator import itemgetter

import pytest
from test_sampler_reference import p_tree_depths, reference_slabs

from prudentwalks.labels import RULES
from prudentwalks.sampler import (
    ExtTable,
    ResourceBudgetError,
    UniformSampler,
    _below,
    estimate_entries,
    exact_distribution,
    kinetic_sample,
)
from prudentwalks.walks import (
    SquareState,
    SquareWalk,
    WalkClass,
    enumerate_counts,
    in_class,
    is_prudent,
)


def test_ext_table_hand_values():
    # hand expansion of the 2-sided rule: Ex((I;0),1) = 3, Ex((F;1),1) = 2,
    # so p_2 = 2*3 + 2*2 = 10
    table = ExtTable(WalkClass.TWO_SIDED, 2)
    assert table.ex((0, 0), 1) == 3
    assert table.ex((2, 1), 1) == 2
    assert table.counts()[-1] == 10


def test_ext_table_counts_match_oracle():
    for wc, n in [
        (WalkClass.ONE_SIDED, 12),
        (WalkClass.TWO_SIDED, 12),
        (WalkClass.THREE_SIDED, 11),
        (WalkClass.PRUDENT4, 10),
        (WalkClass.TRIANGULAR, 9),
    ]:
        assert ExtTable(wc, n).counts() == enumerate_counts(wc, n)


def test_ext_table_root_total_26():
    assert ExtTable(WalkClass.TWO_SIDED, 3).counts()[-1] == 26


def test_budget_guard():
    est = estimate_entries(WalkClass.PRUDENT4, 200)
    with pytest.raises(ResourceBudgetError) as err:
        ExtTable(WalkClass.PRUDENT4, 200, max_entries=1_000_000)
    assert err.value.estimate == est
    assert est > 1_000_000


def test_exact_uniformity_small_n():
    # symbolic path probabilities: exactly 1/p_n per walk
    for wc in WalkClass:
        for n in (2, 4):
            dist = exact_distribution(wc, n)
            pn = enumerate_counts(wc, n)[n]
            assert len(dist) == pn
            assert set(dist.values()) == {Fraction(1, pn)}
            assert all(in_class(w, wc) for w in dist)


def test_sample_determinism():
    for wc in WalkClass:
        sampler = UniformSampler(wc, 25)
        a = sampler.sample(random.Random(987))
        b = sampler.sample(random.Random(987))
        assert a == b
        c = sampler.sample(random.Random(988))
        assert a != c or wc is WalkClass.ONE_SIDED  # different seed, almost surely


def test_n1_uniform_over_steps():
    # length-1: every unit step with equal probability
    for wc, arity in [
        (WalkClass.TWO_SIDED, 4),
        (WalkClass.TRIANGULAR, 6),
    ]:
        dist = exact_distribution(wc, 1)
        assert len(dist) == arity
        assert set(dist.values()) == {Fraction(1, arity)}


def test_sampled_walks_are_members():
    rng = random.Random(5150)
    for wc in WalkClass:
        sampler = UniformSampler(wc, 40)
        for _ in range(40):
            assert in_class(sampler.sample(rng), wc)


def test_sampler_chi_square_smoke():
    # cheap consistency proxy for the full acceptance chi-square: frequencies
    # of the 10 length-2 2-sided walks over 20k draws stay within 5 sigma
    rng = random.Random(31337)
    sampler = UniformSampler(WalkClass.TWO_SIDED, 2)
    counts = {}
    trials = 20_000
    for _ in range(trials):
        w = sampler.sample(rng)
        counts[w.to_text()] = counts.get(w.to_text(), 0) + 1
    assert len(counts) == 10
    expected = trials / 10
    sigma = (trials * 0.1 * 0.9) ** 0.5
    for v in counts.values():
        assert abs(v - expected) < 5 * sigma


def test_zero_length():
    assert len(UniformSampler(WalkClass.TWO_SIDED, 0).sample(random.Random(1))) == 0


def test_kinetic_sampler():
    w = kinetic_sample(500, seed=17)
    assert len(w) == 500
    assert is_prudent(w)
    assert kinetic_sample(500, seed=17) == w
    # n=1: uniform over the four steps
    seen = {kinetic_sample(1, seed=s).steps[0] for s in range(60)}
    assert seen == {0, 1, 2, 3}


def _below_totals():
    yield from range(1, 65)
    for k in range(1, 601):
        yield from (2**k - 1, 2**k, 2**k + 1)
    rng = random.Random(5150)
    for _ in range(1000):
        yield rng.randrange(1, 2 ** rng.randrange(1, 601))


def test_below_draws_as_randrange():
    # the sampler's draws must stay the randrange stream: the reference
    # sampler in test_sampler_reference draws with randrange itself
    for seed in (0, 7, 2024):
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        for total in _below_totals():
            assert _below(rng_a.getrandbits, total) == rng_b.randrange(total)
        assert rng_a.getstate() == rng_b.getstate()


@pytest.mark.parametrize("total", [0, -1, -8])
def test_below_refuses_an_empty_range(total):
    with pytest.raises(ValueError):
        _below(random.Random(1).getrandbits, total)


def reference_kinetic(n, rng):
    state = SquareState()
    steps = []
    for _ in range(n):
        avail = state.legal_steps()
        d = avail[rng.randrange(len(avail))]
        state.push(d)
        steps.append(d)
    return SquareWalk(steps)


def test_kinetic_draws_match_randrange_loop():
    for seed in range(100):
        rng_a, rng_b = random.Random(seed), random.Random(seed)
        assert kinetic_sample(300, rng_a) == reference_kinetic(300, rng_b)
        assert rng_a.getstate() == rng_b.getstate()


def test_kinetic_step_probability_example():
    # after N the three prudent continuations are N, E, W: the kinetic
    # probability of the walk NE is 1/4 * 1/3
    hits = 0
    trials = 24_000
    rng = random.Random(2)
    for _ in range(trials):
        if kinetic_sample(2, rng).to_text() == "NE":
            hits += 1
    assert abs(hits / trials - 1 / 12) < 0.01


def test_shared_table_many_samplers():
    table = ExtTable(WalkClass.THREE_SIDED, 30)
    s1 = UniformSampler(WalkClass.THREE_SIDED, 30, table=table)
    s2 = UniformSampler(WalkClass.THREE_SIDED, 30, table=table)
    a = s1.sample(random.Random(4))
    b = s2.sample(random.Random(4))
    assert a == b


# --------------------------------------------------------------------------
# index-addressed tables: slab views over shared labels, records of indices
# --------------------------------------------------------------------------

@pytest.mark.parametrize("wc", list(WalkClass), ids=lambda wc: wc.value)
def test_slab_views_copy_to_reference_dicts(wc):
    for n in (1, 2, 9):
        table = ExtTable(wc, n)
        ref = reference_slabs(wc, n)
        for m in range(1, n + 1):
            assert dict(table.slabs[m]) == ref[m]
            assert len(table.values[m]) == len(table.slabs[m]) == len(ref[m])


@pytest.mark.parametrize("wc", [w for w in WalkClass if w is not WalkClass.ONE_SIDED], ids=lambda wc: wc.value)
def test_slab_views_refuse_deeper_labels(wc):
    n = 8
    table = ExtTable(wc, n)
    depth = p_tree_depths(wc, n)
    assert sorted(table.labels) == sorted(lab for lab, d in depth.items() if d < n)
    order = [depth[label] for label in table.labels]
    assert order == sorted(order)
    assert table.ends == [sum(k < d for k in order) for d in range(n + 1)]
    for m in range(1, n + 1):
        slab = table.slabs[m]
        for label in table.labels:
            if depth[label] <= n - m:
                assert label in slab
                assert slab[label] == table.ex(label, m)
            else:
                assert label not in slab
                with pytest.raises(KeyError):
                    slab[label]
                with pytest.raises(KeyError):
                    table.ex(label, m)
    # labels first reached in n steps are outside the table: no slab holds
    # them, not even as a pad zero; nor labels of the distance-sum superset
    # that no walk reaches
    deep = next(lab for lab, d in depth.items() if d == n)
    never = {
        WalkClass.TWO_SIDED: [(2, 0)],
        WalkClass.THREE_SIDED: [(1, i, 0) for i in range(n)],
        WalkClass.PRUDENT4: [(0, 0, 0, 0)],
        WalkClass.TRIANGULAR: [],
    }[wc]
    assert not depth.keys() & set(never)
    for label in [deep, *never]:
        assert label not in table.index
        for m in range(1, n + 1):
            assert label not in table.slabs[m]
            with pytest.raises(KeyError):
                table.slabs[m][label]
    assert (99,) not in table.slabs[1]


@pytest.mark.parametrize("wc", list(WalkClass), ids=lambda wc: wc.value)
def test_non_final_records_index_inside_the_next_slab(wc):
    rules = RULES[wc]
    for n in (1, 2, 6):
        sampler = UniformSampler(wc, n)
        values = sampler.table.values
        labels = sampler.table.labels
        seen = 0

        def walk(plabel, m):
            nonlocal seen
            kids, kid_steps, weights = sampler._record(plabel)
            assert kid_steps == tuple(map(rules.step_of, kids))
            if m == 1:
                return
            seen += 1
            assert type(weights) is itemgetter
            cls, idx = weights.__reduce__()  # the getter's indices, in order
            assert cls is itemgetter and len(idx) == len(kids)
            assert all(0 <= i < len(values[m - 1]) for i in idx)
            assert [labels[i] for i in idx] == [rules.l_of_p(p) for p in kids]
            assert weights(values[m - 1]) == tuple(values[m - 1][i] for i in idx)
            for p, i in zip(kids, idx):
                if values[m - 1][i]:
                    walk(p, m - 1)

        walk(None, n)
        assert (seen > 0) == (n > 1)


def test_record_with_one_child_raises_when_built():
    # one child would make the weights getter return a bare value, not a tuple
    wc = WalkClass.TWO_SIDED
    sampler = UniformSampler(wc, 6)
    rules = sampler.rules
    sampler.rules = rules._replace(p_children=lambda p: rules.p_children(p)[:1])
    with pytest.raises(ValueError, match="1 children"):
        sampler._record(rules.root[0])
    assert rules.root[0] not in sampler._child_cache


def test_sampler_with_a_short_table_raises():
    # labels deeper than the table are never read as a zero weight
    wc = WalkClass.TWO_SIDED
    sampler = UniformSampler(wc, 8, table=ExtTable(wc, 7))
    rng = random.Random(1)
    with pytest.raises(LookupError):
        for _ in range(50):
            sampler.sample(rng)
