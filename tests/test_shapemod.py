import pytest
from hypothesis import given, settings

from loopminors.errors import DomainError, ResourceLimitError
from loopminors.partitions import partitions_up_to, subpartitions
from loopminors.phi import euler_char
from loopminors.shapemod import (
    ARROWS,
    ShapeModule,
    build_module,
    count_flags_fq,
)
from loopminors.tableaux import conjecture1_prediction, enumerate_standard, ground_state, parity_string

from conftest import delta_partition_type, named_arrows, partition_strategy


def test_build_column_module():
    module = build_module((1, 1), (), 0)
    assert module.dim == 2
    # the only arrow moves the lower box up the column
    assert module.left == {} and module.up == {(1, 0): (0, 0)}
    assert module.to_json()["arrows"] == [[[1, 0], "alpha*", [0, 0]]]
    assert module.vertex((0, 0)) == 0 and module.vertex((1, 0)) == 1


def test_build_module_skew_example_arrow_diagram():
    module = build_module((4, 3, 2, 2, 1), (2, 1), 0)
    assert module.dim == 9
    expected = {
        ((0, 3), "beta", (0, 2)),
        ((1, 2), "alpha*", (0, 2)),
        ((1, 2), "beta", (1, 1)),
        ((2, 1), "alpha*", (1, 1)),
        ((2, 1), "beta", (2, 0)),
        ((3, 0), "alpha*", (2, 0)),
        ((3, 1), "alpha", (3, 0)),
        ((3, 1), "beta*", (2, 1)),
        ((4, 0), "beta*", (3, 0)),
    }
    actual = {(tuple(src), name, tuple(dst)) for src, name, dst in module.to_json()["arrows"]}
    assert actual == expected


def test_zero_module():
    module = build_module((), (), 1)
    assert module.dim == 0
    assert delta_partition_type(module) == ()
    assert count_flags_fq(module, (), 2) == 1


def test_build_module_rejects_non_contained():
    with pytest.raises(DomainError):
        build_module((2, 2), (3,), 0)


def test_shape_module_invariant():
    module = ShapeModule(outer=(4, 3, 2, 2, 1), inner=(2, 1), parity=0)
    assert module.dim == 9
    assert (0, 2) in module.boxes and (0, 1) not in module.boxes
    assert module.boxes == tuple(sorted(module.boxes))  # row-major
    with pytest.raises(DomainError, match="not contained"):
        ShapeModule(outer=(2, 2), inner=(3,), parity=0)
    with pytest.raises(DomainError):
        ShapeModule(outer=(2, 1), inner=(), parity=2)
    # the partitions are normalized like any other partition argument
    assert ShapeModule(outer=[2, 1, 0], inner=[0], parity=1).outer == (2, 1)


def test_equal_modules_hash_equal():
    module = build_module((2, 1), (), 1)
    same = ShapeModule((2, 1, 0), (), 1)
    assert module == same and hash(module) == hash(same)
    assert module != build_module((2, 1), (), 0) != build_module((2, 1), (1,), 1)
    assert len({module, same, build_module((2, 1), (), 0)}) == 2


def test_a_module_is_a_read_only_value_of_its_own_type():
    module = build_module((2, 1), (), 1)
    with pytest.raises(AttributeError):
        module.outer = (3,)
    assert module.outer == (2, 1)
    assert build_module((2, 1), (), 1) != ((2, 1), (), 1)
    assert repr(module).startswith("ShapeModule(outer=(2, 1), inner=(), parity=1")


def test_module_json_shape():
    data = build_module((2, 1), (), 1).to_json()
    assert data["outer"] == "2,1"
    assert data["inner"] == ""
    assert data["dim"] == 3
    assert all(len(arrow) == 3 for arrow in data["arrows"])


def test_relations_hold_on_all_small_skew_modules():
    for lam in partitions_up_to(5):
        for mu in subpartitions(lam):
            for i in (0, 1):
                build_module(lam, mu, i)  # relation check runs at construction


# the vertex each arrow starts from, read off the quiver: alpha and beta* go
# 0 -> 1, beta and alpha* go 1 -> 0
SOURCE = {"alpha": 0, "beta*": 0, "beta": 1, "alpha*": 1}


def _then(arrows, first, second, box):
    mid = arrows.get((first, box))
    return None if mid is None else arrows.get((second, mid))


def test_arrow_names_satisfy_the_preprojective_relations():
    assert set(ARROWS) == set(SOURCE)
    for lam in partitions_up_to(7):
        for mu in subpartitions(lam):
            for i in (0, 1):
                module = build_module(lam, mu, i)
                arrows = named_arrows(module)
                named = 0
                for box in module.boxes:
                    assert _then(arrows, "alpha", "alpha*", box) == _then(
                        arrows, "beta*", "beta", box
                    ), (lam, mu, i, box)
                    assert _then(arrows, "beta", "beta*", box) == _then(
                        arrows, "alpha*", "alpha", box
                    ), (lam, mu, i, box)
                    for name, source in SOURCE.items():
                        target = arrows.get((name, box))
                        if target is not None:
                            assert module.vertex(box) == source, (lam, mu, i, box, name)
                            assert module.vertex(target) == 1 - source
                            named += 1
                # every move carries exactly one name
                assert named == len(module.left) + len(module.up)


def test_delta_type_examples():
    assert delta_partition_type(build_module((2, 1), (), 0)) == (2, 1)
    assert delta_partition_type(build_module((2, 1), (), 1)) == (2, 1)
    assert delta_partition_type(build_module((1, 1), (), 0)) == (1, 1)


@given(lam=partition_strategy(max_size=6))
@settings(max_examples=30, deadline=None)
def test_delta_type_of_shape_modules_is_the_shape(lam):
    for i in (0, 1):
        assert delta_partition_type(build_module(lam, (), i)) == lam


def test_delta_type_of_skew_modules_is_the_row_lengths():
    for lam in partitions_up_to(6):
        for mu in subpartitions(lam):
            padded = mu + (0,) * (len(lam) - len(mu))
            rows = sorted((a - b for a, b in zip(lam, padded) if a > b), reverse=True)
            for i in (0, 1):
                assert delta_partition_type(build_module(lam, mu, i)) == tuple(rows), (lam, mu, i)


def test_count_flags_examples():
    uniserial = build_module((1, 1), (), 0)
    assert count_flags_fq(uniserial, (0, 1), 2) == 1
    assert count_flags_fq(uniserial, (1, 0), 2) == 0
    hook = build_module((2, 1), (), 1)
    assert count_flags_fq(hook, (1, 0, 0), 2) == 3


def test_count_flags_on_a_semisimple_skew_module():
    # (2,1)/(1) at parity 0 has two boxes of the same vertex and no arrows,
    # so a series picks any line first: q + 1 choices, then forced
    semisimple = build_module((2, 1), (1,), 0)
    assert not semisimple.left and not semisimple.up
    for q in (2, 3, 4, 5):
        assert count_flags_fq(semisimple, (1, 1), q) == q + 1
        assert count_flags_fq(semisimple, (1, 0), q) == 0


def test_count_flags_gf4_and_gf5():
    hook = build_module((2, 1), (), 1)
    # q + 1 stable hyperplane choices at the free step
    assert count_flags_fq(hook, (1, 0, 0), 4) == 5
    assert count_flags_fq(hook, (1, 0, 0), 5) == 6


def test_count_flags_guards():
    big = build_module((4, 4), (), 0)
    with pytest.raises(ResourceLimitError):
        count_flags_fq(big, (0,) * 8, 2)
    small = build_module((1,), (), 1)
    with pytest.raises(ResourceLimitError):
        count_flags_fq(small, (1,), 7)
    # 6 is no field size, so no larger guard could count it
    with pytest.raises(DomainError, match="field size 6 is not a prime power"):
        count_flags_fq(small, (1,), 6)
    with pytest.raises(DomainError):
        count_flags_fq(small, (1, 1), 2)


def test_prediction_examples():
    assert conjecture1_prediction((2, 1), 1, (1, 0, 0), 2) == 3
    assert conjecture1_prediction((2, 1), 1, (1, 0, 0), 1) == 2
    assert conjecture1_prediction((1, 1), 0, (1, 0), 3) == 0
    assert conjecture1_prediction((2, 1), 1, (1, 0, 0), 1) == euler_char(
        (2, 1), 1, (1, 0, 0)
    )


def test_counting_polynomial_value_at_one_matches_euler_char():
    # two sample points pin the count polynomial when its degree is <= 1;
    # higher-degree classes are reported, not asserted
    skipped = []
    for lam in partitions_up_to(4):
        for i in (0, 1):
            module = build_module(lam, (), i)
            classes = {}
            for T in enumerate_standard(lam):
                classes.setdefault(parity_string(T, i), []).append(T)
            for d, tableaux in classes.items():
                if max(ground_state(T, i) for T in tableaux) > 1:
                    skipped.append((lam, i, d))
                    continue
                at2 = count_flags_fq(module, d, 2)
                at3 = count_flags_fq(module, d, 3)
                extrapolated = 2 * at2 - at3
                assert extrapolated == euler_char(lam, i, d)
    if skipped:
        print(f"degree > 1 classes left to the point-count report: {len(skipped)}")
