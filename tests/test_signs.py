"""Orientation-sign formulas and Koszul bookkeeping."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from clustercx import signs
from clustercx.errors import RangeError, ShapeError, ShuffleError


class TestClosedForms:
    def test_concat_values(self):
        assert signs.sign_concat(2, 2, 2) == -1
        assert signs.sign_concat(2, 1, 2) == 1

    def test_lower_upper(self):
        assert signs.sign_lower_quilt(2, 2, 2) == 1
        assert signs.sign_upper_quilt([1] * 5) == 1
        assert signs.sign_upper_quilt([2, 3]) == (-1) ** ((2 - 1) * (2 - 1) + 1 * (3 - 1))

    def test_bullet_reduces_to_concat(self):
        for l1 in range(1, 5):
            for l2 in range(1, 5):
                for j in range(1, l1 + 1):
                    ident = list(range(1, l1 + l2))
                    assert signs.sign_bullet(l1, j, l2, ident) == signs.sign_concat(
                        l1, j, l2
                    )

    def test_bullet_bad_shuffle(self):
        with pytest.raises(ShuffleError):
            signs.sign_bullet(2, 2, 2, [2, 1, 3])

    def test_perm_parity(self):
        assert signs.perm_parity((1, 2, 3)) == 0
        assert signs.perm_parity((2, 1, 3)) == 1

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: signs.sign_concat(2, 0, 1), RangeError,
             "slot j=0 out of range 1..2"),
            (lambda: signs.sign_concat(2, 3, 1), RangeError,
             "slot j=3 out of range 1..2"),
            (lambda: signs.sign_lower_quilt(2, 3, 1), RangeError,
             "slot j=3 out of range 1..2"),
            (lambda: signs.sign_upper_quilt([]), RangeError,
             "need at least one component"),
            (lambda: signs.perm_parity((1, 3)), ShapeError,
             "not a permutation of 1..2: [1, 3]"),
            (lambda: signs.epsilon_gj(3, 2, 2, [1]), ShapeError,
             "need at least 2 prefix degrees"),
            (lambda: signs.epsilon_bar(3, [1]), ShapeError,
             "need at least 2 prefix degrees"),
        ],
        ids=["concat-low", "concat-high", "lower-quilt", "upper-quilt", "perm",
             "epsilon-gj", "epsilon-bar"],
    )
    def test_range_refusals(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


class TestKoszul:
    def test_apply_window(self):
        with pytest.raises(ShapeError):
            signs.koszul_apply(1, 3, 2, [0, 1, 0])

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_epsilon_bar_matches_gj_mod_suspension(self, degs, data):
        # the inner arity-l2 operation at window j inside the outer arity-l1
        # one: the Getzler-Jones and shifted parities differ by (j - 1) and
        # the suspension signs of the inner, outer and whole words
        Q = len(degs)
        l2 = data.draw(st.integers(1, Q))
        l1 = Q - l2 + 1
        j = data.draw(st.integers(1, l1))
        inner = degs[j - 1 : j - 1 + l2]
        outer = degs[: j - 1] + [sum(inner) + 2 - l2] + degs[j - 1 + l2 :]
        total = (
            signs.epsilon_gj(j, l1, l2, degs)
            + signs.epsilon_bar(j, [d - 1 for d in degs])
            + (j - 1)
            + signs.suspension_parity(inner)
            + signs.suspension_parity(outer)
        )
        assert total % 2 == signs.suspension_parity(degs)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_suspension_involution(self, degs):
        s = signs.suspension_sign(degs)
        assert s * s == 1


def _compositions(total):
    for cuts in product((0, 1), repeat=total - 1):
        comp, part = [], 1
        for cut in cuts:
            if cut:
                comp.append(part)
                part = 0
            part += 1
        yield tuple(comp + [part])


class TestFirstBlock:
    def test_compositions_listed(self):
        assert [len(list(_compositions(n))) for n in range(1, 7)] == [1, 2, 4, 8, 16, 32]

    def test_fold_matches_quilt_and_koszul(self):
        # blocks of arities comp whose operations have role shifts s (an
        # operation of arity l has degree s - l): the first-block parities
        # folded from the last block give the quilted facet sign times each
        # block's Koszul sign, on every composition of length <= 6
        checked = 0
        for total in range(1, 7):
            for comp in _compositions(total):
                q = len(comp)
                for degs in product((0, 1), repeat=total):
                    for shifts in product((0, 1), repeat=q):
                        want = signs.sign_upper_quilt(comp)
                        pos = 0
                        for l, s in zip(comp, shifts):
                            want *= signs.koszul_apply(s - l, pos + 1, l, degs)
                            pos += l
                        parity = tail_degree = 0
                        for i in reversed(range(q)):
                            l = comp[i]
                            pos -= l
                            parity += signs.first_block_parity(
                                l, sum(degs[pos : pos + l]), q - 1 - i, tail_degree
                            )
                            tail_degree += shifts[i] - l
                        assert want == (-1) ** parity, (comp, degs, shifts)
                        checked += 1
        assert checked == sum(2 ** (n + 1) * 3 ** (n - 1) for n in range(1, 7))


class TestDeltaParity:
    def test_matches_concat_and_koszul(self):
        # the (j, l) term of delta on every word of length <= 6 with degrees
        # in {0, 1, 2}: plain degrees take the facet sign times the Koszul
        # sign of the arity-l operation, shifted degrees the Koszul sign of
        # a degree-1 operation
        checked = 0
        for Q in range(1, 7):
            for degs in product((0, 1, 2), repeat=Q):
                shifted = [x - 1 for x in degs]
                for l in range(1, Q + 1):
                    q_out = Q - l + 1
                    for j in range(1, q_out + 1):
                        plain = signs.sign_concat(q_out, j, l) * signs.koszul_apply(
                            l, j, l, degs
                        )
                        got = signs.delta_parity(q_out, j, l, sum(degs[: j - 1]), False)
                        assert plain == (-1) ** got, (degs, l, j)
                        susp = signs.koszul_apply(1, j, l, shifted)
                        got = signs.delta_parity(
                            q_out, j, l, sum(shifted[: j - 1]), True
                        )
                        assert susp == (-1) ** got, (degs, l, j)
                        checked += 1
        assert checked == sum(3**Q * Q * (Q + 1) // 2 for Q in range(1, 7))
