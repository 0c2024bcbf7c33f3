import copy
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from l1comb import (
    BallCapError,
    CayleyBall,
    GroupPresentation,
    OutOfBallError,
    PresentationError,
    ball,
    cli,
    free_reduce,
    invert,
    parse_presentation,
)
from l1comb.groups import _shortlex_key

F2_TEXT = """\
# rank-2 free group
generators: a b
relators: (none)
mode: free
"""

SURFACE_TEXT = """\
generators: a b c d
relators: abABcdCD
mode: dehn
"""


def _named(lookup, *args):
    """``lookup(*args)``, or OutOfBallError where the element has no name."""
    try:
        return lookup(*args)
    except OutOfBallError:
        return OutOfBallError


def _neighbours(b, i):
    """Indices of the products elements[i] * letter inside the ball, one per
    alphabet letter that stays there, read off the flat multiplication table."""
    degree = len(b.presentation.alphabet)
    return [j for j in b.adjacency[i * degree:(i + 1) * degree] if j >= 0]


def _symmetrized(relator):
    out = []
    for w in (relator, invert(relator)):
        for k in range(len(w)):
            out.append(w[k:] + w[:k])
    return out


def _max_piece_length(relator):
    # brute-force oracle: longest common prefix over all conjugate pairs,
    # independent of the parser's checker
    conj = _symmetrized(relator)
    best = 0
    for i, u in enumerate(conj):
        for j, v in enumerate(conj):
            if i == j:
                continue
            k = 0
            while k < min(len(u), len(v)) and u[k] == v[k]:
                k += 1
            best = max(best, k)
    return best


class TestParsing:
    def test_free_group_file(self):
        pres = parse_presentation(F2_TEXT)
        assert pres.generators == ("a", "b")
        assert pres.relators == ()
        assert pres.reduction_mode == "free"

    def test_surface_file_accepted_as_small_cancellation(self):
        assert _max_piece_length("abABcdCD") == 1  # pieces of length 1 vs |r|/6
        pres = parse_presentation(SURFACE_TEXT)
        assert pres.reduction_mode == "dehn"

    def test_unknown_letter_in_relator_is_named(self):
        with pytest.raises(PresentationError, match="'b'"):
            parse_presentation("generators: a\nrelators: ab\nmode: dehn\n")

    def test_duplicate_generator_rejected(self):
        with pytest.raises(PresentationError, match="duplicate"):
            GroupPresentation(("a", "a"))

    def test_identity_letter_reserved(self):
        with pytest.raises(PresentationError, match="reserved"):
            GroupPresentation(("e",))

    def test_free_mode_rejects_relators(self):
        with pytest.raises(PresentationError):
            GroupPresentation(("a",), ("aa",), "free")

    def test_commutator_relators_fail_piece_condition(self):
        # [a, c] and [a, d] share the piece 'a' with |r| = 4, so 6|piece| >= |r|
        with pytest.raises(PresentationError, match="C'\\(1/6\\)"):
            GroupPresentation(("a", "b", "c", "d"),
                              ("acAC", "adAD", "bcBC", "bdBD"), "dehn")

    def test_proper_power_relator_rejected(self):
        with pytest.raises(PresentationError, match="C'\\(1/6\\)"):
            GroupPresentation(("a", "b"), ("abababab",), "dehn")

    def test_non_cyclically_reduced_relator_rejected(self):
        with pytest.raises(PresentationError, match="cyclically reduced"):
            GroupPresentation(("a", "b"), ("abA",), "dehn")

    def test_non_confluent_rules_rejected(self):
        with pytest.raises(PresentationError, match="critical pair"):
            GroupPresentation(("a", "b"), (), "rewriting", (("ab", "a"),))

    def test_rule_must_decrease_shortlex(self):
        with pytest.raises(PresentationError, match="shortlex"):
            GroupPresentation(("a", "b"), (), "rewriting", (("ab", "ba"),))

    def test_relator_must_die_under_rules(self, f2xf2):
        with pytest.raises(PresentationError, match="identity"):
            GroupPresentation(("a", "b", "c", "d"), ("ab",),
                              "rewriting", f2xf2.rewriting_rules)

    def test_rules_section_parses(self):
        text = (
            "generators: a b c d\n"
            "relators: acAC adAD bcBC bdBD\n"
            "mode: rewriting\n"
            "rules:\n"
            + "\n".join(f"{x}{y} -> {y}{x}" for x in "cCdD" for y in "aAbB")
            + "\n"
        )
        pres = parse_presentation(text)
        assert pres.normal("ca") == "ac"
        assert pres.normal("acAC") == ""

    @pytest.mark.parametrize("mode, gens, relators", [
        ("free", "a b", "(none)"),
        ("dehn", "a b c d", "abABcdCD"),
    ], ids=["free", "dehn"])
    def test_rules_outside_rewriting_rejected(self, tmp_path, capsys,
                                              mode, gens, relators):
        # only rewriting mode reads rules; elsewhere they are refused, not ignored
        text = (f"generators: {gens}\nrelators: {relators}\nmode: {mode}\n"
                "rules:\nab -> ba\n")
        with pytest.raises(PresentationError, match=f"{mode} mode admits no rules"):
            parse_presentation(text)
        path = tmp_path / "pres.txt"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["ball", "--presentation", str(path), "--out", str(out)]) == 2
        assert "admits no rules" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_section_rejected(self):
        with pytest.raises(PresentationError):
            parse_presentation("junk: a\nmode: free\n")

    def test_missing_mode_rejected(self):
        with pytest.raises(PresentationError, match="mode"):
            parse_presentation("generators: a b\nrelators: (none)\n")

    @pytest.mark.parametrize("text, match", [
        ("generators:\nmode: free\n", "at least one generator"),
        ("generators: ab\nmode: free\n", "'ab' must be a single lowercase letter"),
        ("generators: a b\nmode: magic\n", "unknown mode 'magic'"),
        ("generators: a b\nmode: rewriting\nrules:\nax -> a\n",
         "unknown letter 'x' in rule"),
        ("generators: a b\nmode: rewriting\nrules:\n-> a\n", "empty left side"),
        ("generators: a b\nmode: free\nmode: free\n", "mode specified twice"),
        ("generators: a b\nmode: rewriting\nrules:\nab ba\n", "'ab ba' lacks '->'"),
        # a -> (empty) rewrites inside aa, so aa -> b meets aa -> (empty)
        ("generators: a b\nmode: rewriting\nrules:\naa -> b\na ->\n",
         "containment critical pair of 'aa'->'b' and 'a'->''"),
    ], ids=["no-generators", "long-generator", "unknown-mode", "unknown-rule-letter",
            "empty-rule-side", "mode-twice", "rule-without-arrow", "containment-pair"])
    def test_input_error_is_named(self, text, match):
        with pytest.raises(PresentationError, match=match):
            parse_presentation(text)


class TestReduction:
    def test_free_cancellation(self, f2):
        assert f2.normal("aA") == ""
        assert f2.normal("ab") == "ab"
        assert f2.normal("abBA") == ""

    def test_dehn_kills_relator(self, surface):
        assert surface.normal("abABcdCD") == ""

    def test_dehn_reduces_long_subword(self, surface):
        # a 5-letter relator prefix contracts to the 3-letter complement
        assert surface.normal("abABc") == "dcD"

    def test_multiply(self, f2_ball4, surface, surface_ball4):
        # products are named by the ball: name(x + y)
        assert f2_ball4.name("a" + "A") == ""
        assert f2_ball4.name("ab" + "Ba") == "aa"
        for x in ("", "a", "abc", "dcD"):
            assert surface_ball4.name(x + "") == surface.normal(x)

    @pytest.mark.parametrize("which", ["surface", "f2xf2"])
    def test_name_step_is_the_name_of_the_product(self, request, which):
        # two equal balls, one stepped on its table and one named through
        # the oracle; a product that leaves the ball has no name in dehn
        # mode, and in rewriting mode the last step starts outside the ball
        pres = request.getfixturevalue(which)
        dehn = pres.reduction_mode == "dehn"
        stepped, named = ball(pres, 3), ball(pres, 3)
        degree = len(pres.alphabet)
        left = 0
        for i, w in enumerate(stepped.elements):
            for r, letter in enumerate(pres.alphabet):
                out = stepped.adjacency[i * degree + r] < 0
                left += out
                got = _named(stepped.name_step, w, letter)
                assert got == _named(named.name, w + letter), (w, letter)
                assert (got is OutOfBallError) == (out and dehn), (w, letter)
        assert left > 0
        outside = _named(stepped.name, "ababab")
        assert outside == _named(named.name, "ababab")
        assert (outside is OutOfBallError) == dehn
        if not dehn:
            assert outside not in stepped.index
            for letter in pres.alphabet:
                assert stepped.name_step(outside, letter) == named.name(outside + letter)

    @pytest.mark.parametrize("which", ["surface", "f2xf2"])
    def test_name_of_a_ball_element_asks_no_oracle(self, request, which,
                                                   monkeypatch):
        b = ball(request.getfixturevalue(which), 3)
        calls = []
        normal = GroupPresentation.normal

        def counted(self, word):
            calls.append(word)
            return normal(self, word)

        monkeypatch.setattr(GroupPresentation, "normal", counted)
        assert [b.name(w) for w in b.elements] == b.elements
        assert calls == []

    def test_invert(self):
        assert invert("ab") == "BA"
        assert invert("") == ""
        rng = random.Random(7)
        letters = "aAbB"
        for _ in range(50):
            w = free_reduce("".join(rng.choice(letters) for _ in range(8)))
            assert invert(invert(w)) == w

    def test_equal_elements_identified_across_half_relator(self, surface):
        assert surface.is_identity(invert("abAB") + "dcDC")
        assert not surface.is_identity(invert("abAB") + "abab")


class TestBalls:
    def test_radius_zero(self, f2):
        b = ball(f2, 0)
        assert b.elements == [""]

    def test_free_ball_sizes_match_closed_form(self, f2):
        for r in (2, 5):
            b = ball(f2, r)
            assert len(b) == 2 * 3**r - 1

    def test_free_sphere_sizes(self, f2):
        b = ball(f2, 6)
        sizes = b.sphere_sizes()
        assert sizes[0] == 1
        for n in range(1, 7):
            assert sizes[n] == 4 * 3 ** (n - 1)

    def test_elements_sorted_by_length_then_alphabet(self, f2_ball4, surface_ball4):
        for b in (f2_ball4, surface_ball4):
            keys = [_shortlex_key(w, b.presentation._rank) for w in b.elements]
            assert keys == sorted(keys)

    def test_identity_first_and_lengths_bounded(self, surface_ball4):
        b = surface_ball4
        assert b.elements[0] == ""
        assert all(len(w) <= b.radius for w in b.elements)

    def test_word_length_is_the_graph_metric(self, f2_ball4, surface_ball4,
                                             f2xf2_ball3):
        # a length function is the graph distance from e exactly when it is 0
        # at e, moves by at most 1 along each edge, and drops by 1 along some
        # edge at every other element
        for b in (f2_ball4, surface_ball4, f2xf2_ball3):
            lengths = [len(w) for w in b.elements]
            assert lengths[0] == 0
            for i in range(len(b)):
                steps = [lengths[j] - lengths[i] for j in _neighbours(b, i)]
                assert all(abs(d) <= 1 for d in steps)
                assert i == 0 or -1 in steps

    def test_inverse_closure(self, f2_ball4, surface_ball4):
        for b in (f2_ball4, surface_ball4):
            for w in b.elements:
                assert b.canonical_index(invert(w)) is not None

    def test_adjacency_is_one_flat_int32_table(self, f2_ball4, surface_ball4,
                                               f2xf2_ball3):
        for b in (f2_ball4, surface_ball4, f2xf2_ball3):
            degree = len(b.presentation.alphabet)
            assert isinstance(b.adjacency, array)
            assert b.adjacency.typecode == "i" and b.adjacency.itemsize == 4
            assert len(b.adjacency) == len(b) * degree
            assert min(b.adjacency) == -1  # some product leaves the ball
            # a product that stays inside is the element its word names
            for i in (0, len(b) // 2, len(b) - 1):
                for r, letter in enumerate(b.presentation.alphabet):
                    j = b.adjacency[i * degree + r]
                    assert j == (b.canonical_index(b.elements[i] + letter) if j >= 0
                                 else -1)

    def test_adjacency_involutive(self, f2_ball4, surface_ball4, f2xf2_ball3):
        for b in (f2_ball4, surface_ball4, f2xf2_ball3):
            alphabet = b.presentation.alphabet
            degree = len(alphabet)
            for r in range(degree):  # letter r ^ 1 undoes letter r
                assert alphabet[r ^ 1] == alphabet[r].swapcase()
            for t, j in enumerate(b.adjacency):
                if j >= 0:
                    i, r = divmod(t, degree)
                    assert b.adjacency[j * degree + (r ^ 1)] == i

    def test_surface_ball_identifies_half_relator_words(self, surface_ball4):
        b = surface_ball4
        i = b.canonical_index("abAB")
        assert i is not None
        assert b.canonical_index("dcDC") == i
        assert b.elements[i] == "abAB"
        assert len(b.elements[i]) == 4

    def test_surface_sphere_sizes(self, surface_ball4):
        # the genus-2 growth series (1 + 2x + 2x^2 + 2x^3 + x^4) /
        # (1 - 6x - 6x^2 - 6x^3 + x^4) (Cannon; Floyd-Plotnick 1987), expanded
        # in integers: a_k = p_k + 6 a_{k-1} + 6 a_{k-2} + 6 a_{k-3} - a_{k-4}
        num, den = [1, 2, 2, 2, 1, 0, 0], [1, -6, -6, -6, 1]
        series = []
        for k in range(7):  # den * series = num, one coefficient at a time
            series.append(num[k] - sum(den[m] * series[k - m] for m in range(1, min(k, 4) + 1)))
        assert series == [1, 8, 56, 392, 2736, 19096, 133288]
        # free-like through radius 3; eight half-relator pairs merge at 4
        assert surface_ball4.sphere_sizes() == series[:5]

    def test_product_ball_sizes(self, f2xf2_ball3):
        # direct product of two rank-2 free groups: S(n) = sum s(i) s(n-i)
        assert f2xf2_ball3.sphere_sizes() == [1, 8, 40, 168]

    def test_each_edge_is_resolved_once(self, f2xf2, monkeypatch):
        # one loop over layers 0..radius never resolves a pair (element,
        # letter) whose edge is already recorded: each edge inside the ball
        # is resolved from one end, each pair leaving it once
        resolved = []
        resolve = CayleyBall._resolve
        alphabet = f2xf2.alphabet

        def counted(b, word):
            edge = b.index[word[:-1]] * len(alphabet) + alphabet.index(word[-1])
            assert b.adjacency[edge] == -1
            resolved.append(word)
            return resolve(b, word)

        monkeypatch.setattr(CayleyBall, "_resolve", counted)
        b = ball(f2xf2, 4)
        inside = sum(j >= 0 for j in b.adjacency)
        outside = len(b) * len(f2xf2.alphabet) - inside
        assert len(resolved) == inside // 2 + outside == 5512

    def test_size_within_a_negative_radius_is_empty(self, f2):
        b = ball(f2, 3)
        assert [b.size_within(r) for r in range(-3, 5)] == [0, 0, 0, 1, 5, 17, 53, 53]

    def test_ball_cap_enforced(self, f2):
        with pytest.raises(BallCapError):
            ball(f2, 5, cap=100)

    def test_normal_form_soundness_by_adjacency_walk(self, f2_ball4, surface_ball4):
        # brute-force oracle: multiplying letter by letter through the
        # adjacency graph must land on the reduced word's element
        rng = random.Random(11)
        for b in (f2_ball4, surface_ball4):
            letters = b.presentation.alphabet
            checked = 0
            while checked < 40:
                w = "".join(rng.choice(letters) for _ in range(rng.randint(0, 4)))
                idx = 0
                ok = True
                for ch in w:
                    nxt = b.adjacency[idx * len(letters) + letters.index(ch)]
                    if nxt < 0:
                        ok = False
                        break
                    idx = nxt
                if not ok:
                    continue
                checked += 1
                assert b.canonical_index(b.presentation.normal(w)) == idx


ONE_BUCKET_TEXT = """\
generators: a b c d
relators: aabbccdd
mode: dehn
"""


class TestOneBucketDehn:
    # aabbccdd is C'(1/6) with exponent sum 2 in each letter, so the
    # triviality oracle scans one shared bucket, not exponent-vector buckets
    @pytest.fixture(scope="class")
    def one_bucket(self):
        return parse_presentation(ONE_BUCKET_TEXT)

    def test_exponent_buckets_are_off(self, one_bucket):
        assert not one_bucket._abelian_zero

    def test_radius_two_ball_is_the_free_ball(self, one_bucket):
        # the relator has length 8, so no relation of length <= 6 holds, and
        # every loop through the radius-2 ball is shorter than that
        b = ball(one_bucket, 2)
        free = ball(GroupPresentation(("a", "b", "c", "d")), 2)
        assert b.elements == free.elements
        # the two flat tables agree entry by entry, products leaving included
        assert b.adjacency.tolist() == free.adjacency.tolist()

    def test_equal_words_outside_the_ball_have_no_name(self, one_bucket):
        # aabb = (ccdd)^-1 = DDCC, both outside the ball: the one-bucket
        # oracle scan matches neither to a ball element
        b = ball(one_bucket, 2)
        assert one_bucket.is_identity(invert("aabb") + "DDCC")
        for word in ("aabb", "DDCC"):
            with pytest.raises(OutOfBallError, match="radius-2 ball"):
                b.name(word)


def _distance(b, x, y):
    """Word distance d(x, y) read off the ball; None beyond its radius."""
    idx = b.canonical_index(invert(x) + y)
    return None if idx is None else len(b.elements[idx])


class TestWordDistance:
    def test_free_distances(self, f2_ball4):
        assert _distance(f2_ball4, "", "abab") == 4
        assert _distance(f2_ball4, "a", "b") == 2

    def test_out_of_range(self, f2):
        assert _distance(ball(f2, 3), "", "abab") is None

    def test_surface_relator_prefix_distance(self, surface_ball4):
        # the relator has length 8, so its length-4 prefix admits no shortcut
        assert _distance(surface_ball4, "", "abAB") == 4

    def test_triangle_inequality_free(self, f2):
        b = ball(f2, 3)
        n = len(b)
        d = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(n):
                d[i, j] = len(free_reduce(invert(b.elements[i]) + b.elements[j]))
        for k in range(n):
            assert np.all(d <= d[:, [k]] + d[[k], :])

    def test_triangle_inequality_surface(self, surface_ball4):
        b = surface_ball4
        idx = list(range(b.size_within(2)))
        n = len(idx)
        d = np.zeros((n, n), dtype=int)
        for i in range(n):
            for j in range(n):
                d[i, j] = len(b.elements[
                    b.canonical_index(invert(b.elements[idx[i]]) + b.elements[idx[j]])
                ])
        for k in range(n):
            assert np.all(d <= d[:, [k]] + d[[k], :])


LOOKUP_RADIUS = 4  # the surface ball first identifies distinct words at 4
PRESENTATIONS = ["f2", "surface", "f2xf2"]


@pytest.fixture(scope="module")
def presentations(f2, surface, f2xf2):
    return dict(zip(PRESENTATIONS, (f2, surface, f2xf2)))


@pytest.fixture(scope="module")
def lookup_balls(presentations):
    # balls of the lookup radius, built for this module's properties
    return {name: ball(pres, LOOKUP_RADIUS) for name, pres in presentations.items()}


@st.composite
def padded_words(draw, pres, max_base, base=None):
    """A word of at most ``max_base`` letters (or ``base``) with a relator, an
    inverse relator or a cancelling pair t t^-1 spliced in: a longer,
    unreduced word for the same element."""
    if base is None:
        base = draw(st.text(alphabet=pres.alphabet, max_size=max_base))
    t = draw(st.text(alphabet=pres.alphabet, max_size=2))
    fillers = [t + invert(t), *pres.relators, *map(invert, pres.relators)]
    filler = draw(st.sampled_from(fillers))
    cut = draw(st.integers(0, len(base)))
    return base[:cut] + filler + base[cut:]


@st.composite
def equal_words(draw, pres, radius):
    """Two padded words for one element of the radius ball; where the
    presentation has relators, written as the two halves h, t^-1 of a
    relator conjugate h t, which have distinct reduced forms."""
    if not pres.relators:
        u = draw(padded_words(pres, radius))
        return u, draw(padded_words(pres, 0, base=u))
    rel = draw(st.sampled_from([*pres.relators, *map(invert, pres.relators)]))
    turn = draw(st.integers(0, len(rel) - 1))
    conj = rel[turn:] + rel[:turn]
    half = len(conj) // 2
    prefix = draw(st.text(alphabet=pres.alphabet, max_size=radius - half))
    return (draw(padded_words(pres, 0, base=prefix + conj[:half])),
            draw(padded_words(pres, 0, base=prefix + invert(conj[half:]))))


@pytest.fixture(scope="module")
def step_balls(presentations):
    return {name: ball(pres, 3) for name, pres in presentations.items()}


class TestLookupProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.sampled_from(PRESENTATIONS), st.data())
    def test_name_step_is_the_name_of_the_whole_product(self, step_balls, which, data):
        # up to 4 letters from any element of the r=3 ball, so some walks
        # leave it: the table's name is the word problem's, or neither exists
        b = step_balls[which]
        w = b.elements[data.draw(st.integers(0, len(b) - 1))]
        letters = data.draw(st.text(alphabet=b.presentation.alphabet, max_size=4))
        assert _named(b.name_step, w, letters) == _named(b.name, w + letters)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(PRESENTATIONS), st.data())
    def test_name_resolves_to_the_same_index(self, lookup_balls, which, data):
        b = lookup_balls[which]
        w = data.draw(padded_words(b.presentation, LOOKUP_RADIUS + 3))
        i = b.canonical_index(w)
        if i is not None:
            assert b.name(w) == b.elements[i]
        elif b.presentation.reduction_mode == "dehn":
            with pytest.raises(OutOfBallError):
                b.name(w)
        else:
            assert b.canonical_index(b.name(w)) is None

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(PRESENTATIONS), st.booleans(), st.data())
    def test_equality_matches_index_in_ball(self, lookup_balls, which, same, data):
        b = lookup_balls[which]
        pres = b.presentation
        if same:
            u, v = data.draw(equal_words(pres, LOOKUP_RADIUS))
        else:
            u = data.draw(padded_words(pres, LOOKUP_RADIUS))
            v = data.draw(padded_words(pres, LOOKUP_RADIUS))
        i, j = b.canonical_index(u), b.canonical_index(v)
        assert i is not None and j is not None
        assert pres.is_identity(invert(u) + v) == (i == j)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(PRESENTATIONS), st.data())
    def test_walk_is_the_product_while_it_stays_in_the_ball(self, lookup_balls,
                                                            which, data):
        b = lookup_balls[which]
        i = data.draw(st.integers(0, len(b) - 1))
        letters = data.draw(st.text(alphabet=b.presentation.alphabet, max_size=6))
        w = b.elements[i]
        prefixes = [b.canonical_index(w + letters[:k]) for k in range(1, len(letters) + 1)]
        j = b.walk(i, letters)
        if j >= 0:
            assert j == b.canonical_index(w + letters) and None not in prefixes
        else:
            assert j == -1 and None in prefixes

    @pytest.mark.parametrize("which", PRESENTATIONS)
    def test_naming_keeps_no_state(self, presentations, which):
        # words for ball elements with a cancelling pair spliced in, and
        # words outside the ball: naming them all leaves the ball as it was
        b = ball(presentations[which], 3)
        before = {key: copy.copy(value) if isinstance(value, (array, dict, list)) else value
                  for key, value in vars(b).items()}
        letter = b.presentation.alphabet[0]
        outside = [w + letter * 4 for w in b.elements[-20:]]
        for w in [letter + invert(letter) + w for w in b.elements] + outside:
            try:
                b.name(w)
            except OutOfBallError:
                assert b.presentation.reduction_mode == "dehn"
        assert vars(b) == before

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(PRESENTATIONS), st.integers(0, LOOKUP_RADIUS - 1))
    def test_ball_is_a_prefix_of_the_next(self, lookup_balls, which, r):
        pres = lookup_balls[which].presentation
        inner, outer = ball(pres, r).elements, ball(pres, r + 1).elements
        assert outer[: len(inner)] == inner


@st.composite
def relator_words(draw, pres, max_chunks=6):
    """Words built from single letters and subwords of relator conjugates,
    so that Dehn replacements and rewriting rules fire often."""
    chunks = [*pres.alphabet, *(c[:k] for rel in pres.relators
                                for c in _symmetrized(rel)
                                for k in range(2, len(c) + 1))]
    return "".join(draw(st.lists(st.sampled_from(chunks), max_size=max_chunks)))


@st.composite
def trivial_words(draw, pres):
    """Products of conjugates u c u^-1 of relator conjugates c."""
    conjugates = [c for rel in pres.relators for c in _symmetrized(rel)]
    out = ""
    for _ in range(draw(st.integers(1, 3))):
        u = draw(st.text(alphabet=pres.alphabet, max_size=4))
        out += u + draw(st.sampled_from(conjugates)) + invert(u)
    return out


def _forbidden_subwords(pres):
    # what a reduced word may not contain, computed from the presentation
    # itself: in dehn mode every subword longer than half of a cyclic
    # conjugate of a relator or its inverse, else every rule left side
    if pres.reduction_mode == "dehn":
        return {c[:k] for rel in pres.relators for c in _symmetrized(rel)
                for k in range(len(c) // 2 + 1, len(c) + 1)}
    return {lhs for lhs, _ in pres.rewriting_rules}


class TestRewriterProperties:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PRESENTATIONS), st.data())
    def test_normal_form_is_reduced(self, presentations, which, data):
        pres = presentations[which]
        w = data.draw(relator_words(pres))
        nf = pres.normal(w)
        assert len(nf) <= len(w)
        assert pres.normal(nf) == nf
        assert all(x != y.swapcase() for x, y in zip(nf, nf[1:]))
        assert not [sub for sub in _forbidden_subwords(pres) if sub in nf]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["f2", "f2xf2"]), st.data())
    def test_canonical_normal_form_is_multiplicative(self, presentations,
                                                     which, data):
        pres = presentations[which]
        u, v = data.draw(relator_words(pres)), data.draw(relator_words(pres))
        assert pres.normal(u + v) == pres.normal(pres.normal(u) + pres.normal(v))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_product_normal_form_splits_into_factors(self, f2xf2, data):
        # independent oracle: F2 x F2 is the direct product of the free
        # groups on a, b and on c, d
        w = data.draw(relator_words(f2xf2))
        ab = "".join(ch for ch in w if ch in "aAbB")
        cd = "".join(ch for ch in w if ch in "cCdD")
        assert f2xf2.normal(w) == free_reduce(ab) + free_reduce(cd)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_conjugated_relators_are_trivial(self, surface, data):
        u = data.draw(relator_words(surface))
        for c in _symmetrized(surface.relators[0]):
            assert surface.is_identity(u + c + invert(u))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_trivial_words_have_zero_exponents(self, surface, data):
        w = data.draw(st.one_of(relator_words(surface), trivial_words(surface)))
        if surface.is_identity(w):
            assert not any(surface.exponent_vector(w))
