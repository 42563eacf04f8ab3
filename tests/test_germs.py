"""Structure germs: frames, first integrals, Levi data, covectors."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from crjets import (
    Alphabet,
    GaussianRational,
    Jet,
    characteristic_covector,
    first_integrals,
    frame,
    generators,
    is_solution,
    levi_form,
    make_germ,
    model_germ,
    standard_alphabet,
    t_hessian,
)
from crjets.errors import PreconditionError
from crjets.germs import at_t_zero

from germ_corpus import (
    rand_fraction,
    rand_scalar,
    random_central,
    random_definite_germ,
    random_germ,
    sparse_real_germ,
)
from oracles import ZERO, jet_to_poly, pcompose, point_args, previous_characteristic_covector


def quadric(order=6):
    a = standard_alphabet(1, 0)
    g = generators(a, order)
    return make_germ(1, 0, g["z1"] * g["zb1"])


def test_make_germ_validates():
    a = standard_alphabet(1, 0)
    g = generators(a, 4)
    with pytest.raises(PreconditionError):
        make_germ(1, 0, g["s"])  # linear term
    with pytest.raises(PreconditionError):
        make_germ(1, 0, g["z1"] * g["z1"])  # not real
    with pytest.raises(PreconditionError):
        make_germ(1, 0, g["z1"] * g["zb1"] + 1)  # constant


def test_make_germ_refuses_a_phi_over_another_alphabet():
    g = generators(standard_alphabet(1, 1), 4)
    with pytest.raises(
        PreconditionError,
        match=r"^phi must live over \('z1', 'zb1', 's'\), got \('z1', 'zb1', 's', 't1'\)$",
    ):
        make_germ(1, 0, g["z1"] * g["zb1"])


def test_model_germ_refuses_a_zero_coefficient():
    with pytest.raises(
        PreconditionError, match="^normal-form quadratic coefficients must be nonzero$"
    ):
        model_germ(quadric(), [Fraction(0)])


def test_linear_term_check_reads_the_terms(monkeypatch):
    """make_germ finds linear terms by their codes, not by one packed code
    per alphabet variable, and names the first one in alphabet order."""
    a = standard_alphabet(40, 3)
    g = generators(a, 3)
    phi = g["z1"] * g["zb1"] + g["t2"] * g["s"]
    two_linear = g["z1"] * g["zb1"] + g["t3"] + g["s"]
    calls = []
    original = Alphabet.encode_dict

    def counted(self, exponents):
        calls.append(exponents)
        return original(self, exponents)

    monkeypatch.setattr(Alphabet, "encode_dict", counted)
    assert make_germ(40, 3, phi).phi is phi
    with pytest.raises(
        PreconditionError,
        match=r"^phi must have vanishing differential at 0; linear term in 's'$",
    ):
        make_germ(40, 3, two_linear)
    assert calls == []


def test_frame_annihilates_first_integrals_on_the_quadric():
    germ = quadric()
    fields = frame(germ)
    assert len(fields) == 1
    ints = first_integrals(germ)
    assert set(ints) == {"z1", "w"}
    for field in fields:
        for h in ints.values():
            assert field.apply(h).is_zero()
    assert is_solution(germ, ints["w"])
    assert not is_solution(germ, Jet.variable(germ.alphabet, germ.order, "s"))


def test_mizohata_frame():
    # nu = 0, phi = t^2: the single field is d/dt - 2it d/ds
    a = standard_alphabet(0, 1)
    g = generators(a, 5)
    germ = make_germ(0, 1, g["t1"] * g["t1"])
    fields = frame(germ)
    assert len(fields) == 1
    w = first_integrals(germ)["w"]
    assert fields[0].apply(w).is_zero()
    assert fields[0].var == "t1"
    coeff_s = fields[0].s_coefficient
    assert coeff_s == g["t1"].truncate(4) * GaussianRational(0, -2)


def test_quadric_levi():
    form = levi_form(quadric())
    assert form.matrix == ((GaussianRational(1),),)
    assert (form.positive, form.negative, form.null) == (1, 0, 0)
    assert form.positive_definite


def test_indefinite_two_variable_quadric():
    a = standard_alphabet(2, 0)
    g = generators(a, 4)
    germ = make_germ(2, 0, g["z1"] * g["zb1"] - g["z2"] * g["zb2"])
    form = levi_form(germ)
    assert (form.positive, form.negative, form.null) == (1, 1, 0)
    assert form.nondegenerate and form.positive and form.negative


def test_degenerate_levi_is_reported_not_raised():
    a = standard_alphabet(1, 0)
    g = generators(a, 6)
    germ = make_germ(1, 0, (g["z1"] * g["zb1"]) ** 2)
    form = levi_form(germ)
    assert form.null == 1 and not form.nondegenerate


def test_levi_blocks_with_parameters():
    a = standard_alphabet(1, 1)
    g = generators(a, 4)
    # phi = z zb + t^2 + (z + zb) t  gives B = C^* = 1
    phi = g["z1"] * g["zb1"] + g["t1"] * g["t1"] + (g["z1"] + g["zb1"]) * g["t1"]
    germ = make_germ(1, 1, phi)
    form = levi_form(germ)
    assert form.matrix[0][0] == GaussianRational(1)
    assert form.matrix[0][1] == GaussianRational(1)
    assert form.matrix[1][0] == GaussianRational(1)
    assert form.matrix[1][1] == GaussianRational(2)


def test_t_hessian():
    a = standard_alphabet(1, 2)
    g = generators(a, 4)
    phi = g["z1"] * g["zb1"] + g["t1"] * g["t1"] + g["t1"] * g["t2"] * 3 + g["t2"] * g["t2"]
    h = t_hessian(make_germ(1, 2, phi))
    assert h == [[Fraction(2), Fraction(3)], [Fraction(3), Fraction(2)]]


def test_covector_imaginary_part_is_the_t_gradient():
    rng = random.Random(41)
    for _ in range(6):
        germ = random_germ(rng, nu=1, nprime=2, order=5)
        cov = characteristic_covector(germ)
        for name in ("dx1", "dy1", "ds"):
            assert cov.imaginary_real_basis[name].is_zero()
        for l in (1, 2):
            grad = germ.phi.derive(f"t{l}")
            assert cov.imaginary_real_basis[f"dt{l}"] == grad


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(2, 7), st.integers(0, 2**32))
def test_covector_closed_form_matches_the_real_basis_computation(nu, nprime, order, seed):
    germ = sparse_real_germ(random.Random(seed), nu, nprime, order)
    got = characteristic_covector(germ)
    expected = previous_characteristic_covector(germ)
    assert got == expected  # jets compare alphabet and order too
    assert list(got.imaginary_real_basis) == list(expected.imaginary_real_basis)
    assert {jet.order for jet in got.imaginary_real_basis.values()} == {order - 1}


def test_frame_annihilation_on_random_germs():
    rng = random.Random(99)
    for _ in range(5):
        germ = random_germ(rng, nu=1, nprime=1, order=5)
        ints = first_integrals(germ)
        for field in frame(germ):
            for h in ints.values():
                assert field.apply(h).is_zero()


def per_entry_levi(germ):
    """The Levi matrix and t-Hessian read off by one coefficient lookup
    per entry, as the block layout in the levi_form docstring states."""
    nu, npr, phi = germ.nu, germ.nprime, germ.phi
    z = [f"z{j}" for j in range(1, nu + 1)] + [f"t{l}" for l in range(1, npr + 1)]
    zb = [f"zb{k}" for k in range(1, nu + 1)] + [f"t{r}" for r in range(1, npr + 1)]
    m = [
        [phi.coefficient({a: 2} if a == b else {a: 1, b: 1}) * (2 if a == b else 1) for b in zb]
        for a in z
    ]
    return m, [[c.real for c in row[nu:]] for row in m[nu:]]


def scattered_quadratic_germ(rng, nu, nprime, count):
    """A real germ whose quadratic part has `count` random terms (with
    their conjugate mirrors) of every kind, plus cubic noise."""
    alphabet = standard_alphabet(nu, nprime)
    zs = [f"z{j}" for j in range(1, nu + 1)]
    zbs = [f"zb{j}" for j in range(1, nu + 1)]
    conj = dict(zip(zs, zbs)) | dict(zip(zbs, zs))
    pool = zs + zbs + ["s"] + [f"t{l}" for l in range(1, nprime + 1)]
    terms = {}
    for _ in range(count):
        a, b = rng.choice(pool), rng.choice(pool + ["s"] * 3)
        mono = {a: 2} if a == b else {a: 1, b: 1}
        mirror = {conj.get(name, name): e for name, e in mono.items()}
        code, mirror_code = alphabet.encode_dict(mono), alphabet.encode_dict(mirror)
        if code == mirror_code:
            terms[code] = GaussianRational(rand_fraction(rng, nonzero=True))
        else:
            c = rand_scalar(rng)
            terms[code], terms[mirror_code] = c, c.conjugate()
    cubic = {zs[0]: 1, "zb1": 1, "s": 1}
    terms[alphabet.encode_dict(cubic)] = GaussianRational(5)
    return make_germ(nu, nprime, Jet(alphabet, 3, terms))


def test_levi_form_matches_per_entry_lookups():
    rng = random.Random(2718)
    germs = [random_central(rng, nu=2, order=4) for _ in range(3)]
    germs += [random_germ(rng, nu=nu, nprime=npr, order=4, degmax=3) for nu, npr in ((1, 1), (1, 2), (2, 1))]
    germs += [random_definite_germ(rng, nu=2, nprime=1, order=4, degmax=3)]
    germs += [scattered_quadratic_germ(rng, 60, 0, 40), scattered_quadratic_germ(rng, 7, 5, 60)]
    filled = []
    for germ in germs:
        matrix, hessian = per_entry_levi(germ)
        assert [list(row) for row in levi_form(germ).matrix] == matrix
        assert t_hessian(germ) == hessian
        filled.append(sum(c != 0 for row in matrix for c in row))
    assert filled[-2] > 40 and filled[-1] > 40


def test_wide_scattered_levi_form_inertia():
    # 60 x 60, sparse, and mostly zero on the diagonal, so the congruence
    # shears often; the inertia is the one the doubled 120 x 120 real
    # congruence gave, which took seconds here
    germ = scattered_quadratic_germ(random.Random(150), 60, 0, 150)
    levi = levi_form(germ)
    assert (levi.positive, levi.negative, levi.null) == (25, 25, 10)
    assert sum(c != 0 for row in levi.matrix for c in row) > 100
    assert sum(levi.matrix[i][i] == 0 for i in range(60)) > 50


def test_levi_form_needs_the_quadratic_part():
    a = standard_alphabet(1, 1)
    germ = make_germ(1, 1, Jet.zero(a, 1))
    with pytest.raises(PreconditionError):
        levi_form(germ)
    with pytest.raises(PreconditionError):
        t_hessian(germ)
    empty = make_germ(0, 0, Jet.zero(standard_alphabet(0, 0), 1))
    assert levi_form(empty).matrix == ()


# ---------------------------------------------------------------------------
# restriction to t = 0
# ---------------------------------------------------------------------------

small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def jets_with_t(draw):
    """(nu, jet) with jet a complex jet over standard_alphabet(nu, nprime);
    nu = 4 with nprime >= 1 has 16-bit fields over a 6-bit central alphabet."""
    nu = draw(st.integers(0, 4))
    alpha = standard_alphabet(nu, draw(st.integers(0, 3)))
    order = draw(st.integers(1, 6))
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        exps = [0] * alpha.nvars
        for _ in range(draw(st.integers(0, order))):
            exps[draw(st.integers(0, alpha.nvars - 1))] += 1
        terms[alpha.encode(exps)] = GaussianRational(draw(small), draw(small))
    return nu, Jet(alpha, order, terms)


@settings(max_examples=80, deadline=None)
@given(jets_with_t())
@example((0, Jet.variable(standard_alphabet(0, 0), 3, "s")))
@example((4, Jet.variable(standard_alphabet(4, 3), 5, "t3") * Jet.variable(standard_alphabet(4, 3), 5, "z4")))
def test_t_zero_restriction_matches_substitution(case):
    nu, jet = case
    alpha = jet.alphabet
    central = standard_alphabet(nu, 0)
    args = point_args(alpha.names, dict.fromkeys(alpha.names[central.nvars:], ZERO), central.names)
    got = at_t_zero(jet, nu)
    assert jet_to_poly(got) == pcompose(jet_to_poly(jet), args, jet.order, central.nvars)
    assert got.alphabet == central and got.order == jet.order


@settings(max_examples=80, deadline=None)
@given(jets_with_t(), st.data())
def test_restriction_keeping_the_alphabet_matches_substitution(case, data):
    _, jet = case
    alpha = jet.alphabet
    names = data.draw(st.lists(st.sampled_from(alpha.names), unique=True))
    got = jet.at_zero(names, alpha)
    args = point_args(alpha.names, dict.fromkeys(names, ZERO), alpha.names)
    assert jet_to_poly(got) == pcompose(jet_to_poly(jet), args, jet.order, alpha.nvars)
    assert got.alphabet is alpha and got.order == jet.order
