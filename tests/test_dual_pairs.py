import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction

import pytest

from scorza import cli, linalg
from scorza import dual_pairs as dp
from scorza.dual_pairs import (
    SignedPerm,
    WElement,
    cartan_project,
    cartan_split,
    dagger,
    equivariance_check,
    in_group_g,
    in_group_h,
    in_lie_g,
    in_lie_h,
    isotropic_basis,
    mu_G,
    mu_K,
    parse_case,
    random_g_element,
    random_h_element,
    random_lie_g,
    random_w_element,
    reduced_point,
    sample_zero_level,
    veronese_map,
)
from scorza.errors import InputError, UnsupportedError
from scorza.sampling import (
    derive_seed, make_rng, random_fraction, random_qi_matrix, random_qi_vector,
)
from scorza.scalars import HALF, QI
from scorza.strata import rank_of

CASES = ["sp:3", "u:3,3", "ostar:6"]
# every case kind, with small, square and tall parameters
ALL_CASES = ["sp:1", "sp:3", "u:2,1", "u:3,3", "u:4,2", "ostar:2", "ostar:5", "ostar:6"]


def test_case_parsing_and_shapes():
    c = parse_case("sp:3", 2)
    assert (c.kind, c.params, c.s, c.r) == ("sp", (3,), 2, 3)
    assert (c.v_size, c.s_size) == (6, 2)
    c = parse_case("u:4,3", 2)
    assert (c.r, c.v_size) == (3, 7)
    c = parse_case("ostar:6", 2)
    assert (c.r, c.v_size, c.s_size) == (3, 12, 4)
    for bad in ("sp", "u:3", "ostar:1", "xx:3", "u:2,3"):
        with pytest.raises(InputError):
            parse_case(bad, 1)
    with pytest.raises(InputError):
        parse_case("sp:3", 0)


@pytest.mark.parametrize("sel", ALL_CASES)
def test_case_structural_invariants(sel):
    for s in (1, 2, 3):
        case = parse_case(sel, s)
        j = case.j_v_matrix()
        gv = case.form_v_matrix()
        n = case.v_size
        minus_one = linalg.mat_neg(linalg.identity(n))
        # J^2 = -1, positivity of B(u, J v) on the basis Gram matrix, J in g
        assert linalg.mat_eq(linalg.mat_mul(j, j), minus_one)
        assert linalg.mat_eq(linalg.mat_mul(gv, j), linalg.identity(n))
        assert in_lie_g(case, j)
        # B is skew-hermitian: B(v,u) = -conj(B(u,v))
        assert linalg.is_zero_matrix(linalg.mat_add(linalg.conj_transpose(gv), gv))
        # Fact 1: G_V^2 = -1 and J_V = -G_V; the quaternionic structure is G_V
        assert linalg.mat_eq(linalg.mat_mul(gv, gv), minus_one)
        assert linalg.mat_eq(j, linalg.mat_neg(gv))
        if case.kind == "ostar":
            assert linalg.mat_eq(case.structure_v(), gv)
            cs = case.structure_s()
            assert linalg.mat_eq(
                linalg.mat_mul(cs, cs), linalg.mat_neg(linalg.identity(case.s_size))
            )
        else:
            with pytest.raises(UnsupportedError):
                case.structure_v()
            with pytest.raises(UnsupportedError):
                case.structure_s()


@pytest.mark.parametrize("sel", ALL_CASES)
def test_signed_permutations_match_dense_products(sel):
    # every constant applied by indexing equals the product by its dense
    # public matrix, from the left and from the right
    rng = make_rng("t-signed-perm", sel)
    for s in (1, 2, 3):
        case = parse_case(sel, s)
        consts = [(case.form_v(), case.form_v_matrix()), (-case.form_v(), case.j_v_matrix())]
        if case.kind == "ostar":
            consts += [(case.structure(True), case.structure_v()),
                       (case.structure(False), case.structure_s())]
        for perm, dense in consts:
            n = len(dense)
            for cols in (1, n, 3):
                x = random_qi_matrix(rng, n, cols, 7)
                assert perm.left(x) == linalg.mat_mul(dense, x)
                assert perm.right(linalg.transpose(x)) == linalg.mat_mul(
                    linalg.transpose(x), dense)
    # and on signed permutations that are not involutions
    for n in (1, 3, 5):
        cols = list(range(n))
        rng.shuffle(cols)
        perm = SignedPerm(tuple((c, rng.randrange(4)) for c in cols))
        x = random_qi_matrix(rng, n, n, 7)
        assert perm.left(x) == linalg.mat_mul(perm.dense(), x)
        assert perm.right(x) == linalg.mat_mul(x, perm.dense())
        assert (-perm).dense() == linalg.mat_neg(perm.dense())


def test_dagger_hand_example_sp1():
    # l = 1, s = 1, alpha = e1: dagger(e1) = 0, dagger(f1) = -1,
    # mu_G sends e1 to 0 and f1 to -e1
    case = parse_case("sp:1", 1)
    w = WElement(case, [[QI(1)], [QI(0)]])
    assert dagger(w) == [[QI(0), QI(-1)]]
    assert mu_G(w) == [[QI(0), QI(-1)], [QI(0), QI(0)]]
    assert linalg.is_zero_matrix(mu_K(w))
    assert rank_of(reduced_point(w)) == 1


@pytest.mark.parametrize("sel", CASES)
def test_dagger_defining_identity(sel):
    for s in (1, 2, 3):
        case = parse_case(sel, s)
        gv = case.form_v_matrix()
        for t in range(10):
            w = random_w_element(case, seed=derive_seed("t-dag", sel, s, t))
            # (dagger(a) u, v) = B(u, a v) over all basis pairs
            assert linalg.mat_eq(
                linalg.conj_transpose(dagger(w)), linalg.mat_mul(gv, w.alpha)
            )


@pytest.mark.parametrize("sel", CASES)
def test_momentum_lie_membership(sel):
    for s in (1, 2, 3, 4):
        case = parse_case(sel, s)
        for t in range(10):
            w = random_w_element(case, seed=derive_seed("t-lie", sel, s, t))
            assert in_lie_h(case, mu_K(w))
            assert in_lie_g(case, mu_G(w))
            assert linalg.is_zero_matrix(mu_K(WElement(case, linalg.mat_scale(w.alpha, QI(0)))))


@pytest.mark.parametrize("sel", CASES)
def test_group_generators_and_equivariance(sel):
    case = parse_case(sel, 2)
    rng = make_rng("t-equiv", sel)
    for t in range(12):
        x = random_h_element(case, rng)
        y = random_g_element(case, rng)
        assert in_group_h(case, x)
        assert in_group_g(case, y)
        w = random_w_element(case, seed=derive_seed("t-equiv-w", sel, t))
        assert equivariance_check(w, x, y)
    ident_h = linalg.identity(case.s_size)
    ident_g = linalg.identity(case.v_size)
    assert equivariance_check(w, ident_h, ident_g)


def test_equivariance_rejects_non_group_input():
    case = parse_case("sp:3", 2)
    w = random_w_element(case, seed=1)
    bad_h = linalg.mat_scale(linalg.identity(case.s_size), QI(2))
    bad_g = linalg.mat_scale(linalg.identity(case.v_size), QI(3))
    with pytest.raises(InputError):
        equivariance_check(w, bad_h, linalg.identity(case.v_size))
    with pytest.raises(InputError):
        equivariance_check(w, linalg.identity(case.s_size), bad_g)


@pytest.mark.parametrize("sel", CASES)
def test_isotropic_basis_is_isotropic(sel):
    case = parse_case(sel, 1)
    gv = case.form_v_matrix()
    basis = isotropic_basis(case)
    for u in basis:
        for v in basis:
            val = QI(0)
            for i, ui in enumerate(u):
                if ui:
                    for j, vj in enumerate(v):
                        if vj and gv[i][j]:
                            val = val + ui.conjugate() * gv[i][j] * vj
            assert not val


@pytest.mark.parametrize("sel", CASES)
def test_zero_level_and_reduction_bounds(sel):
    r = parse_case(sel, 1).r
    for s in range(1, r + 2):
        case = parse_case(sel, s)
        ranks = []
        for t in range(12):
            w = sample_zero_level(case, seed=derive_seed("t-zl", sel, s, t))
            assert linalg.is_zero_matrix(mu_K(w))
            p = reduced_point(w)
            rk = rank_of(p)
            assert rk <= min(s, r)
            ranks.append(rk)
        # saturation/genericity: the cap is attained
        assert max(ranks) == min(s, r)


def test_reduced_point_requires_zero_level():
    case = parse_case("u:3,3", 2)
    w = random_w_element(case, seed=5)
    if not linalg.is_zero_matrix(mu_K(w)):
        with pytest.raises(InputError):
            reduced_point(w)


@pytest.mark.parametrize("sel", ALL_CASES)
def test_cartan_split_and_projection(sel):
    case = parse_case(sel, 2)
    rng = make_rng("t-cartan", sel)
    j = case.j_v_matrix()
    for t in range(10):
        x = random_lie_g(case, rng)
        assert in_lie_g(case, x)
        x_k, x_p = cartan_split(case, x)
        assert linalg.mat_eq(linalg.mat_add(x_k, x_p), x)
        assert linalg.mat_eq(linalg.mat_mul(x_k, j), linalg.mat_mul(j, x_k))
        assert linalg.mat_eq(
            linalg.mat_mul(x_p, j), linalg.mat_neg(linalg.mat_mul(j, x_p))
        )
        # projection lands in the validated matrix model
        point = cartan_project(x, case)
        assert point.model == case.model()
    # an element of k projects to zero
    assert cartan_project(j, case).is_zero()
    # Fact 2: on g the split (X -+ X^H)/2 equals (X -+ J X J)/2, checked on
    # random Lie elements and on momentum images mu_G(alpha)
    for s in (1, 2, 3):
        case = parse_case(sel, s)
        xs = [random_lie_g(case, rng) for _ in range(3)]
        xs += [mu_G(random_w_element(case, seed=derive_seed("t-cartan-mu", sel, s, t)))
               for t in range(3)]
        for x in xs:
            jxj = linalg.mat_mul(j, linalg.mat_mul(x, j))
            x_k, x_p = cartan_split(case, x)
            assert linalg.mat_eq(x_k, linalg.mat_scale(linalg.mat_sub(x, jxj), HALF))
            assert linalg.mat_eq(x_p, linalg.mat_scale(linalg.mat_add(x, jxj), HALF))


def test_cartan_project_rejects_non_lie_input():
    case = parse_case("sp:3", 1)
    with pytest.raises(InputError):
        cartan_project(linalg.identity(case.v_size), case)


@pytest.mark.parametrize("sel", CASES)
def test_veronese_map(sel):
    case = parse_case(sel, 1)
    rng = make_rng("t-ver", sel)
    hits = 0
    for t in range(12):
        v = random_qi_vector(rng, case.v_size, 5, real=case.real_entries)
        p = veronese_map(case, v)
        assert rank_of(p) <= 1
        hits += rank_of(p) == 1
        lam = random_fraction(rng, 5, nonzero=True)
        p2 = veronese_map(case, [x * lam for x in v])
        assert linalg.mat_eq(p2.coords, linalg.mat_scale(p.coords, lam * lam))
    assert hits >= 11
    assert veronese_map(case, [QI(0)] * case.v_size).is_zero()
    with pytest.raises(InputError):
        veronese_map(parse_case(sel, 2), [QI(0)] * case.v_size)


def test_w_complex_dimensions():
    assert [parse_case("sp:3", s).w_complex_dim() for s in (1, 2, 3)] == [3, 6, 9]
    assert [parse_case("u:3,3", s).w_complex_dim() for s in (1, 2, 3)] == [6, 12, 18]
    assert [parse_case("ostar:6", s).w_complex_dim() for s in (1, 2, 3)] == [12, 24, 36]


def test_w_element_structure_validation():
    case = parse_case("ostar:6", 1)
    with pytest.raises(InputError):
        # right shape but not quaternion-linear
        WElement(case, [[QI(1), QI(0)]] * 12)
    sp_case = parse_case("sp:2", 1)
    with pytest.raises(InputError):
        WElement(sp_case, [[QI(0, 1)]] * 4)  # complex entries in the real case
    with pytest.raises(InputError):
        WElement(sp_case, [[QI(1)]] * 3)  # wrong shape


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the stdout of `scorza reduce --case C --s S --seed 11`; any change
# to a draw order or to the arithmetic of the dual-pair layer moves these
REDUCE_DIGESTS = {
    ("sp:3", 1): "1057293d916e51dad815f94198b5ce4ea8a2bb7d0455cfe4cc9efc136f722955",
    ("sp:3", 2): "c8e2b83b90acb010c2f5f7e235a9509097ae7e046fc503e3872afbdf490309ff",
    ("sp:3", 3): "f7b9329d01b6f0351b89a0fa44dba318e21b9c6588f7b75750439b39deccc317",
    ("sp:3", 4): "e5c835ffb837c0239b261bdee90e85202b57bbdd289d9d68dc1c89e36c9fbfe4",
    ("u:3,3", 1): "1b83d12bedda3e7ff191a79b3e1ce4e33e8e0b94e8e270172235cb248833c81a",
    ("u:3,3", 2): "22f11ea0a11ffb09b72fc55ea69de7121fc9a3edf9f5787ed1dccffb2a5eed3d",
    ("u:3,3", 3): "2bcac255176e44dc4f331423832abc7e4143cab7ac617eaba1cfeed6ebdfb7eb",
    ("u:3,3", 4): "939441b7b571933562fcbd03c8fb8fff1d9c360b0923ab196d230a2d82e0c018",
    ("ostar:6", 1): "064f8553e8630b7ada6d8b2ffbf02c343298f18e6979dd2bdd48815c181b89d0",
    ("ostar:6", 2): "4bab6cb667a3db4aa94e21323427045420d9016f111b751f9b7d8dc2756e94f0",
    ("ostar:6", 3): "73612845c14b4b16ea004b920e7d5f5c495e540cbcb07a7c11b689351847e52a",
    ("ostar:6", 4): "6372997f61e89a312a200f4c6cd4428c83c94c51bdea431493e7b629b057da07",
}


# sha256 of three `random_lie_g` matrices per case, drawn from one seeded rng
# as JSON; verify's cartan_split check reports only pass/fail, so these pins
# are what catches a changed draw order in `random_lie_g`
LIE_G_DIGESTS = {
    "sp:1": "ce16b99bca962be7d6b2e2aa34306976a90e9195dd71e244ff3d89dd44204518",
    "sp:3": "389e58fa02364e88026ab9c8464564aa68e899ec5d1d0adbdecb6925da717597",
    "u:2,1": "45e36234823cc29aad9d0ca18b022f325ccb94875678ea42d5292d0389ae6d59",
    "u:3,3": "4d80f39f7c111cfd4f744e7ef24c7b7050001338453103b8798de86ea5783e58",
    "u:4,2": "3d0f751fb0b857876c04866ccb21b1076ad9f6029c941291328c0cd8427e7ad8",
    "ostar:2": "70dc203de6480c6a84afdb9d8e967df67299c017a2d2f70aa931721f047a3621",
    "ostar:5": "d33073fa1ec5be2eaab6998bd8d2137322ac3514766034edcf6960d2da6df96e",
    "ostar:6": "2ff3874e28c96a5703be81ede9fab29f55f8343d74be44139255f6b5a8cc4b30",
}


# sha256 of random_h_element, random_g_element, random_h_element,
# random_g_element drawn from one seeded rng, as JSON; verify's equivariance
# check reports only pass/fail, so these pins catch a changed draw order
GROUP_DIGESTS = {
    "sp:1": "df1d35a13af64d01dbf31e960c1791a1ddaed44fbeb7410c166e292f267d88b7",
    "sp:3": "c06208cfc699356bf84bde5a55fb2c8aaa11fedf8a7a1c79a47bc075585b1a08",
    "u:2,1": "983a84341e2a287b00668355d2b87b4cc2e242a2136ae37927354c7c1c14f8e5",
    "u:3,3": "f879e7f9630d0884e8e77ed517b608f42e7571d552db9a1f69a2443645a6b605",
    "u:4,2": "5234e067bd9a79a8ea38a76d6689dc8d08cd39470c4be334ec733ddaec9b52b2",
    "ostar:2": "885f1e03a28ae1301ea63d10e79ddd33360370378f3b487ff462d39749bef3e2",
    "ostar:5": "7b81dee94d849f9701adec4cf8ad68f2cf6952b3d7e366480e8bea2705e2ea40",
    "ostar:6": "31863579b34dfe2ef1dbebaab7f50c533621672d1e8640ea6443115bb1011946",
}


@pytest.mark.parametrize("sel", ALL_CASES)
def test_random_group_draws_pinned(sel):
    rng = make_rng("t-group-pin", sel)
    case = parse_case(sel, 2)
    mats = [linalg.matrix_to_json(draw(case, rng))
            for _ in range(2) for draw in (random_h_element, random_g_element)]
    assert _sha256(json.dumps(mats)) == GROUP_DIGESTS[sel]


@pytest.mark.parametrize("sel", ALL_CASES)
def test_random_lie_g_draws_pinned(sel):
    rng = make_rng("t-lie-pin", sel)
    case = parse_case(sel, 2)
    mats = [linalg.matrix_to_json(random_lie_g(case, rng)) for _ in range(3)]
    assert _sha256(json.dumps(mats)) == LIE_G_DIGESTS[sel]


@pytest.mark.parametrize("sel,s", sorted(REDUCE_DIGESTS))
def test_reduce_output_pinned(sel, s):
    out = _cli_stdout(["reduce", "--case", sel, "--s", str(s), "--seed", "11"])
    assert _sha256(out) == REDUCE_DIGESTS[sel, s]


def test_verify_moment_report_pinned():
    # the report with its one timing field removed, as sorted-key JSON
    out = _cli_stdout(["verify", "--suite", "moment", "--trials", "2", "--seed", "8"])
    report = json.loads(out)
    del report["wall_time_s"]
    assert _sha256(json.dumps(report, sort_keys=True)) == (
        "87d9ed692f7342988a0cbce0a2190fe82749c11c25f42ee58dabc2ed864157b7"
    )


def _fractions_built(fn) -> int:
    """The number of Fraction.__new__ calls made while fn() runs."""
    code, count = Fraction.__new__.__code__, 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(old)
    return count


def test_momentum_maps_build_no_fraction_per_entry():
    case = parse_case("ostar:6", 3)
    w = sample_zero_level(case, 5)
    assert _fractions_built(lambda: Fraction(1, 2)) == 1  # the counter sees a build
    built = _fractions_built(lambda: (
        mu_K(w), mu_G(w), linalg.mat_chain(w.alpha, dagger(w), w.alpha, dagger(w)),
    ))
    assert built == 0


def _record_chains(monkeypatch) -> list:
    """Record (factors, result) of every `_chain` product from now on."""
    formed, half = [], dp._chain

    def recording(case, *factors):
        out = half(case, *factors)
        formed.append((factors, out))
        return out

    monkeypatch.setattr(dp, "_chain", recording)
    return formed


@pytest.mark.parametrize("sel", ["ostar:2", "ostar:5", "ostar:6"])
def test_half_products_equal_full_chains(sel, monkeypatch):
    # Fact 3: each quaternionic product formed on its left block column
    # equals the full product of the same factors
    formed = _record_chains(monkeypatch)
    v = parse_case(sel, 1).v_size
    expected = {((v, 2), (2, v))}  # the isotropic shear V (V^H K)
    for s in range(1, 5):
        case = parse_case(sel, s)
        n, b = case.s_size, 2 * case.r
        expected |= {
            ((v, v),) * 6 + ((v, b), (b, n)),  # the zero-level chain
            ((n, v), (v, n)), ((v, n), (n, v)),  # mu_K and mu_G
            ((n, n),) * 3, ((v, v),) * 3,  # random H and G elements
            ((v, v), (v, n), (n, n)),  # y a x^-1
            ((n, n), (n, v), (v, n), (n, n)),  # -x dagger(a) a x^-1
            ((v, v), (v, n), (n, v), (v, v)),  # y a dagger(a) y^-1
        }
        for seed in range(3):
            sample_zero_level(case, seed)
            w = random_w_element(case, seed)
            mu_K(w), mu_G(w)
            rng = make_rng("t-half", sel, s, seed)
            assert equivariance_check(w, random_h_element(case, rng), random_g_element(case, rng))
    assert expected <= {tuple(linalg.shape(f) for f in factors) for factors, _ in formed}
    for factors, out in formed:
        assert out == linalg.mat_chain(*factors)


@pytest.mark.parametrize("sel", ["sp:3", "u:3,3"])
def test_chain_is_mat_chain_off_ostar(sel):
    case = parse_case(sel, 2)
    rng = make_rng("t-chain", sel)
    v, n = case.v_size, case.s_size
    factors = [random_qi_matrix(rng, *shape, 5) for shape in ((n, v), (v, v), (v, n))]
    assert dp._chain(case, *factors) == linalg.mat_chain(*factors)


def test_reduce_multiplies_half_the_columns(monkeypatch):
    # the columns of the last factor summed over every product one ostar
    # reduce forms: 36 before the half products (the zero-level chain 8,
    # mu_K twice 8 each, mu_G 12), 14 with them
    columns, full = [0], linalg.mat_chain

    def counting(*factors):
        columns[0] += len(factors[-1][0])
        return full(*factors)

    monkeypatch.setattr(linalg, "mat_chain", counting)
    _cli_stdout(["reduce", "--case", "ostar:6", "--s", "4", "--seed", "11"])
    assert columns[0] <= 36 // 2
