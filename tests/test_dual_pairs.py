import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

import pytest

from scorza import cli, linalg, scalars, verify
from scorza import dual_pairs as dp
from scorza.dual_pairs import (
    WElement,
    cartan_project,
    cartan_split,
    dagger,
    equivariance_check,
    in_group_g,
    in_group_h,
    in_lie_g,
    in_lie_h,
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
from scorza.errors import InputError
from scorza.sampling import derive_seed, make_rng, random_qi_matrix
from scorza.scalars import HALF, QI
from scorza.strata import StratumPoint, rank_of

CASES = ["sp:3", "u:3,3", "ostar:6"]
# every case kind, with small, square and tall parameters
ALL_CASES = ["sp:1", "sp:3", "u:2,1", "u:3,3", "u:4,2", "ostar:2", "ostar:5", "ostar:6"]


def identity(n: int) -> list:
    return [[QI(int(i == j)) for j in range(n)] for i in range(n)]


def _structure(case, on_v: bool) -> list:
    """The matrix C = [[0, -I], [I, 0]] of the antilinear quaternionic
    structure X -> C conj(X) C^-1 of an ostar case, on V (size 2D) or on
    K^s (size 2s)."""
    n = case.params[0] if on_v else case.s
    return [[QI(-1) if j == i + n else QI(1) if i == j + n else QI(0) for j in range(2 * n)]
            for i in range(2 * n)]


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
        minus_one = linalg.mat_neg(identity(n))
        # J^2 = -1, positivity of B(u, J v) on the basis Gram matrix, J in g
        assert linalg.mat_eq(linalg.mat_mul(j, j), minus_one)
        assert linalg.mat_eq(linalg.mat_mul(gv, j), identity(n))
        assert in_lie_g(case, j)
        # B is skew-hermitian: B(v,u) = -conj(B(u,v))
        assert linalg.is_zero_matrix(linalg.mat_add(linalg.conj_transpose(gv), gv))
        # Fact 1: G_V^2 = -1 and J_V = -G_V; the quaternionic structure is G_V
        assert linalg.mat_eq(linalg.mat_mul(gv, gv), minus_one)
        assert linalg.mat_eq(j, linalg.mat_neg(gv))
        if case.kind == "ostar":
            assert linalg.mat_eq(_structure(case, True), gv)
            cs = _structure(case, False)
            assert linalg.mat_eq(
                linalg.mat_mul(cs, cs), linalg.mat_neg(identity(case.s_size))
            )


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
def test_momentum_lie_membership(sel):
    # s = 1..3 is the suite's momentum_lie_membership check
    case = parse_case(sel, 4)
    for t in range(10):
        w = random_w_element(case, seed=derive_seed("t-lie", sel, 4, t))
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
    ident_h = identity(case.s_size)
    ident_g = identity(case.v_size)
    assert equivariance_check(w, ident_h, ident_g)


def test_equivariance_rejects_non_group_input():
    case = parse_case("sp:3", 2)
    w = random_w_element(case, seed=1)
    bad_h = linalg.mat_scale(identity(case.s_size), QI(2))
    bad_g = linalg.mat_scale(identity(case.v_size), QI(3))
    with pytest.raises(InputError):
        equivariance_check(w, bad_h, identity(case.v_size))
    with pytest.raises(InputError):
        equivariance_check(w, identity(case.s_size), bad_g)


def _isotropic_basis(case) -> list:
    """The dense columns of the sampler's isotropic basis."""
    size, action = dp._isotropic_basis(case)
    return linalg.transpose(_dense_action(action, size))


@pytest.mark.parametrize("sel", CASES)
def test_isotropic_basis_is_isotropic(sel):
    case = parse_case(sel, 1)
    gv = case.form_v_matrix()
    basis = _isotropic_basis(case)
    for u in basis:
        for v in basis:
            val = QI(0)
            for i, ui in enumerate(u):
                if ui:
                    for j, vj in enumerate(v):
                        if vj and gv[i][j]:
                            val = val + ui.conjugate() * gv[i][j] * vj
            assert not val


def test_reduced_point_requires_zero_level():
    case = parse_case("u:3,3", 2)
    w = random_w_element(case, seed=5)
    if not linalg.is_zero_matrix(mu_K(w)):
        with pytest.raises(InputError):
            reduced_point(w)
        with pytest.raises(InputError):
            dp.reduction(w)


@pytest.mark.parametrize("sel", ALL_CASES)
def test_cartan_split_and_projection(sel):
    case = parse_case(sel, 2)
    rng = make_rng("t-cartan", sel)
    j = case.j_v_matrix()
    for t in range(10):
        x = random_lie_g(case, rng)
        assert in_lie_g(case, x)
        x_k, x_p = cartan_split(x)
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
            x_k, x_p = cartan_split(x)
            assert linalg.mat_eq(
                x_k, linalg.mat_scale(linalg.mat_add(x, linalg.mat_neg(jxj)), HALF))
            assert linalg.mat_eq(x_p, linalg.mat_scale(linalg.mat_add(x, jxj), HALF))


def test_cartan_project_rejects_non_lie_input():
    case = parse_case("sp:3", 1)
    with pytest.raises(InputError):
        cartan_project(identity(case.v_size), case)


@pytest.mark.parametrize("sel", CASES)
def test_veronese_map(sel):
    case = parse_case(sel, 1)
    assert veronese_map(case, [QI(0)] * case.v_size).is_zero()
    with pytest.raises(InputError):
        veronese_map(parse_case(sel, 2), [QI(0)] * case.v_size)


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


def test_ragged_matrices_are_rejected():
    # the shape is read off every row, not only the first
    case = parse_case("sp:3", 2)
    ragged = [[QI(1), QI(0)], [QI(0), QI(1), QI(5)]]
    assert not in_group_h(case, ragged)
    assert not in_lie_h(case, [[QI(0), QI(0)], [QI(0), QI(0), QI(0)]])
    ragged_g = identity(case.v_size)
    ragged_g[3].append(QI(0))
    assert not in_group_g(case, ragged_g)
    alpha = [[QI(1), QI(0)] for _ in range(case.v_size)]
    alpha[1].append(QI(0))
    with pytest.raises(InputError, match="rows have different lengths"):
        WElement(case, alpha)
    w = random_w_element(case, seed=1)
    with pytest.raises(InputError):
        equivariance_check(w, ragged, identity(case.v_size))
    with pytest.raises(InputError):
        equivariance_check(w, identity(case.s_size), ragged_g)


def _h_linear_oracle(case, m, rows_on_v, cols_on_v) -> bool:
    """Quaternion-linearity as M C_cols == C_rows conj(M), with the
    structure maps of the case on V or on K^s."""
    c_rows, c_cols = _structure(case, rows_on_v), _structure(case, cols_on_v)
    return linalg.mat_mul(m, c_cols) == linalg.mat_mul(c_rows, linalg.mat_conj(m))


@pytest.mark.parametrize("sel", ["ostar:2", "ostar:5", "ostar:6"])
def test_h_linearity_matches_the_structure_oracle(sel):
    # m == [L | C conj(L)] agrees with M C = C conj(M) on quaternion-linear
    # v x v, n x n and v x n matrices and on copies with one entry changed
    rng = make_rng("t-h-linear", sel)
    for s in (1, 2, 3):
        case = parse_case(sel, s)
        size = {True: case.v_size, False: case.s_size}
        linear = [(random_w_element(case, derive_seed("t-h-linear", sel, s, t)).alpha, True, False)
                  for t in range(2)]
        linear += [(random_h_element(case, rng), False, False),
                   (random_g_element(case, rng), True, True)]
        for rows_on_v, cols_on_v in ((True, True), (False, False), (True, False)):
            lhalf = random_qi_matrix(rng, size[rows_on_v], size[cols_on_v] // 2, 7)
            rhalf = linalg.mat_mul(_structure(case, rows_on_v), linalg.mat_conj(lhalf))  # Fact 3
            linear.append(([a + b for a, b in zip(lhalf, rhalf)], rows_on_v, cols_on_v))
        for m, rows_on_v, cols_on_v in linear:
            assert dp._is_h_linear(case, m)
            assert _h_linear_oracle(case, m, rows_on_v, cols_on_v)
            half = len(m[0]) // 2
            for col in (rng.randrange(half), half + rng.randrange(half)):  # left, then right
                bad = [row[:] for row in m]
                bad[rng.randrange(len(m))][col] += QI(1, rng.randrange(3))
                assert not dp._is_h_linear(case, bad)
                assert not _h_linear_oracle(case, bad, rows_on_v, cols_on_v)


@pytest.mark.parametrize("sel", ["sp:1", "sp:3", "u:2,1", "u:4,2"])
def test_h_linearity_holds_off_ostar(sel):
    rng = make_rng("t-h-linear-off", sel)
    case = parse_case(sel, 2)
    for shape in ((case.v_size, case.v_size), (case.s_size, case.s_size),
                  (case.v_size, case.s_size)):
        assert dp._is_h_linear(case, random_qi_matrix(rng, *shape, 7))


@pytest.mark.parametrize("sel", ALL_CASES)
def test_trusted_results_pass_the_public_checks(sel):
    # every alpha built without the constructor's checks passes them, and
    # the public element of a trusted element's alpha is the same plane
    for s in range(1, 5):
        case = parse_case(sel, s)
        for seed in range(3):
            rng = make_rng("t-trusted", sel, s, seed)
            sample, element = sample_zero_level(case, seed), random_w_element(case, seed)
            alpha = element.alpha
            x, y = random_h_element(case, rng), random_g_element(case, rng)
            moved = linalg.mat_mul(linalg.mat_mul(y, alpha), linalg.inverse(x))
            for built in (sample.alpha, alpha, moved):
                assert WElement(case, built).alpha == built
            for trusted in (sample, element):
                public = WElement(case, trusted.alpha)
                assert (public.den, public.flat) == (trusted.den, trusted.flat)
    # veronese_map keeps the public checks: v comes from the caller
    with pytest.raises(InputError, match="case sp uses real matrices"):
        veronese_map(parse_case("sp:3", 1), [QI(0, 1)] * 6)


def test_trusted_builds_make_no_h_linearity_check(monkeypatch):
    calls, check = [0], dp._is_h_linear

    def counting(case, m):
        calls[0] += 1
        return check(case, m)

    monkeypatch.setattr(dp, "_is_h_linear", counting)
    for s in range(1, 5):
        case = parse_case("ostar:6", s)
        for seed in range(3):
            sample_zero_level(case, seed)
            w = random_w_element(case, seed)
    assert calls[0] == 0
    WElement(case, w.alpha)
    assert calls[0] == 1  # the counter sees the public constructor's check


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _matrix_json(m: list) -> list:
    """A QI matrix as JSON data, one {"re", "im"} dict per entry."""
    return [[x.to_json() for x in row] for row in m]


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


# sha256 of _matrix_json(sample_zero_level(parse_case(C, S), seed).alpha) as
# JSON, for every case kind at s = 1..4 and seeds 0..2; a changed draw order
# or a wrong generator action moves these
ZERO_LEVEL_DIGESTS = {
    ("sp:1", 1, 0): "dd5bb9a84b66d77cba612f25d44a90fe5de6aec2ded2dde67dc62c8fc7719e29",
    ("sp:1", 1, 1): "bfb7239f1b4efd3ada627a3026c07149d87d37420b45635b947b2de8391da8ad",
    ("sp:1", 1, 2): "f1d6927aac39387114be6d65788b6db6e9ecf275c3dde7bcbc38b184020924fd",
    ("sp:1", 2, 0): "940ea7c3c5c878e7c06bd74eaac70baa7839f2469ecd122625beb72607b35b04",
    ("sp:1", 2, 1): "14839823db9f31bf837610077c8b8165b5479328ac909bb8bf173e99121ac3a1",
    ("sp:1", 2, 2): "3cfa2a123a707927fed2ba2f587f18074fa0685937690ce6aeb798965ad28106",
    ("sp:1", 3, 0): "2ccd1efbb1f4bc5d553ab400138082135abe43574636fd8415d370fb9e05106a",
    ("sp:1", 3, 1): "5c708b66891a78cf22af7cd29bf5cc6e4f056086f2912e79af97d52a441b9e2d",
    ("sp:1", 3, 2): "1d718aab0181672581c2b7334d7963cfc231816176700ecc5165374a06d9d6b9",
    ("sp:1", 4, 0): "89811b173cec4eb347b622b772d7d2db04a83ef96df3d505b9fb57203d7265c1",
    ("sp:1", 4, 1): "f6511e8ef7145bab66ffb134325f314ae41e651d9842bf247612e107090a05dd",
    ("sp:1", 4, 2): "a3a24ccaeae617fcbb39574156c4db6171c8842754831a6d037bbe6293b55ca6",
    ("sp:3", 1, 0): "a31ac9776579ea4248b217fd90b1cbb51db664c968c7fa8dc2fbbecef3928326",
    ("sp:3", 1, 1): "ba20d639c26ea4e6c1b056819ea5b015ca823950832d65492e9536426d9b8ddf",
    ("sp:3", 1, 2): "ba9ddaf55af3144e28dfd953a5d3ff9527d37b97e1a2c62b770c5b59bcf3e0b4",
    ("sp:3", 2, 0): "3162695fc74f9ea718e5561265d0106ad8e915e2b3a72763091df4e1c6d7886a",
    ("sp:3", 2, 1): "0376db66833024f43563b8ac961db2f193dc7f553e59a9ec516b064928b5c663",
    ("sp:3", 2, 2): "766a65afeaaabd323b696876c5a58b0ceeeba21d590dc23ef122366097a58018",
    ("sp:3", 3, 0): "b2c98dad17c6e6c5fc27ee3e63640036e7dbdf0e48602d780b2ec9ab90a049ae",
    ("sp:3", 3, 1): "51fe5e268ca28514476d65d9f57b3bca8be17b97ef601d16109937f2f2636c7e",
    ("sp:3", 3, 2): "899c3b0ca3f70429ae8afc4ddb5fde329b2bd3fd5c6633f44c2d233f70d9692e",
    ("sp:3", 4, 0): "2074dc6528946afc38f30dc1ebdee12ad18dd1da37be1a7ea4995f92b0faa2e7",
    ("sp:3", 4, 1): "b79135f4f36b1ba076f3c1a2845c945e9604c1ca370e5db86efb4f1db021339a",
    ("sp:3", 4, 2): "534c5b3dc5d05943bf33dc2a4bd5165b0d0399f519064f417feaab4f0c5c0ab2",
    ("u:2,1", 1, 0): "f829af3c0e877c7d47dc6d1e83a9c58f7e087120f7ffe4a13f99d78e5d256f96",
    ("u:2,1", 1, 1): "816ca52f66282a266f11d944a406624aba262a7a5dd8170e3689c9ab372e9f0d",
    ("u:2,1", 1, 2): "e85c869ebd2011bb3fd4f4a00d61b736ac63ff5cbdc0596e4f8bec32a51917ab",
    ("u:2,1", 2, 0): "81691a5c0d20f80bcb488385bd90887152679439c42dd6e98868dc91bf02a46e",
    ("u:2,1", 2, 1): "f63933377553dc4d5f5aa4af69bfc20278fe1ed92e174f85ab884943320ac198",
    ("u:2,1", 2, 2): "30b29f611ec2d2d626081480fdbd579767c67e57a3c9c53bab18fb4b3618f82d",
    ("u:2,1", 3, 0): "2a72e7813b299343dbdec35386e962b761d64c8340fb8f779375c30e507d0e85",
    ("u:2,1", 3, 1): "ec6c0440fbf89b3e666dabc9d7cfc8e70f55eadb665669597ab58366871f1add",
    ("u:2,1", 3, 2): "de53245e97270d5ea91983e4359fb7bcb359192838441381c22c230f7503192a",
    ("u:2,1", 4, 0): "b371085d20e1b55584e8b3232f45f19d3c1e5683318a2642ce191237ef731e3d",
    ("u:2,1", 4, 1): "8df764e18c384a8cf82914ac2df9a2978c94015786da7b362140b6acd3df8f9c",
    ("u:2,1", 4, 2): "31122838aa991f8ac140d4e62cc1e89855dfb218626ed8dff501530b1df4f877",
    ("u:3,3", 1, 0): "e863d9033c7084cc3125d7201dabccb0702ce46b95807e88b1c6f137c8dc914d",
    ("u:3,3", 1, 1): "6675bcef3fd57d8a5f5f83e26631f80a0af6ab82be9c43cd32959537165c22be",
    ("u:3,3", 1, 2): "f598fcb9281afcc1115f988da7a8e474ad97a154ad42298295f68311f96417bd",
    ("u:3,3", 2, 0): "30a76f9c1bcce496d192778be9197ac4791513f312f498379a9b4d2f1a2653c2",
    ("u:3,3", 2, 1): "01d3a2ae06b3717732a51d8a40c3c855543d5d27ed3269f572805fb3f6991790",
    ("u:3,3", 2, 2): "d64e16d8f60f1a8f9c90002cc618cd48098db1d62626d0f179f569efbe02f2ee",
    ("u:3,3", 3, 0): "f1b354da3c5b4d9a4252547f76bbaf1690cc4c82bed2d70f0946a6e928bb0062",
    ("u:3,3", 3, 1): "691db5838719943c8cf7895b8f2bf977d858ec3c863d8d342ab9b98a2e2d414a",
    ("u:3,3", 3, 2): "a0753af3a0bb9938fb84fff1485b91476bde8a1171e448f3518a4859fe2175f0",
    ("u:3,3", 4, 0): "68fa58139aac34aa5196caa81baaa792cc6ee8e573f940bd9f85400fe0ee1835",
    ("u:3,3", 4, 1): "dd2cc6f1ab02a36e7061752056e6110e5ff51f7d95aca1f278a7b21a66c22703",
    ("u:3,3", 4, 2): "b90adf88c4882331e3dd711b9a59dc5f79b73698e214031aee05b530a60a6fb7",
    ("u:4,2", 1, 0): "7ccd73e9be2783daf56986858d4a157c73ac98848e8159000e8934ddda5c262f",
    ("u:4,2", 1, 1): "cd6814b9ea656d8994efe3034a7375923155bd3e1815a7362d86ccb02b4cbd8d",
    ("u:4,2", 1, 2): "3cdbeccf50498eb2d9fa2dd2de03de60ccee856597474afc523fcdf05dc400a1",
    ("u:4,2", 2, 0): "db957cafc0799e3f283e955f085533153145f8d61be7877154a686b0c53f84b4",
    ("u:4,2", 2, 1): "f498d5cbfd1ad1f619daa7c2196a1981b31a401089781a8d01aa271ade02eb75",
    ("u:4,2", 2, 2): "8b7185685ec40e1ee0ffc826937cf3f884b6a19e6c1d508df0dce544e4c9efa3",
    ("u:4,2", 3, 0): "90055b2e988cdaaca6abadbb160bd7dea99bd38351133a678c4147577176c9d0",
    ("u:4,2", 3, 1): "a22d2f46768c70cf42ba46e93d7caf32cf63b59c16cc7301b92168e4a565eb43",
    ("u:4,2", 3, 2): "c37bb495d7affc986a5a0d043258c4724bd5b7576eb85bb15d7b26bb5603f685",
    ("u:4,2", 4, 0): "155e6ed126528f2707c6d2194168974023fd4a5e27dea048369b6d9267645a3b",
    ("u:4,2", 4, 1): "705b1dd35f1024b9c11e86ba8ca07b78f7f17e8e10c266df329fd267f80edca8",
    ("u:4,2", 4, 2): "03d705f7e596e7ccf2da09c66661b89034ba544df4aa8507013c809bcec1727b",
    ("ostar:2", 1, 0): "7913ef7ad2cd2e9bb5dd55a35010add1b3a24a85e8058555b5a47b45c3991a98",
    ("ostar:2", 1, 1): "faa1933168efc70d7912fafae6961049032a838f335eb161a2aba7d4681e274a",
    ("ostar:2", 1, 2): "b17d25104752fd62997fd593da724862694ae44cf5913dd9ab339ca1a60da1c7",
    ("ostar:2", 2, 0): "8f8aa1db60b98a6b70066521a62db24add46c6252ee07766c5c236f5ee118f68",
    ("ostar:2", 2, 1): "a384dc5dbb88b5c72fecd75b4e4d3cdf591dc3283ac47f88455a58aefd43091f",
    ("ostar:2", 2, 2): "0abf160d488a988976eea43ed164ef40bb904afdc551bb78265a702116ae8f62",
    ("ostar:2", 3, 0): "5c405d6cae716ca8b35ca3b3662f55425e2337ca5000a1df53a357c0acc4f325",
    ("ostar:2", 3, 1): "db8702bca24292290f007a0508c4cafff2bd55768bc70fdd6c695da85f620045",
    ("ostar:2", 3, 2): "036821c77c00bba9a583b917cf867a85353023b80bbc9696dbd11c5cf7c895ab",
    ("ostar:2", 4, 0): "81bb1b3327a8b5de38d6c0deaf656cb4131aa8eb5096f588632c2a8aed4d9a8e",
    ("ostar:2", 4, 1): "f8c5bfd6538739020b34dcf418e3bb3a9550f0844fc770e188ec3dd6f3b9a31a",
    ("ostar:2", 4, 2): "847ca790c9fd1c4351bcfb1b6941e8c2ca0daaf50ac9c68d19fae84d433665bb",
    ("ostar:5", 1, 0): "77e48c78d804e3a13fd274a6bc1c6ebd2372db37ff93b845f462c1355e549d80",
    ("ostar:5", 1, 1): "2302bcc3561bb91140b5e56b42fe2c629e1a032f1010b0dee0291775a2c3bab0",
    ("ostar:5", 1, 2): "ef5e8e7a3ad64f06bc406190f725af85dcf95736c76724ea188c98afcad9ad21",
    ("ostar:5", 2, 0): "af563a7da30446cf4ec60f1a8d0fd9f66d832cd7464e8410dbcb8d7e22c173a8",
    ("ostar:5", 2, 1): "0ac56195ad953aa5d9205072bbc6cb3760d63e6a847760725b5e42d9f01f2533",
    ("ostar:5", 2, 2): "03c601685ca2812943873568c08625e5fa4265b213ce5b55a8ea031bcdf981a4",
    ("ostar:5", 3, 0): "a91d680507085c71f24b0712abcda1a33a7eaee658c62465574253a5ef9615f0",
    ("ostar:5", 3, 1): "6a36241c7c9400fe6631d19168203d904d96ac3125a91783745cc7e2ba95e610",
    ("ostar:5", 3, 2): "ab76e2e1e1df093ca38bfb4dff94eb5780a50c48251565bc536e67ace9f9c4c4",
    ("ostar:5", 4, 0): "a663cfca3b98b33aeb54e6a11877f6fde8f288ee741e707697282d35816b4acd",
    ("ostar:5", 4, 1): "985fd5bd2e3b8cef5c674be8244e8d7dc639e67f84bef67e8e579111be2654b1",
    ("ostar:5", 4, 2): "0d7b5f59f8a412a389408ceb6d9156b76f663cf0ce95b542c5f1e8429f34d918",
    ("ostar:6", 1, 0): "53e35b33f11904038ba4ea9f79f552fd83b43100ae1e13bb9237e9af99d6b7f4",
    ("ostar:6", 1, 1): "d2522e7a4a51f9bf45e08f9cc656efb265a60e0c913e8e07763790871bc70321",
    ("ostar:6", 1, 2): "0cf782714698eb20115fbd26a70b40c42826aea4d2536a628d99cfadd147edc0",
    ("ostar:6", 2, 0): "dbefdb310dae0ac714059c6f223db08dcc85d2f626eb63bf4abc6a4f39bf8166",
    ("ostar:6", 2, 1): "cf72b3d919cc35c7d9ed215b7bdc82c3f2b9af25bff8b35f48cead741b161733",
    ("ostar:6", 2, 2): "4c9b89e45d2e11b8481cfbd873271adc55eea610e13e140f5d3042f233918c64",
    ("ostar:6", 3, 0): "f5d0e0cf17d502c2deadf6b77b1e4abb5da9bfb4b066f64b8fc9723523f54919",
    ("ostar:6", 3, 1): "6eef8052e5733ff83525c7a47d7f27679f6f5fde1eef94429ecda51a740af732",
    ("ostar:6", 3, 2): "dc2d9b2d7b660e7ec0d5392038044ce233bad3c605c1ebb906604133d71f2be3",
    ("ostar:6", 4, 0): "a112be492630beef2274588eab3faf75e144cf1c1decb924139dbafec97b4eec",
    ("ostar:6", 4, 1): "c47f6487c4deb2a1b6f8550b41d02e61434e9cb80faf4ffa2c723f9191500e52",
    ("ostar:6", 4, 2): "a0de74ecb8dec3350ce2801a7017bc9b4e06d499ed11428fed8934ebd5222876",
}


@pytest.mark.parametrize("sel", ALL_CASES)
def test_random_group_draws_pinned(sel):
    rng = make_rng("t-group-pin", sel)
    case = parse_case(sel, 2)
    mats = [_matrix_json(draw(case, rng))
            for _ in range(2) for draw in (random_h_element, random_g_element)]
    assert _sha256(json.dumps(mats)) == GROUP_DIGESTS[sel]


@pytest.mark.parametrize("sel", ALL_CASES)
def test_random_lie_g_draws_pinned(sel):
    rng = make_rng("t-lie-pin", sel)
    case = parse_case(sel, 2)
    mats = [_matrix_json(random_lie_g(case, rng)) for _ in range(3)]
    assert _sha256(json.dumps(mats)) == LIE_G_DIGESTS[sel]


@pytest.mark.parametrize("sel,s", sorted({key[:2] for key in ZERO_LEVEL_DIGESTS}))
def test_zero_level_samples_pinned(sel, s):
    case = parse_case(sel, s)
    for seed in range(3):
        alpha = _matrix_json(sample_zero_level(case, seed).alpha)
        assert _sha256(json.dumps(alpha)) == ZERO_LEVEL_DIGESTS[sel, s, seed]


@pytest.mark.parametrize("sel,s", sorted(REDUCE_DIGESTS))
def test_reduce_output_pinned(sel, s):
    out = _cli_stdout(["reduce", "--case", sel, "--s", str(s), "--seed", "11"])
    assert _sha256(out) == REDUCE_DIGESTS[sel, s]


def test_verify_moment_report_pinned():
    # the report with its one timing field removed, as sorted-key JSON; at 2
    # trials a generic check requires 1 generic draw
    out = _cli_stdout(["verify", "--suite", "moment", "--trials", "2", "--seed", "8"])
    report = json.loads(out)
    del report["wall_time_s"]
    assert _sha256(json.dumps(report, sort_keys=True)) == (
        "e0e9f62bb4bd5263d4bf956e80a54177b7f1f73afdf234b37c12a7dcde991b87"
    )


def _count_mat_muls(monkeypatch) -> list:
    """[the number of linalg.mat_mul calls from now on]."""
    calls, full = [0], linalg.mat_mul

    def counting(a, b):
        calls[0] += 1
        return full(a, b)

    monkeypatch.setattr(linalg, "mat_mul", counting)
    return calls


def test_momentum_maps_build_no_fraction_per_entry(count_calls, monkeypatch):
    # the momentum maps, a zero-level sample, reduced_point and `scorza
    # reduce` build no Fraction and make no QI matrix product (mat_mul);
    # the QI product of the same factors builds no Fraction either
    def fractions_built(fn) -> int:
        """The number of Fraction.__new__ calls made while fn() runs."""
        return count_calls(fn, lambda frame: frame.f_code is Fraction.__new__.__code__)[1]

    case = parse_case("ostar:6", 3)
    w = WElement(case, sample_zero_level(case, 5).alpha)  # keeps no mu_K: mu_K(w) forms it
    assert fractions_built(lambda: Fraction(1, 2)) == 1  # the counter sees a build
    products = _count_mat_muls(monkeypatch)
    built = fractions_built(lambda: (
        mu_K(w), mu_G(w), reduced_point(w), reduced_point(sample_zero_level(case, 6)),
        _cli_stdout(["reduce", "--case", "ostar:6", "--s", "3", "--seed", "11"]),
    ))
    assert built == 0 and products[0] == 0
    assert fractions_built(lambda: linalg.mat_mul(w.alpha, dagger(w))) == 0
    assert products[0] == 1


def _record_times(monkeypatch) -> list:
    """Record (a, b, result) of every `_times` product from now on."""
    formed, half = [], dp._times

    def recording(case, a, b):
        out = half(case, a, b)
        formed.append((a, b, out))
        return out

    monkeypatch.setattr(dp, "_times", recording)
    return formed


@pytest.mark.parametrize("sel", ["sp:3", "u:3,3", "ostar:2", "ostar:5", "ostar:6"])
def test_half_products_equal_full_chains(sel, monkeypatch):
    # Fact 3: each integer product `_times` forms, on the left block column
    # for ostar, equals the full QI product of its two operands; the
    # momentum maps, a zero-level sample and equivariance_check form every
    # product shape of the dual-pair layer
    formed = _record_times(monkeypatch)
    v = parse_case(sel, 1).v_size
    expected = set()
    for s in range(1, 5):
        case = parse_case(sel, s)
        n = case.s_size
        expected |= {
            ((n, v), (v, n)),  # dagger(a) a = -mu_K(a)
            ((v, n), (n, v)),  # a dagger(a) = mu_G(a)
            ((v, v), (v, n)), ((v, n), (n, n)),  # y a, then (y a) x^-1
            ((n, n), (n, n)),  # x (dagger(a) a), then its product by x^-1
            ((v, v), (v, v)),  # y mu_G(a), then its product by y^-1
        }
        for seed in range(3):
            w = random_w_element(case, seed)
            sample_zero_level(case, seed), mu_K(w), mu_G(w)
            rng = make_rng("t-half", sel, s, seed)
            assert equivariance_check(w, random_h_element(case, rng), random_g_element(case, rng))
    shapes = set()
    for (den_a, rows), (den_b, cols), out in formed:
        a, b = linalg.split_matrix(den_a, rows), linalg.split_matrix(den_b, linalg.split_transpose(cols))
        assert linalg.split_matrix(*out) == linalg.mat_mul(a, b)
        shapes.add((linalg.shape(a), linalg.shape(b)))
    assert shapes == expected


def _oracle_projection(case, x) -> StratumPoint:
    """The model point of X in g read off the blocks of X_p from
    cartan_split, on QI: the (P:, :P) block for u, A + i B (sp) or A - i B
    (ostar) for the first rows [A | B] of X_p otherwise."""
    _, x_p = cartan_split(x)
    n = case.params[0]
    if case.kind == "u":
        m = [row[:n] for row in x_p[n:]]
    else:
        k = 1 if case.kind == "sp" else 3
        m = [[a + b.times_unit(k) for a, b in zip(row[:n], row[n:])] for row in x_p[:n]]
    return StratumPoint(case.model(), m)


@pytest.mark.parametrize("sel", ["sp:1", "sp:3", "u:2,1", "u:3,3", "ostar:2", "ostar:6"])
def test_momentum_maps_equal_the_qi_chain_oracle(sel):
    # the integer products equal the full QI products over the dense alpha
    # and dagger = alpha^H J_V, and the integer projection equals the one
    # read off cartan_split, for random, zero-level and public elements
    rng = make_rng("t-qi-oracle", sel)
    for s in range(1, 5):
        case = parse_case(sel, s)
        j = case.j_v_matrix()
        for seed in range(3):
            sample = sample_zero_level(case, seed)
            elements = [random_w_element(case, seed), sample]
            elements += [WElement(case, w.alpha) for w in elements]
            for w in elements:
                alpha = w.alpha
                dag = linalg.mat_mul(linalg.conj_transpose(alpha), j)
                assert dagger(w) == dag
                assert mu_K(w) == linalg.mat_neg(linalg.mat_mul(dag, alpha))
                assert mu_G(w) == linalg.mat_mul(alpha, dag)
            for w in (sample, elements[3]):
                mu_g = linalg.mat_mul(w.alpha, dagger(w))
                assert reduced_point(w) == _oracle_projection(case, mu_g)
                mu_g_plane, point = dp.reduction(w)
                assert (linalg.split_matrix(*mu_g_plane), point) == (mu_g, reduced_point(w))
            x = random_lie_g(case, rng)
            assert cartan_project(x, case) == _oracle_projection(case, x)


# how many branches each generator draw picks from, for (G, H)
PICKS = {"sp": (3, 2), "u": (2, 3), "ostar": (3, 2)}


def _next_pick(rng, count) -> int:
    """The branch the next generator draw takes, read off a copy of rng: its
    first draw is randrange(3) for three branches, random() < 0.5 for two."""
    peek = random.Random()
    peek.setstate(rng.getstate())
    return peek.randrange(3) if count == 3 else int(peek.random() >= 0.5)


def _dense_action(action, cols) -> list:
    """The matrix of a sparse action (den, rows) with cols columns, or of a
    shear (V, W), I - V W, read off the representation alone."""
    head, tail = action
    if not isinstance(head, int):
        return linalg.mat_add(identity(cols), linalg.mat_neg(linalg.mat_mul(
            _dense_action(head, 2), _dense_action(tail, cols))))
    m = [[QI(0)] * cols for _ in tail]
    for row, terms in zip(m, tail):
        for c, a, b in terms:
            row[c] += QI.from_ints(a, b, head)
    return m


def _acts_as(action, dense, x) -> bool:
    """Whether the action on the plane of x equals the product dense @ x."""
    den, rows = dp._act(action, dp._plane(x))
    return ([[QI.from_ints(a, b, den) for a, b in zip(re, im)] for re, im in rows]
            == linalg.mat_mul(dense, x))


@pytest.mark.parametrize("sel", ALL_CASES)
def test_generator_actions_match_dense_oracle(sel):
    # every branch of both generators, at s = 1..3: the action's matrix lies
    # in the group, and acting on a plane equals the product by that matrix
    rng = make_rng("t-actions", sel)
    for s in (1, 2, 3):
        case = parse_case(sel, s)
        draws = ((dp._g_generator, case.v_size, in_group_g, PICKS[case.kind][0]),
                 (dp._h_generator, case.s_size, in_group_h, PICKS[case.kind][1]))
        for generator, n, in_group, count in draws:
            seen = set()
            while len(seen) < count:
                seen.add(_next_pick(rng, count))
                action = generator(case, rng)
                dense = _dense_action(action, n)
                assert in_group(case, dense)
                assert _acts_as(action, dense, random_qi_matrix(rng, n, 3, 7))


@pytest.mark.parametrize("sel", ALL_CASES)
def test_signed_permutations_match_dense_products(sel):
    # the constants of the case: G_V, J_V = -G_V, i I on K^s and, for
    # ostar, the structure maps on V and K^s; each signed permutation's
    # matrix is the public one and its action is the product by it
    rng = make_rng("t-signed-perm", sel)
    for s in (1, 2, 3):
        case = parse_case(sel, s)
        v, n = case.v_size, case.s_size
        consts = [(case.form_v(), case.form_v_matrix()),
                  ([(c, k ^ 2) for c, k in case.form_v()], case.j_v_matrix()),
                  ([(i, 1) for i in range(n)], linalg.mat_scale(identity(n), QI(0, 1)))]
        if case.kind == "ostar":
            consts += [(dp._omega(m // 2, -1), _structure(case, on_v))
                       for m, on_v in ((v, True), (n, False))]
        for entries, dense in consts:
            action = dp._units(entries)
            assert _dense_action(action, len(dense)) == dense
            for cols in (1, len(dense), 3):
                assert _acts_as(action, dense, random_qi_matrix(rng, len(dense), cols, 7))
    # and on signed permutations that are not involutions
    for n in (1, 3, 5):
        cols = list(range(n))
        rng.shuffle(cols)
        action = dp._units([(c, rng.randrange(4)) for c in cols])
        dense = _dense_action(action, n)
        assert sorted(c for row in dense for c, x in enumerate(row) if x) == list(range(n))
        assert all(x in (QI(1), QI(-1), QI(0, 1), QI(0, -1)) for row in dense for x in row if x)
        assert _acts_as(action, dense, random_qi_matrix(rng, n, n, 7))


def test_zero_level_and_group_draws_form_no_generator_matrix(monkeypatch, count_calls):
    # the generators act on the integer plane: a zero-level sample makes no
    # QI matrix product (1, its mu_K check, while alpha was a QI matrix; 2 +
    # 2 per shear drawn when the generators were dense) and calls nothing in
    # scalars, so it builds no QI; the random H and G elements make no product
    calls = _count_mat_muls(monkeypatch)
    in_scalars = lambda frame: frame.f_code.co_filename == scalars.__file__  # noqa: E731
    for sel in CASES:
        for s in (1, 4):
            case = parse_case(sel, s)
            for seed in range(3):
                assert count_calls(lambda: sample_zero_level(case, seed), in_scalars)[1] == 0
        rng = make_rng("t-no-dense", sel)
        for _ in range(4):
            random_h_element(parse_case(sel, 2), rng), random_g_element(parse_case(sel, 2), rng)
    assert calls[0] == 0


def _record_products(monkeypatch) -> list:
    """Record the operands of every `linalg.products` call from now on."""
    formed, kernel = [], linalg.products

    def recording(rows, cols):
        formed.append((rows, cols))
        return kernel(rows, cols)

    monkeypatch.setattr(linalg, "products", recording)
    return formed


def test_reduction_trial_forms_two_products(monkeypatch):
    # the zero-level sample keeps the mu_K it checked, so reduced_point
    # forms mu_G alone (3 products when it formed mu_K again); both are
    # integer products, and no QI product is formed
    formed, qi_products = _record_products(monkeypatch), _count_mat_muls(monkeypatch)
    rows = {row.name: row for row in verify.CHECKS["moment"]}
    for sel in CASES:
        formed.clear()
        assert rows[f"reduced_rank_bound_{sel}_s2"].run(1, 0).ok
        assert len(formed) == 2
    assert qi_products[0] == 0


def test_reduce_multiplies_half_the_columns(monkeypatch):
    # the result columns summed over every product one ostar reduce forms:
    # 20 for full products (the mu_K check 8, mu_G 12), 10 with the half
    # products; `products(C's columns, R's rows)` forms the rows of R @ C,
    # whose columns are its first operand
    formed, qi_products = _record_products(monkeypatch), _count_mat_muls(monkeypatch)
    _cli_stdout(["reduce", "--case", "ostar:6", "--s", "4", "--seed", "11"])
    assert sum(len(cols) for cols, _ in formed) == 20 // 2
    assert qi_products[0] == 0


@pytest.mark.parametrize("sel", CASES)
def test_group_side_checks_make_no_qi_product(sel, count_calls):
    # membership and equivariance multiply split rows: no call runs
    # linalg.mat_mul's code, on group elements, Lie elements and rejects
    in_mat_mul = lambda frame: frame.f_code is linalg.mat_mul.__code__  # noqa: E731
    assert count_calls(lambda: linalg.mat_mul(identity(2), identity(2)), in_mat_mul)[1] == 1
    for s in range(1, 5):
        case = parse_case(sel, s)
        rng = make_rng("t-no-qi-product", sel, s)
        w = random_w_element(case, derive_seed("t-no-qi-product", sel, s))
        x, y = random_h_element(case, rng), random_g_element(case, rng)
        lie_h, lie_g, bad = mu_K(w), random_lie_g(case, rng), linalg.mat_scale(y, QI(2))
        checks = [lambda: equivariance_check(w, x, y), lambda: in_group_h(case, x),
                  lambda: in_group_g(case, y), lambda: in_group_g(case, bad),
                  lambda: in_lie_h(case, lie_h), lambda: in_lie_g(case, lie_g),
                  lambda: in_lie_g(case, y)]
        for check in checks:
            assert count_calls(check, in_mat_mul)[1] == 0
        assert [check() for check in checks] == [True] * 3 + [False, True, True, False]
