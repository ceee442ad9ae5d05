"""Static classification catalog.

Two tables, both generated from closed formulas and frozen into golden
JSON files: the five Scorza families per index k (plus the exceptional
16-dimensional row at k = 2), and the simple hermitian Lie algebras by
real rank with their regularity and p-space matrix models. The catalog is
pure data; no root-system computation happens here.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from importlib import resources

from .errors import InputError


@dataclass(frozen=True)
class ScorzaEntry:
    label: str
    k: int
    dim_x: int
    ambient_m: int
    delta: int
    k0: int
    regular: bool
    embedding: str
    p_model: str  # selector of the strata model realizing the family


@dataclass(frozen=True)
class HermitianAlgebraEntry:
    name: str
    rank: int
    regular: bool
    p_model: str  # selector, or "none" when outside the four matrix models
    kc: str  # complexified maximal-compact action, when one of the four models
    dim_p: int | None  # complex dimension of p; None for parametric families
    family: bool  # True when the row stands for a one-parameter family
    note: str = ""


def catalog_scorza(k: int, regular_only: bool = False) -> list[ScorzaEntry]:
    """The Scorza families at index k, exceptional row included iff k = 2;
    with regular_only, the regular rows only."""
    if not isinstance(k, int) or k < 2:
        raise InputError("Scorza index k must be an integer >= 2")

    def entry(label, dim_x, m, delta, regular, embedding, p_model):
        return ScorzaEntry(
            label=label,
            k=k,
            dim_x=dim_x,
            ambient_m=m,
            delta=delta,
            k0=dim_x // delta,
            regular=regular,
            embedding=embedding,
            p_model=p_model,
        )

    entries = [
        entry(f"(1.1.{k})", k, k * (k + 3) // 2, 1, True, "Veronese", f"sym:{k + 1}"),
        entry(
            f"(1.2.{k}.r)", 2 * k, k * (k + 2), 2, True, "Segre",
            f"mat:{k + 1},{k + 1}",
        ),
        entry(
            f"(1.2.{k}.n)", 2 * k + 1, k * k + 3 * k + 1, 2, False, "Segre",
            f"mat:{k + 1},{k + 2}",
        ),
        entry(
            f"(1.3.{k}.r)", 4 * k, k * (2 * k + 3), 4, True, "Pluecker",
            f"skew:{2 * k + 2}",
        ),
        entry(
            f"(1.3.{k}.n)", 4 * k + 2, 2 * k * k + 5 * k + 2, 4, False, "Pluecker",
            f"skew:{2 * k + 3}",
        ),
    ]
    if k == 2:
        entries.append(entry("(1.4)", 16, 26, 8, True, "exceptional", "exc27"))
    if regular_only:
        entries = [e for e in entries if e.regular]
    return entries


def severi_check(entry: ScorzaEntry) -> bool:
    """The critical relation m = (3/2) dim + 2, on regular k = 2 rows only."""
    if not entry.regular or entry.k != 2:
        raise InputError("severi_check applies to regular k = 2 entries")
    return Fraction(3, 2) * entry.dim_x + 2 == entry.ambient_m


def list_hermitian(r: int, regular_only: bool = False) -> list[HermitianAlgebraEntry]:
    """Simple hermitian Lie algebras of real rank r, as classified."""
    if not isinstance(r, int) or r < 1:
        raise InputError("rank r must be an integer >= 1")
    entries: list[HermitianAlgebraEntry] = []

    def sp_entry(n):
        return HermitianAlgebraEntry(
            name=f"sp({n},R)", rank=n, regular=True, p_model=f"sym:{n}",
            kc="GL(n,C) acting by g.S = g S g^t", dim_p=n * (n + 1) // 2,
            family=False,
        )

    def su_rr_entry(n):
        return HermitianAlgebraEntry(
            name=f"su({n},{n})", rank=n, regular=True, p_model=f"mat:{n},{n}",
            kc="GL(q,C) x GL(p,C) acting by (g,h).M = g M h^t",
            dim_p=n * n, family=False,
        )

    def so_star_entry(n, regular):
        return HermitianAlgebraEntry(
            name=f"so*({2 * n})", rank=n // 2, regular=regular,
            p_model=f"skew:{n}", kc="GL(n,C) acting by g.A = g A g^t",
            dim_p=n * (n - 1) // 2, family=False,
        )

    if r == 1:
        entries.append(
            HermitianAlgebraEntry(
                name="sp(1,R)", rank=1, regular=True, p_model="sym:1",
                kc="GL(1,C)", dim_p=1, family=False,
                note="isomorphic to su(1,1) and so(2,1)",
            )
        )
        entries.append(
            HermitianAlgebraEntry(
                name="so*(4)", rank=1, regular=True, p_model="skew:2",
                kc="GL(2,C)", dim_p=1, family=False,
            )
        )
    elif r == 2:
        entries.append(
            HermitianAlgebraEntry(
                name="so(p,2)", rank=2, regular=True, p_model="none",
                kc="", dim_p=None, family=True,
                note="p >= 3; includes sp(2,R) = so(3,2), su(2,2) = so(4,2), "
                "so*(8) = so(6,2)",
            )
        )
        entries.append(
            HermitianAlgebraEntry(
                name="su(p,2)", rank=2, regular=False, p_model="mat:2,p",
                kc="GL(2,C) x GL(p,C)", dim_p=None, family=True, note="p > 2",
            )
        )
        entries.append(so_star_entry(5, regular=False))
        entries.append(
            HermitianAlgebraEntry(
                name="e6(-14)", rank=2, regular=False, p_model="none",
                kc="", dim_p=16, family=False,
                note="p+ is the half-spin 16; outside the four matrix models",
            )
        )
    else:
        entries.append(sp_entry(r))
        entries.append(su_rr_entry(r))
        entries.append(so_star_entry(2 * r, regular=True))
        if r == 3:
            entries.append(
                HermitianAlgebraEntry(
                    name="e7(-25)", rank=3, regular=True, p_model="exc27",
                    kc="E6(C) x C*", dim_p=27, family=False,
                )
            )
        entries.append(
            HermitianAlgebraEntry(
                name=f"su(p,{r})", rank=r, regular=False, p_model=f"mat:{r},p",
                kc="GL(q,C) x GL(p,C)", dim_p=None, family=True, note=f"p > {r}",
            )
        )
        entries.append(so_star_entry(2 * r + 1, regular=False))
    if regular_only:
        entries = [e for e in entries if e.regular]
    return entries


# --- rendering and golden files ----------------------------------------------

def scorza_json_obj(k: int, regular_only: bool = False) -> dict:
    return {
        "kind": "scorza",
        "k": k,
        "regular_only": regular_only,
        "entries": [asdict(e) for e in catalog_scorza(k, regular_only)],
    }


def hermitian_json_obj(r: int, regular_only: bool = False) -> dict:
    return {
        "kind": "hermitian",
        "rank": r,
        "regular_only": regular_only,
        "entries": [asdict(e) for e in list_hermitian(r, regular_only)],
    }


def golden_text(name: str) -> str:
    """Contents of a frozen golden catalog file shipped with the package."""
    return (
        resources.files("scorza").joinpath(f"data/catalog/{name}").read_text("utf-8")
    )


def golden_objects() -> dict:
    """Each golden file name -> the JSON object frozen in it."""
    scorza = {f"scorza_k{k}.json": scorza_json_obj(k) for k in range(2, 7)}
    return scorza | {f"hermitian_r{r}.json": hermitian_json_obj(r) for r in range(1, 7)}
