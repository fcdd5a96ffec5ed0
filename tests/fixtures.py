"""Shipped example theories, exchange-cell tables, and probe models.

Every fixture is elaborated by ``lawkit.dsl``: from the ``.law`` files that
ship with the package under ``lawkit/fixtures/law/``, or from the short DSL
text below for the one-dimensional theories no ``.law`` file declares.
Lookups go by the names those blocks declare, e.g. ``theory("t_comm_flat")``,
``sigma("sigma_braid")``, ``model("poset_meet")``.
"""

from functools import cache
from pathlib import Path

from lawkit import dsl
from lawkit.catmodels import CatModel
from lawkit.cells import SigmaTable
from lawkit.theory import TheoryPresentation, TwoTheoryPresentation

_LAW_DIR = Path(dsl.__file__).parent / "fixtures" / "law"

_ONE_DIMENSIONAL = """
theory t_pointed { op u : 0 -> 1; }
theory t_inv_1d { op inv : 1 -> 1; eq invol : inv(inv(x1)) = x1; }
theory t_semiring {
  op add : 2 -> 1;
  op zero : 0 -> 1;
  op mul : 2 -> 1;
  op one : 0 -> 1;
  eq add_assoc : add(add(x1,x2),x3) = add(x1,add(x2,x3));
  eq add_comm : add(x2,x1) = add(x1,x2);
  eq add_zero_l : add(zero,x1) = x1;
  eq add_zero_r : add(x1,zero) = x1;
  eq mul_assoc : mul(mul(x1,x2),x3) = mul(x1,mul(x2,x3));
  eq mul_comm : mul(x2,x1) = mul(x1,x2);
  eq mul_one_l : mul(one,x1) = x1;
  eq mul_one_r : mul(x1,one) = x1;
  eq annihil_l : mul(zero,x1) = zero;
  eq annihil_r : mul(x1,zero) = zero;
  eq distrib : add(mul(x1,x2),mul(x1,x3)) = mul(x1,add(x2,x3));
}
"""


def law_path(name: str) -> Path:
    """Filesystem path of a shipped .law fixture file."""
    path = _LAW_DIR / name
    if not path.exists():
        raise FileNotFoundError(f"no shipped fixture named {name}")
    return path


def law_files() -> list[Path]:
    return sorted(_LAW_DIR.glob("*.law"))


@cache
def _law_documents() -> dict[str, dsl.Document]:
    docs = {}
    for path in law_files():
        doc, src = dsl.parse_file(path)
        if doc is None:
            raise ValueError(f"{path.name}:{src.diagnostics[0]}")
        docs[path.name] = doc
    return docs


def parse(text: str) -> dsl.Document:
    """Elaborate DSL text; an ``import`` names a shipped .law file."""
    doc, src = dsl.parse(text, loader=lambda name: _law_documents()[name])
    if doc is None:
        raise ValueError(str(src.diagnostics[0]))
    return doc


@cache
def _index() -> tuple[dict, dict, dict]:
    theories: dict[str, TwoTheoryPresentation] = {}
    sigmas: dict[str, SigmaTable] = {}
    models: dict[str, dsl.Document] = {}
    # A file's blocks reappear in every document that imports it; the copies
    # are equal, so the first one wins.
    for doc in (*_law_documents().values(), parse(_ONE_DIMENSIONAL)):
        for t in doc.theories:
            theories.setdefault(t.base.name, t)
        for _, s in doc.sigmas:
            sigmas.setdefault(s.name, s)
        for m in doc.models:
            models.setdefault(m.name, doc)
    return theories, sigmas, models


def theory(name: str) -> TwoTheoryPresentation:
    """A shipped theory; ``.base`` is its one-dimensional presentation."""
    return _index()[0][name]


def sigma(name: str) -> SigmaTable:
    return _index()[1][name]


@cache
def model(name: str) -> CatModel:
    """A shipped model in finite categories."""
    return _index()[2][name].cat_model(name)


def monoid_theory(name: str, size: int, table, unit: int) -> TheoryPresentation:
    """The theory of actions of an explicitly tabulated monoid."""
    ops = "".join(f"op r{i} : 1 -> 1; " for i in range(size))
    eqs = "".join(f"eq comp_{i}_{j} : r{i}(r{j}(x1)) = r{table[i][j]}(x1); "
                  for i in range(size) for j in range(size))
    text = f"theory {name} {{ {ops}{eqs}eq unit_act : r{unit}(x1) = x1; }}"
    return parse(text).theory(name).base


def shipped_models(*kinds):
    """Every model of the given kinds (finset, fincat, moncat) that the
    shipped .law files declare, once per name."""
    models = {}
    for doc in _law_documents().values():
        for decl in doc.models:
            if decl.kind in kinds and decl.name not in models:
                models[decl.name] = (doc.finset_model(decl.name) if decl.kind == "finset"
                                     else doc.cat_model(decl.name))
    return list(models.values())
