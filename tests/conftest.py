import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))


def shipped_models(*kinds):
    """Every model of the given kinds (finset, fincat, moncat) that the
    shipped .law files declare, once per name."""
    from lawkit import dsl, fixtures

    models = {}
    for path in fixtures.law_files():
        doc, _ = dsl.parse_file(path)
        for decl in doc.models:
            if decl.kind in kinds and decl.name not in models:
                models[decl.name] = (doc.finset_model(decl.name) if decl.kind == "finset"
                                     else doc.cat_model(decl.name))
    return list(models.values())
