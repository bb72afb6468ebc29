"""Golden outputs: identity sides and map outputs pinned byte for byte in
tests/golden/.

A swap golden file holds one positive case of an identity: the weight
decomposition of its class (`kclass_to_obj`) and the JSON form
(`series_to_dict`) of both sides, as `golden_text` writes them.  A
sum-map file holds the component and `poly_to_obj` of
`pushforward_substitute(tensor(...))` of one fixed case of
`SUM_MAP_CASES`, a translation file the `series_to_dict` of one fixed
`translate`, `translate_series` or `ktheory.mult_translate_series` of
`TRANSLATE_CASES`, a nesting file the `series_to_dict` of the nested
side that one checker run of `NESTING_CASES` builds with
`structures.nested_product`, and a normal-class file the `kclass_to_obj`
of one `NORMAL_CASES` normal class at depth 3.  A test that computes the
case compares its text with the file, so any change of output -- a term,
a coefficient, an order, a block bound -- shows.

A file is only rewritten on purpose, by writing the text of the case to
it, and the change that does so says why.  The sum-map, translation,
nesting and normal-class files are written by naming them:

    PYTHONPATH=src python tests/golden_outputs.py sum_map_unitary_2 ...
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from vertexalg import structures
from vertexalg.charclass import kclass_to_obj, normal_bundle, normal_bundle_module
from vertexalg.homology import (
    ComponentLabel,
    HomologyElement,
    pushforward_substitute,
    s_name,
    tensor,
    translate,
    translate_series,
)
from vertexalg.ktheory import mult_translate_series
from vertexalg.poly import Poly, poly_to_obj
from vertexalg.series import LocalizedSeries, TruncSeries, VarSet, series_to_dict

GOLDEN = Path(__file__).parent / "golden"


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def golden_text(E, lhs, rhs) -> str:
    obj = {
        "kclass": kclass_to_obj(E),
        "lhs": series_to_dict(lhs),
        "rhs": series_to_dict(rhs),
    }
    return dump(obj)


def assert_golden_text(name, text):
    expected = (GOLDEN / (name + ".json")).read_text()
    assert text == expected, "%s differs from its golden file" % name


def assert_golden(name, E, lhs, rhs):
    assert_golden_text(name, golden_text(E, lhs, rhs))


# -- fixed inputs of the sum map and of translation ---------------------------------


def _s(k):
    return Poly.variable(s_name(k))


def _class(model, rank, poly):
    return HomologyElement(ComponentLabel(model, (rank,)), poly)


def _unitary(rank, poly):
    return _class("BU_Z", rank, poly)


def _p1():
    return _s(1) ** 2 / 2 - 3 * _s(2) + 1


def _p2():
    return _s(1) * _s(3) + Fraction(2, 3) * _s(2) ** 2 - _s(1)


def _p3():
    return Fraction(-1, 4) * _s(3) + _s(1) * _s(2) ** 2 + 2 * _s(2)


def _module_poly():
    return _s(2) ** 2 - _s(4) / 3 + 2


SUM_MAP_CASES = {
    "sum_map_unitary_2": lambda: tensor(_unitary(1, _p1()), _unitary(2, _p2())),
    "sum_map_unitary_3": lambda: tensor(
        _unitary(0, _p3()), _unitary(1, _p1()), _unitary(2, _p2())
    ),
    "sum_map_orthogonal": lambda: tensor(
        _unitary(1, _p1()), _unitary(1, _p2()), module=_class("BO_Z", 3, _module_poly())
    ),
    "sum_map_orthogonal_single": lambda: tensor(module=_class("BO_Z", 3, _module_poly())),
    "sum_map_symplectic": lambda: tensor(
        _unitary(0, _p1()), _unitary(2, _p3()), module=_class("BSp_2Z", 2, _module_poly())
    ),
}


def _k_virtual_right():
    """The right side's translation along y in the multiplicative swap of
    the virtual class of tests/test_ktheory.py, at a = l^2, order 3."""
    import test_ktheory as tk

    _, _, _, inum = tk.k_swap_input(tk.VIRTUAL, tk.L ** 2, 3, 5)
    return mult_translate_series(inum, "y", "l", inum.order)


TRANSLATE_CASES = {
    "translate_unitary": lambda: translate(
        _unitary(2, _s(1) * _s(2) - _s(3) / 2 + 1), ["z"], 4
    ),
    "translate_unitary_product": lambda: translate(
        tensor(_unitary(1, _p1()), _unitary(2, _s(2) - Fraction(1, 3))), ["z", "w"], 4
    ),
    "translate_k_virtual_right": _k_virtual_right,
    "translate_series_shared": lambda: translate_series(
        TruncSeries(
            VarSet(("z", "w")),
            4,
            {(0, 0): _p1(), (1, 0): _s(2), (0, 1): _p2(), (1, 2): _s(1) - 1},
        ),
        ComponentLabel("BU_Z", (2,)),
        ["w"],
    ),
}


def _nested_side(check, *args):
    """The series of the first `nested_product` call that ``check(*args)``
    makes; the families and samples are those of tests/test_structures.py."""
    real = structures.nested_product
    seen = []

    def recording(*a):
        out = real(*a)
        seen.append(out.series)
        return out

    structures.nested_product = recording
    try:
        check(*args)
    finally:
        structures.nested_product = real
    return seen[0]


def _module_nesting(k, family=lambda ts: ts.MODULE):
    import test_structures as ts

    sample = ts.MODULE_NESTING_SAMPLES[k]
    return _nested_side(structures.check_module_nesting, family(ts), [sample], 3)


def _associativity():
    import test_structures as ts

    sample = ((ts.elem(1, ts.S1), ts.elem(1, Poly.const(1))), (ts.elem(1, ts.S1),))
    return _nested_side(structures.check_associativity, ts.FAMILY, [sample], 3)


NESTING_CASES = {
    "nested_module_0": lambda: _module_nesting(0),
    "nested_module_1": lambda: _module_nesting(1),
    "nested_module_poles": lambda: _module_nesting(
        0, lambda ts: ts.origin_pole_family(1)
    ),
    "nested_associativity": _associativity,
}


def _normal(build, model, index):
    n = len(index) if build is normal_bundle else len(index) - 1
    varset = VarSet(tuple("z%d" % i for i in range(1, n + 1)))
    return build(ComponentLabel(model, index), varset, 3)


NORMAL_CASES = {
    "normal_unitary_1_1": lambda: _normal(normal_bundle, "BU_Z", (1, 1)),
    "normal_unitary_2_m1": lambda: _normal(normal_bundle, "BU_Z", (2, -1)),
    "normal_unitary_1_1_1": lambda: _normal(normal_bundle, "BU_Z", (1, 1, 1)),
    "normal_orthogonal_2_2_3": lambda: _normal(normal_bundle_module, "BO_Z", (2, 2, 3)),
    "normal_symplectic_2_2_4": lambda: _normal(normal_bundle_module, "BSp_2Z", (2, 2, 4)),
    "normal_orthogonal_1_0": lambda: _normal(normal_bundle_module, "BO_Z", (1, 0)),
}


def sum_map_text(name) -> str:
    out = pushforward_substitute(SUM_MAP_CASES[name]())
    comp = out.component
    return dump({"component": [comp.model, list(comp.index)], "poly": poly_to_obj(out.poly)})


def translate_text(name) -> str:
    return dump(series_to_dict(LocalizedSeries(TRANSLATE_CASES[name]())))


def nesting_text(name) -> str:
    return dump(series_to_dict(NESTING_CASES[name]()))


def normal_text(name) -> str:
    return dump(kclass_to_obj(NORMAL_CASES[name]()))


def case_text(name) -> str:
    if name in NORMAL_CASES:
        return normal_text(name)
    if name in SUM_MAP_CASES:
        return sum_map_text(name)
    if name in NESTING_CASES:
        return nesting_text(name)
    return translate_text(name)


if __name__ == "__main__":
    for name in sys.argv[1:]:
        (GOLDEN / (name + ".json")).write_text(case_text(name))
