"""Golden outputs: identity sides pinned byte for byte in tests/golden/.

A golden file holds one positive case of an identity: the weight
decomposition of its class (`kclass_to_obj`) and the JSON form
(`series_to_dict`) of both sides, as `golden_text` writes them.  A test
that computes the case compares its text with the file, so any change of
output -- a term, a coefficient, an order, a block bound -- shows.

A file is only rewritten on purpose, by writing `golden_text` of the case
to it, and the change that does so says why.
"""

import json
from pathlib import Path

from vertexalg.charclass import kclass_to_obj
from vertexalg.series import series_to_dict

GOLDEN = Path(__file__).parent / "golden"


def golden_text(E, lhs, rhs) -> str:
    obj = {
        "kclass": kclass_to_obj(E),
        "lhs": series_to_dict(lhs),
        "rhs": series_to_dict(rhs),
    }
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def assert_golden(name, E, lhs, rhs):
    expected = (GOLDEN / (name + ".json")).read_text()
    assert golden_text(E, lhs, rhs) == expected, "%s differs from its golden file" % name
