"""The one way in: every input type copies its numbers into owned, read-only
float fields and rejects a non-finite entry by name."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import hamlv
from hamlv import util
from hamlv.averaging import AveragedState, CoefficientPath, SlowEnvironment
from hamlv.canonical import CanonicalState
from hamlv.model import InteractionSystem
from hamlv.resonance import TwoStarSystem
from hamlv.star import PotentialTerms, StarSystem

UNIT = StarSystem(a=[1.0], b=[1.0], rbar=1.0)
PAIR = StarSystem(a=[1.0, 2.0], b=[1.0, 0.5], rbar=2.0)

# every numeric field set, lists for the arrays and floats for the scalars
INPUTS = {
    InteractionSystem: dict(r=[1.0, 2.0], rbar=[1.0], A=[[1.0], [2.0]],
                            B=[[1.0, 0.5]], Gamma=[[0.1, 0.0], [0.0, 0.2]],
                            D=[[0.3]]),
    StarSystem: dict(a=[1.0, 2.0], b=[1.0, 0.5], rbar=2.0, mu=1.5,
                     C=[1.0, 3.0], r=[1.0, 2.5]),
    PotentialTerms: dict(c=[1.0, -0.5], a=[1.0, -2.0], slope=0.5),
    CanonicalState: dict(q=[0.1], p=[0.2], C=[1.0, 3.0]),
    SlowEnvironment: dict(a=CoefficientPath.constant([1.0, 2.0]),
                          b=CoefficientPath.constant([1.0, 0.5]),
                          rbar=CoefficientPath.constant(2.0), mu=1.5,
                          epsilon=0.01, dbar=0.5, beta=0.1,
                          gamma_hat=[0.1, 0.2], gamma=[0.3, 0.4]),
    AveragedState: dict(tau=0.5, E=3.0, Cbar=[1.0, 3.0]),
    TwoStarSystem: dict(star1=UNIT, star2=PAIR, atilde1=[0.1],
                        atilde2=[0.2, 0.3], btilde1=[0.4, 0.5],
                        btilde2=[0.6], kappa=0.01, epsilon=0.001, d1=0.5,
                        d2=0.7),
}
TYPES = list(INPUTS)


def numeric(kwargs):
    """The names of the array fields and of the scalar fields."""
    return ([k for k, v in kwargs.items() if isinstance(v, list)],
            [k for k, v in kwargs.items() if isinstance(v, float)])


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestOneWayIn:
    def test_caller_arrays_are_copied_not_frozen(self, cls):
        arrays, scalars = numeric(INPUTS[cls])
        given = {k: np.array(INPUTS[cls][k]) for k in arrays + scalars}
        obj = cls(**{**INPUTS[cls], **given})
        for name, value in given.items():
            assert value.flags.writeable, name
            value[...] = 7.0
            np.testing.assert_array_equal(getattr(obj, name),
                                          INPUTS[cls][name], err_msg=name)

    def test_fields_are_read_only_floats(self, cls):
        arrays, scalars = numeric(INPUTS[cls])
        obj = cls(**{**INPUTS[cls],
                     **{k: np.float32(INPUTS[cls][k]) for k in scalars}})
        for name in arrays:
            field = getattr(obj, name)
            assert field.dtype == np.float64, name
            assert not field.flags.writeable, name
        for name in scalars:
            assert type(getattr(obj, name)) is float, name
            assert getattr(obj, name) == np.float32(INPUTS[cls][name])


@pytest.mark.parametrize("cls, name", [
    (cls, name) for cls in TYPES for group in numeric(INPUTS[cls])
    for name in group], ids=lambda v: getattr(v, "__name__", v))
def test_nan_names_the_field(cls, name):
    bad = np.array(INPUTS[cls][name])
    bad.flat[0] = math.nan
    with pytest.raises(ValueError, match=f"^{name} contains non-finite"):
        cls(**{**INPUTS[cls], name: bad})


@pytest.mark.parametrize("cls, name", [
    (cls, name) for cls in TYPES for name in numeric(INPUTS[cls])[1]],
    ids=lambda v: getattr(v, "__name__", v))
def test_array_in_a_scalar_field_names_the_field(cls, name):
    with pytest.raises(ValueError, match=f"^{name} must be a number"):
        cls(**{**INPUTS[cls], name: [INPUTS[cls][name]]})


def test_only_the_helper_sets_fields():
    # object.__setattr__ in a __post_init__ would bypass the one way in;
    # NetworkTopology.edges is a frozenset, not a number
    setters = []
    for path in Path(hamlv.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "__post_init__"):
                setters += [path.name for call in ast.walk(node)
                            if isinstance(call, ast.Attribute)
                            and call.attr == "__setattr__"]
    assert setters == ["model.py"]
    assert not hasattr(util, "require_finite")
