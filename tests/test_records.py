"""The contract of the immutable records: fixed attributes, equality and
hashing over the compared fields, the constructors' checks, and reprs."""

from fractions import Fraction

import pytest

from temperkit.check import ScanPoint, ScanReport, Verdict
from temperkit.cones import Cell, enumerate_cells
from temperkit.generators import BlockPattern
from temperkit.matrices import MatrixPairInput
from temperkit.model import PairSpec, TorusSpace, WeightModule
from temperkit.verify import NonnegCertificate, Witness
from temperkit.volume import ConvexBody, DecayFit

F = Fraction
SPACE = TorusSpace(2, [[1, 1]])
MODULE = WeightModule(SPACE, [((1, -1), 2)])


def records():
    """One fixed instance of each record, with its repr."""
    point = ScanPoint(("H1", 1, 1), True, False, {})
    return [
        (PairSpec(MODULE, MODULE, metadata={"family": "x"}, built=True),
         "PairSpec(g_module=WeightModule(dim=2, weights=1), h_module="
         "WeightModule(dim=2, weights=1), v_module=None, metadata={'family': 'x'})"),
        (BlockPattern((2, 0, 1), ("full", "full", "identity"), {(0, 2)}),
         "BlockPattern(sizes=(2, 1), diagonal_kind=('full', 'identity'), "
         "upper_blocks=frozenset({(0, 1)}))"),
        (MatrixPairInput(1, ([[1]],), (), ([[F(1, 2)]],), [[1]], {"a": 1}),
         "MatrixPairInput(ambient_dim=1, g_basis=(((((0, 0), 1),), 1),), "
         "h_basis=(), torus_basis=(((((0, 0), 1),), 2),), "
         "diagonalizer=((((0, 0), 1),), 1), metadata={'a': 1})"),
        (Cell(rays=((1, 0), (0, 1))), "Cell(rays=((1, 0), (0, 1)))"),
        (enumerate_cells([(1, 0)], [(1, 0), (0, 1)]),
         "CellComplex(rays=[(1, 0), (-1, 0)], lineality=[(0, 1)])"),
        (NonnegCertificate(((1, 0),), (F(1, 2),), True, 3),
         "NonnegCertificate(rays=((1, 0),), ray_values=(Fraction(1, 2),), "
         "symmetry_reduced=True, chamber_count=3)"),
        (Witness((F(1, 2), 0), F(-2)),
         "Witness(direction=(Fraction(1, 2), 0), value=Fraction(-2, 1))"),
        (Verdict(Witness((1,), F(-1)), {"hyperplanes": 1}),
         "Verdict(tempered=False, evidence=Witness(direction=(1,), "
         "value=Fraction(-1, 1)), deficit_summary={'hyperplanes': 1})"),
        (point, "ScanPoint(params=('H1', 1, 1), tempered=True, predicted=False, "
                "summary={})"),
        (ScanReport("table1", {"pmax": 1}, (point,), ()),
         "ScanReport(family='table1', ranges={'pmax': 1}, points=(ScanPoint("
         "params=('H1', 1, 1), tempered=True, predicted=False, summary={}),), "
         "mismatches=())"),
        (ConvexBody.box(2, 1.5),
         "ConvexBody(kind='box', dimension=2, halfwidths=(1.5, 1.5), "
         "radius=None, vertices=None)"),
        (DecayFit((1.0,), (-1.0,), (0.1,), -1.0, -1.0, 0.1, True),
         "DecayFit(times=(1.0,), log_volumes=(-1.0,), stderrs=(0.1,), "
         "fitted_slope=-1.0, predicted_slope=-1.0, tolerance=0.1, passed=True, "
         "dropped_times=())"),
    ]


@pytest.mark.parametrize("record, text", records(),
                         ids=[type(r).__name__ for r, _ in records()])
def test_repr(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", [r for r, _ in records()],
                         ids=[type(r).__name__ for r, _ in records()])
def test_attributes_are_fixed(record):
    for name in record.__slots__:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", [r for r, _ in records()],
                         ids=[type(r).__name__ for r, _ in records()])
def test_hashable(record):
    if type(record).__name__ in ("BlockPattern", "NonnegCertificate", "Witness",
                                 "ConvexBody", "DecayFit"):
        assert isinstance(hash(record), int)
    else:   # unhashable, or holding a dict or a module
        with pytest.raises(TypeError):
            hash(record)


def test_uncompared_fields():
    cert = NonnegCertificate(((1, 0),), (F(1, 2),), True, 3)
    recount = NonnegCertificate(((1, 0),), (F(1, 2),), True, 8)
    assert cert == recount and hash(cert) == hash(recount)
    assert cert != NonnegCertificate(((1, 0),), (F(1, 2),), False, 3)
    spec = PairSpec(MODULE, MODULE, metadata={"family": "x"}, built=True)
    assert spec == PairSpec(MODULE, MODULE, metadata={"family": "x"})
    assert spec != PairSpec(MODULE, MODULE)
    # records of different classes are never equal
    assert Witness((1,), F(-1)) != Cell(rays=((1,), F(-1)))


@pytest.mark.parametrize("shape, name", [
    (dict(g_basis=([[1, 0]],)), "g_basis"),
    (dict(h_basis=([[1, 0], [0]],)), "h_basis"),
    (dict(torus_basis=([[1, 0], [0, 1], [0, 0]],)), "torus_basis"),
    (dict(diagonalizer=[[1, 0]]), "diagonalizer"),
    (dict(diagonalizer=[[1], [0]]), "diagonalizer"),
], ids=["g_rows", "h_row_length", "torus_rows", "diagonalizer_rows",
        "diagonalizer_row_length"])
def test_matrix_input_shape(shape, name):
    given = dict(ambient_dim=2, g_basis=(), h_basis=(), torus_basis=(),
                 diagonalizer=[[1, 0], [0, 1]])
    MatrixPairInput(**given)
    with pytest.raises(ValueError, match=name):
        MatrixPairInput(**{**given, **shape})
