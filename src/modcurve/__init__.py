"""Arithmetic-geometric invariants of intermediate modular curves.

The package computes, for the curves X_Delta(N) attached to subgroups
{+-1} <= Delta <= (Z/NZ)*:

* divisors, Euler's phi, Hall divisors, the units of Z/NZ and the labeled
  subgroups Delta, each defined once (:mod:`modcurve.zmodn`);
* coset actions, genus, and cusps with their fields of definition
  (:mod:`modcurve.congruence`);
* Atkin-Lehner operators, their lifts, and automorphism orders
  (:mod:`modcurve.atkinlehner`);
* fixed points of involutions through binary quadratic forms
  (:mod:`modcurve.qforms`);
* a rule-based classifier for the bielliptic/hyperelliptic census with
  verifiable witnesses and elimination evidence (:mod:`modcurve.classify`).

The command-line interface lives in :mod:`modcurve.cli` (``python -m
modcurve`` or the ``modcurve`` script).

The unit-group record and its constructor gave way to ``units(N)``, and the
field degree of the lifts of W_N to ``DeltaSubgroup.index`` (see README).
"""

from __future__ import annotations

import os

# The package's numpy work is integer array arithmetic, which never calls
# BLAS.  OpenBLAS, if numpy is built on it, still starts a worker thread
# when numpy is imported, and that thread busy-waits for tens of
# milliseconds, into whatever the process does next: the CPU time of a
# short query grew by up to 40% from one run to the next.  One BLAS thread
# starts no worker.  A value the caller has set is kept, and a numpy
# imported before this package has already started its threads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .errors import (
    InputError,
    InvariantError,
    ModcurveError,
    SearchExhausted,
    UnknownDelta,
)
from .zmodn import (
    DeltaSubgroup,
    delta_by_label,
    delta_from_elements,
    subgroups_containing_minus1,
    units,
)
from .matrices import IDENTITY, Mat2
from .congruence import (
    CuspClass,
    CuspTable,
    coset_action,
    cusp_field,
    cusp_table,
    cusps,
    degree,
    genus,
)
from .qforms import (
    FixedPoint,
    FixedPointSet,
    GKZClass,
    QForm,
    fixed_points_X0,
    gkz_decompose,
    reduce_form,
)
from .atkinlehner import (
    automorphism_order,
    descends,
    diamond_matrix,
    hat_W,
    normalizes,
)
from .facts import FactBook
from .classify import (
    ClassificationRecord,
    Classifier,
    Evidence,
    LiftReport,
    Witness,
    census,
    classify_curve,
    coset_fixed_points,
    curve_name,
    cuspidal_fixed_count,
    lift_fixed_points,
)

__all__ = [
    "__version__",
    # errors
    "ModcurveError",
    "InputError",
    "InvariantError",
    "UnknownDelta",
    "SearchExhausted",
    # unit groups and subgroups
    "units",
    "DeltaSubgroup",
    "subgroups_containing_minus1",
    "delta_by_label",
    "delta_from_elements",
    # matrices
    "Mat2",
    "IDENTITY",
    # congruence-subgroup geometry
    "coset_action",
    "degree",
    "genus",
    "cusps",
    "cusp_table",
    "cusp_field",
    "CuspClass",
    "CuspTable",
    # quadratic forms
    "QForm",
    "reduce_form",
    "GKZClass",
    "gkz_decompose",
    "FixedPoint",
    "FixedPointSet",
    "fixed_points_X0",
    # Atkin-Lehner machinery
    "diamond_matrix",
    "descends",
    "hat_W",
    "normalizes",
    "automorphism_order",
    # facts
    "FactBook",
    # classification
    "Classifier",
    "ClassificationRecord",
    "Witness",
    "Evidence",
    "LiftReport",
    "classify_curve",
    "census",
    "curve_name",
    "lift_fixed_points",
    "coset_fixed_points",
    "cuspidal_fixed_count",
]
