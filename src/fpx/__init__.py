"""Fixed-point-iteration network layers with Jacobian-free implicit gradients."""

import os as _os

# Cap BLAS threads before numpy loads; kernels themselves are single-threaded.
_threads = _os.environ.get("FPX_THREADS")
if _threads:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)

from .tensor import NumericsError, ShapeError, Tensor
from .graph import (
    FunctionObject,
    Graph,
    GraphError,
    Node,
    NonDifferentiableError,
    backward,
    partial_diff,
    vjp,
)
from .layers import (
    ConvG,
    EnergyNet,
    GdG,
    GModule,
    MlpG,
    Parameters,
    init_small,
    lipschitz_project,
    load_parameters,
    save_parameters,
)
from .fpi import (
    BackwardFpiResult,
    ConditioningError,
    Criterion,
    DivergenceError,
    FixedPointResult,
    FpiConfig,
    backward_fpi,
    closed_form_gradient,
    convergence_check,
    forward_fpi,
    fpi_layer,
    spectral_norm_jacobian,
    unrolled_gradient,
)

__version__ = "0.1.0"
