"""Transformed tensor low-rank methods for dynamic MRI reconstruction.

A numpy library built around three layers:

- dense 3-way complex tensors and a tensor-tensor product taken in a
  unitary transformed domain (:mod:`ttmri.tensor`, :mod:`ttmri.transforms`,
  :mod:`ttmri.tsvd`), including the tensor SVD, nuclear and spectral
  norms, and the singular value shrinkage prox;
- a Cartesian dynamic MRI forward model with mask generators, phantoms,
  and the SNR metric (:mod:`ttmri.mri`);
- ADMM solvers that reconstruct undersampled series by nuclear-norm
  shrinkage with closed-form data consistency (:mod:`ttmri.admm`).

File formats and the command-line interface live in :mod:`ttmri.fileio`
and :mod:`ttmri.cli`.
"""

__version__ = "0.1.0"

from .admm import (
    AdmmConfig,
    IterationParams,
    IterationStats,
    ReconReport,
    solve,
    solve_generalized,
    z_update,
)
from .errors import (
    DataFormatError,
    DimensionError,
    DivergenceError,
    NumericError,
    ParameterError,
    TtmriError,
    UnitarityError,
)
from .mri import (
    KSpaceVector,
    SamplingSpec,
    add_noise,
    adjoint,
    dc_index,
    forward,
    gen_pseudo_radial_mask,
    gen_vds_mask,
    make_phantom,
    snr,
    spatial_fft,
    spatial_ifft,
)
from .tensor import (
    ComplexTensor3,
    frobenius_norm,
    inner_product,
    new_tensor,
)
from .transforms import (
    UnitarityReport,
    UnitaryTransform,
    check_unitarity,
    make_transform,
)
from .tsvd import (
    MultirankVector,
    TtSvdFactors,
    identity_tensor,
    is_unitary_tensor,
    sum_rank,
    t_product,
    t_tsvt,
    tensor_hermitian_transpose,
    transformed_multirank,
    transformed_singular_values,
    transformed_spectral_norm,
    tt_svd,
    ttnn,
)

__all__ = [
    "__version__",
    # tensor
    "ComplexTensor3", "new_tensor", "frobenius_norm", "inner_product",
    # transforms
    "UnitaryTransform", "UnitarityReport", "make_transform", "check_unitarity",
    # tsvd
    "TtSvdFactors", "MultirankVector", "t_product", "tensor_hermitian_transpose",
    "identity_tensor", "is_unitary_tensor", "tt_svd", "transformed_singular_values",
    "transformed_multirank", "sum_rank", "ttnn", "transformed_spectral_norm", "t_tsvt",
    # mri
    "SamplingSpec", "KSpaceVector", "spatial_fft", "spatial_ifft", "forward",
    "adjoint", "gen_pseudo_radial_mask", "gen_vds_mask", "snr", "make_phantom",
    "add_noise", "dc_index",
    # admm
    "AdmmConfig", "IterationParams", "IterationStats", "ReconReport",
    "z_update",
    "solve", "solve_generalized",
    # errors
    "TtmriError", "DimensionError", "ParameterError", "UnitarityError",
    "NumericError", "DivergenceError", "DataFormatError",
]
