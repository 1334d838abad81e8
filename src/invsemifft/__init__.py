"""Fast Fourier transforms and convolution on finite inverse semigroups."""

from .elements import PartialMapElement, compose, decode, encode, inverse_of
from .errors import (CapabilityError, ContractError, DomainError,
                     SizeCapError, StructureError)
from .families import FAMILIES, FamilySpec, build, predicted_size
from .fast_transforms import OpCounter, fast_mobius, fast_zeta
from .group_harmonics import (GroupRepSet, GroupSpectrum, group_ft,
                              group_ift, irreps_cyclic, irreps_symmetric,
                              irreps_wreath_abelian, validate_repset)
from .groups import GroupTable, cyclic_group, symmetric_group, wreath_group
from .semigroup_fourier import (ConjugatedRepSet, FourierCoefficients,
                                InducedRepSet, convolve_fft, convolve_naive,
                                default_irreps, fft, ifft, induce,
                                invert_equivalent_reps, invert_groupoid_local,
                                invert_semigroup_basis, invert_uniform,
                                naive_ft, steinberg_phi, steinberg_phi_inverse)
from .structure import (FunctionOnS, SemigroupStructure, mobius_naive,
                        zeta_naive)

__version__ = "0.1.0"
