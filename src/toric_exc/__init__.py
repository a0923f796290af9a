"""Machine verification of full strongly exceptional collections of line
bundles on smooth toric Fano 3-folds.

The package computes Frobenius pushforward splittings (Thomsen's
algorithm), acyclicity and section vanishing through the Borisov-Hua
forbidden-set criterion with a direct cohomology oracle as cross-check,
and Koszul-complex fullness certificates, over a catalog of all eighteen
smooth toric Fano 3-folds.
"""

from .catalog import (FanoRecord, catalog_names, format_fan_file, get_record,
                      load_catalog, parse_fan_file, validate_catalog)
from .cohomology import (CohomologyTable, ForbiddenSetReport, cohomology_table, forbidden_sets,
                         has_nonzero_global_sections, is_acyclic, reduced_homology_ranks)
from .errors import (BoxTooLarge, BoxUnstable, InteriorCoverFailure, NotABasis,
                     NotPrimitive, NotStabilized, NotUnimodular, RayNotCovered,
                     TermOutsideCollection, TooManyRays, TooManyResidues, ToricExcError,
                     TorsionInPicard)
from .exceptional import (FullnessCertificate, KoszulCertified, KoszulReduction,
                          NotCertified, OrderedCollection, SummandSetMatchesK0Rank,
                          VerificationReport, describe_certificate, fullness_certificate,
                          koszul_reduction_certificate, verify_strongly_exceptional)
from .fan import (Fan, FanValidation, PrimitiveRelation, is_fano,
                  primitive_collections, primitive_relations, validate_fan)
from .frobenius import FrobeniusDecomposition, bondal_summands, decompose, first_chern_sum, stable_summands
from .lattice import IntMatrix, SNFResult, determinant, rank, smith_normal_form
from .picard import (PicContext, anticanonical_divisor, build_pic_context, canonical_divisor,
                     class_label, class_to_divisor, divisor_label, pairing_matrix, to_class)

__version__ = "0.1.0"
