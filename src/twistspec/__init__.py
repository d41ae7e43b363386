"""twistspec: twisted conjugacy classes, Reidemeister numbers and spectra
for finite permutation groups, with a small-group catalog and a survey CLI."""

__version__ = "0.1.0"

from .errors import (BudgetExceeded, DefinitionError, MethodDisagreement,
                     NotAHomomorphism, OrderCapExceeded, TwistspecError)
from .perm import Permutation
from .group import (DEFAULT_ORDER_CAP, ClassPartition, FiniteGroup,
                    Subgroup, closure)
from .morphism import (DEFAULT_PRODUCT_BUDGET, Morphism,
                       enumerate_automorphisms, enumerate_endomorphisms,
                       identity_morphism, inner_automorphism,
                       morphism_from_images)
from .twisted import (ClassMap, TwistedPartition, induced_class_map,
                      reduction_check, reidemeister_number, twisted_classes)
from .spectra import (FLAG_NAMES, BatteryCheck, SpectrumReport, classify,
                      extended_spectrum, spectrum, theorem_battery)
from . import catalog

__all__ = [
    "__version__",
    "TwistspecError", "OrderCapExceeded", "BudgetExceeded",
    "NotAHomomorphism", "MethodDisagreement", "DefinitionError",
    "Permutation",
    "FiniteGroup", "Subgroup", "ClassPartition", "closure",
    "DEFAULT_ORDER_CAP", "DEFAULT_PRODUCT_BUDGET",
    "Morphism", "morphism_from_images", "identity_morphism",
    "inner_automorphism", "enumerate_endomorphisms",
    "enumerate_automorphisms",
    "TwistedPartition", "ClassMap", "twisted_classes", "induced_class_map",
    "reidemeister_number", "reduction_check",
    "SpectrumReport", "BatteryCheck", "FLAG_NAMES", "spectrum",
    "extended_spectrum", "classify", "theorem_battery",
    "catalog",
]
