"""twistspec: twisted conjugacy classes, Reidemeister numbers and spectra
for finite permutation groups, with a small-group catalog and a survey CLI."""

__version__ = "0.1.0"

from .errors import (BudgetExceeded, DefinitionError, NotAHomomorphism,
                     OrderCapExceeded, TwistspecError)
from .perm import Permutation
from .group import (DEFAULT_ORDER_CAP, ClassPartition, FiniteGroup,
                    Subgroup, closure)
from .morphism import (DEFAULT_PRODUCT_BUDGET, Morphism, inner_automorphism,
                       morphism_from_images, weighted_sweep)
from .twisted import (induced_class_map, reduction_check,
                      reidemeister_number, twisted_classes)
from .spectra import (FLAG_NAMES, BatteryCheck, SpectrumReport, classify,
                      extended_spectrum, spectrum, theorem_battery)
from . import catalog

__all__ = [
    "__version__",
    "TwistspecError", "OrderCapExceeded", "BudgetExceeded",
    "NotAHomomorphism", "DefinitionError",
    "Permutation",
    "FiniteGroup", "Subgroup", "ClassPartition", "closure",
    "DEFAULT_ORDER_CAP", "DEFAULT_PRODUCT_BUDGET",
    "Morphism", "morphism_from_images", "inner_automorphism",
    "weighted_sweep",
    "twisted_classes", "induced_class_map",
    "reidemeister_number", "reduction_check",
    "SpectrumReport", "BatteryCheck", "FLAG_NAMES", "spectrum",
    "extended_spectrum", "classify", "theorem_battery",
    "catalog",
]
