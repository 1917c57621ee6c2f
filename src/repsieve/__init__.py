"""Desk-scale toolkit for checking representations of finite structures.

The package is organised bottom-up:

- ``finstruct``: finite structures, quantifier-free types, orbit and
  back-and-forth type oracles, partial automorphisms.
- ``termalg``: depth-bounded deduplicated term algebras over a finite base.
- ``enrich``: layered enrichments (level partition + regressive unary maps).
- ``represent``: the two representation checkers (direct and via partial
  automorphisms).
- ``sunflower``: finite delta-system certificates with an independent
  validator.
- ``sieve``: the staged extraction of indiscernible-ready tuple families,
  witness automorphisms, and the instability probe.
- ``theories``: the small theory catalog, independence oracles, layered
  decompositions, and the two representation builders.
- ``workspace`` / ``cli``: JSON workspace documents and the command line.
"""

from repsieve.finstruct import (
    FiniteStructure,
    PartialAutomorphism,
    qf_closure,
    qf_type,
    type_equal,
    verify_indiscernible,
)
from repsieve.termalg import AlgebraSignature, Term, TermAlgebra, build_terms
from repsieve.enrich import Enrichment, trivial_enrichment, validate_enrichment
from repsieve.represent import (
    CheckerPolicy,
    RepresentationMap,
    ViolationReport,
    check_by_partial_automorphisms,
    check_representation,
)
from repsieve.sunflower import (
    DeltaSystemFailure,
    SunflowerCertificate,
    delta_system,
    validate_sunflower,
)
from repsieve.sieve import (
    ProbeReport,
    SieveBottleneck,
    SieveTrace,
    instability_probe,
    sieve,
    witness_automorphism,
)
from repsieve.theories import (
    Decomposition,
    ElementRecord,
    IndependenceOracle,
    TheorySpec,
    build_layer_representation,
    build_sid,
    build_term_representation,
    check_strongly_independent,
    desk_model,
    nested_class_oracle,
    singleton_prefix,
    theory_oracle,
    verify_decomposition,
)
from repsieve.workspace import (
    Workspace,
    WorkspaceError,
    load_workspace,
    parse_workspace,
    render_workspace,
    save_workspace,
)

__version__ = "0.1.0"
