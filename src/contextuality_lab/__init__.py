"""Exact verification toolkit for orientation-valued hidden-variable models.

Subpackages cover the single-copy geometric algebra (:mod:`.ga`), commuting
multi-system words (:mod:`.systems`), the product-constraint systems with
their scalar and vector evaluators (:mod:`.constraints`), basis-identity
substitution (:mod:`.identities`), the exact matrix-mechanics oracle
(:mod:`.quantum`), the coplanar correlation sweep (:mod:`.chsh`), the check
suites that ``verify`` runs (:mod:`.checks`) and the command-line front end
(:mod:`.cli`).
"""

__version__ = "0.1.0"
