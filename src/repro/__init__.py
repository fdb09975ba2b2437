"""Compact roundtrip routing with topology-independent node names.

A full reproduction of Arias, Cowen & Laing (PODC 2003 / JCSS 2008):
the stretch-6 TINN scheme, the ExStretch and PolynomialStretch
tradeoff schemes, every substrate they rely on (roundtrip metric,
distributed dictionaries, sparse double-tree covers, the RTZ
name-dependent substrate), baselines, and the Theorem 15 lower-bound
machinery.

Quick start::

    from repro import Network

    net = Network.from_family("random", n=64, seed=1)
    router = net.router("stretch6")
    print(router.route(0, 9).stretch)  # <= 6

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record.
"""

from repro.analysis.experiments import fig1_comparison, format_rows
from repro.api import (
    Network,
    Router,
    all_specs,
    get_spec,
    register_scheme,
    scheme_names,
)
from repro.analysis.stretch import stretch_distribution
from repro.analysis.tables import breakdown
from repro.covers.hierarchy import TreeHierarchy
from repro.distributed.preprocessing import DistributedPreprocessing
from repro.covers.sparse_cover import DoubleTreeCover, cover
from repro.dictionary.distribution import BlockDistribution
from repro.graph.digraph import Digraph, from_edge_list
from repro.graph.generators import (
    asymmetric_torus,
    bidirected_torus,
    directed_cycle,
    random_dht_overlay,
    random_strongly_connected,
    standard_families,
)
from repro.graph.roundtrip import RoundtripMetric
from repro.graph.shortest_paths import DistanceOracle
from repro.naming.hashing import HashedNaming, random_wild_names
from repro.naming.permutation import Naming, identity_naming, random_naming
from repro.runtime.simulator import Simulator
from repro.runtime.stats import measure_stretch, measure_tables
from repro.rtz.routing import RTZStretch3
from repro.rtz.spanner import HandshakeSpanner
from repro.schemes.exstretch import ExStretchScheme
from repro.schemes.polystretch import PolynomialStretchScheme
from repro.schemes.rtz_baseline import RTZBaselineScheme
from repro.schemes.shortest_path import ShortestPathScheme
from repro.schemes.stretch6 import StretchSixScheme
from repro.schemes.wild_names import WildNameStretchSix

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # unified API
    "Network",
    "Router",
    "register_scheme",
    "get_spec",
    "scheme_names",
    "all_specs",
    # graph substrate
    "Digraph",
    "from_edge_list",
    "DistanceOracle",
    "RoundtripMetric",
    "random_strongly_connected",
    "directed_cycle",
    "bidirected_torus",
    "asymmetric_torus",
    "random_dht_overlay",
    "standard_families",
    # naming
    "Naming",
    "identity_naming",
    "random_naming",
    "HashedNaming",
    "random_wild_names",
    # substrates
    "BlockDistribution",
    "DoubleTreeCover",
    "TreeHierarchy",
    "cover",
    "RTZStretch3",
    "HandshakeSpanner",
    # schemes
    "StretchSixScheme",
    "ExStretchScheme",
    "PolynomialStretchScheme",
    "RTZBaselineScheme",
    "ShortestPathScheme",
    # runtime & analysis
    "Simulator",
    "measure_stretch",
    "measure_tables",
    "fig1_comparison",
    "format_rows",
    "stretch_distribution",
    "breakdown",
    # extensions
    "WildNameStretchSix",
    "DistributedPreprocessing",
]
