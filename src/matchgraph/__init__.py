"""Chromatic numbers of matching graphs and general Kneser graphs.

Builders for matching graphs KG(G, rK2) and general Kneser graphs KG(H),
an exact chromatic-number solver with certificates, generalized Turan
numbers whose certificate lists every maximal rK2-free edge set
(``turan_matchings(g, r).masks``), alternating Turan numbers and chromatic
lower bounds along an edge ordering from those sets
(``alternation.ex_alt_salt`` and ``alternation.alternation_chi_lower``),
the Eulerian edge ordering, and Tutte-Berge witnesses that carry a maximum
matching, plus a CLI for reproduction tables and a small-graph conjecture
scanner.
"""

from .alternation import EdgeOrdering
from .coloring import (
    ChromaticCertificate,
    chromatic_number,
    coloring_from_extremal,
    export_dimacs,
    greedy_clique,
    is_proper,
)
from .errors import CapacityError, CertificateError, GraphParseError, NotEulerianError
from .graphs import (
    INFINITE,
    Graph,
    eulerian_tour,
    format_graph,
    is_connected,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_disjoint_matching,
    make_path,
    odd_components,
    odd_girth,
    parse_graph,
    read_graph,
)
from .hypergraphs import (
    Hypergraph,
    KneserGraph,
    general_kneser,
    matching_graph,
    matching_hypergraph,
)
from .matching import (
    Matching,
    TutteBergeWitness,
    edge_subset_has_r_matching,
    enumerate_matchings,
    tutte_berge,
)
from .orderings import StarFormulaReport, euler_ordering, star_formula_conditions
from .turan import TuranCertificate, turan_matchings

__version__ = "0.1.0"
