"""gasketlab: Dirichlet forms on inhomogeneous Sierpinski gaskets.

Construction of the level-l harmonic structures (exact renormalization
factors and extension matrices), labeled word trees and their conductance
networks, per-cell energy measures and rank statistics, relative capacities
with the balance constants, and the blow-up/push-forward diagnostic.
"""

from .blowup import BlowupCloud, blowup_cloud, density_grid
from .capacity import (
    A3Report,
    a3_report,
    corner_chain_capacity,
    corner_decay_N,
    default_inner_depth,
    inner_set_pins,
    point_capacity,
)
from .energy import (
    CellEnergyMatrix,
    EnergyBasis,
    RankReport,
    cell_energy_matrix,
    contraction_check,
    default_basis,
    index_estimate,
    kusuoka_distribution,
)
from .gasket import (
    ConductanceNetwork,
    GasketSpec,
    chain_matrix,
    dirichlet_solve,
    encode_word,
    enumerate_words,
    harmonic_values,
    iter_words,
    level_network,
    parse_word,
)
from .harmonic import (
    HarmonicCellData,
    QuadraticForm,
    base_form,
    extension_matrices,
    level_form,
    renormalization_factor,
    spectral_data,
    theta,
)
from .subdivision import SimplexSubdivision, cell_count, subdivide, vertex_table

__version__ = "0.1.0"
