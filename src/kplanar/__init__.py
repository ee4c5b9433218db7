"""Spectrally certified lower bounds on k-planar crossing numbers of
regular graphs, with seeded random-graph experiments."""

from .certify import (Certificate, brute_min_pair_density, certify_k_planar_lb,
                      min_positive_n, mixing_density_lb, pss_lower_bound,
                      set_size_t, threshold_c0)
from .graph import (EdgePartition, Graph, GraphError, cut_size, induced_subgraph,
                    random_edge_partition, read_edge_list, read_edge_partition,
                    write_edge_list)
from .models import (MODELS, RegularModel, SampleError, SampleReport, check_params,
                     max_degree_ok, sample, sample_gnp, sample_regular)
from .partitions import (BisectionResult, WitnessChain, exact_bisection,
                         lemma1_split, local_search_bisection, witness_chain)
from .seeds import derive_seed, mix64
from .spectral import (SpectralError, SpectralSummary, friedman_check,
                       mu_bound, spectral_summary, spectrum_full)

__version__ = "0.1.0"
