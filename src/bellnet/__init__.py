"""Star-network Bell inequalities: quantum violations, classical models,
and the supporting combinatorics.

A network couples n independent sources to one central observer; source j
also feeds L_j branch observers.  The package simulates GHZ sources under
equatorial-plane measurements, evaluates the subset-correlator inequality
that bounds all classical models, and ships the classical strategies that
saturate it.
"""

from .version import __version__

from .network import NetworkConfig
from .quantum import network_table, scheme_setting_map, xy_scheme
from .inequality import bell_value, classical_bound, truncated_spectrum
