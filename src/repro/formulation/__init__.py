"""Linearized multi-phase OPF formulation (paper Section II).

Builds the centralized LP (7) from a network model, with every constraint
row tagged by the component that owns it so the component-wise decomposition
is a pure regrouping.
"""

from repro.formulation.balance import balance_rows
from repro.formulation.centralized import (
    ActiveSetCertificate,
    CentralizedLP,
    build_centralized_lp,
    build_rows,
    certify_active_set,
    register_network,
    tagged_rows,
)
from repro.formulation.flow import flow_rows, voltage_drop_matrices
from repro.formulation.loads import (
    consumption_rows,
    delta_link_rows,
    delta_link_rows_paper,
    delta_withdrawal_map,
    load_rows,
    wye_link_rows,
)
from repro.formulation.rows import Row, rows_to_dense_local, rows_to_matrix
from repro.formulation.scaling import ScaledLP, column_scales, scale_lp
from repro.formulation.variables import VariableIndex, VarKey

__all__ = [
    "ActiveSetCertificate",
    "CentralizedLP",
    "certify_active_set",
    "build_centralized_lp",
    "build_rows",
    "register_network",
    "tagged_rows",
    "balance_rows",
    "flow_rows",
    "voltage_drop_matrices",
    "load_rows",
    "consumption_rows",
    "wye_link_rows",
    "delta_link_rows",
    "delta_link_rows_paper",
    "delta_withdrawal_map",
    "Row",
    "scale_lp",
    "ScaledLP",
    "column_scales",
    "rows_to_matrix",
    "rows_to_dense_local",
    "VariableIndex",
    "VarKey",
]
