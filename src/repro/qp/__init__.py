"""Dense QP solver substrate used by the benchmark (solver-based) ADMM:
an interior-point method for box+equality QPs and an exact semismooth-Newton
projection onto box-affine intersections, one component at a time or
batched over all components of a stacked vector."""

from repro.qp.interior_point import QPResult, solve_qp_box_eq
from repro.qp.projection import BoxAffineProjector, project_box_affine

__all__ = ["solve_qp_box_eq", "QPResult", "project_box_affine", "BoxAffineProjector"]
