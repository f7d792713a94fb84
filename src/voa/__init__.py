"""Exact symbolic computation engine for vertex (super)algebras."""

from .scalars import (DivisionByZero, ParamPoint, PoleAtPoint, Poly, Scalar,
                      parse_scalar)
from .fock import (BracketRule, BracketTerm, CentralTerm, GeneratorSpec,
                   ModeAlgebra, PbwMonomial, SectorMismatch, State,
                   UnknownGenerator, algebra_from_json, algebra_to_json,
                   apply_mode, basis_monomials, graded_dim, normal_order,
                   render_monomial, render_state)
from .fields import field_mode, state_field_mode, translate
from .ope import (AxiomReport, NotLocalUpTo, commutator_direct,
                  commutator_via_formula, coset_graded, locality_order,
                  morphism_check, singular_part, verify_axioms)
from .presets import (AlgebraInstance, InvalidLieData, LieData,
                      PRESET_NAMES, affine, boson_fermion_check,
                      commutative_va, free_fermion, get_preset, heisenberg,
                      lattice, lattice_vertex_op, sl2_data, sl3_data,
                      sugawara, virasoro, weyl)
from .correlators import (ExpansionRegion, RationalCorrelator,
                          bootstrap_verify, consistency_check, expand,
                          heisenberg_npoint)
from .characters import (QSeries, boson_fermion_character_check, character,
                         lattice_theta_character)
from .coords import (CoordChange, NonInvertibleLinearTerm, NotPrimary,
                     TruncationMismatch, VirasoroCharge, R_apply,
                     R_inverse_apply, decompose, huang_check,
                     primary_differential_check, reconstruct)

__all__ = [
    "AlgebraInstance", "AxiomReport", "BracketRule", "BracketTerm",
    "CentralTerm", "CoordChange", "DivisionByZero", "ExpansionRegion",
    "GeneratorSpec", "InvalidLieData", "LieData", "ModeAlgebra",
    "NonInvertibleLinearTerm", "NotLocalUpTo", "NotPrimary", "ParamPoint",
    "PbwMonomial", "PoleAtPoint", "Poly", "PRESET_NAMES", "QSeries",
    "RationalCorrelator", "R_apply", "R_inverse_apply", "Scalar",
    "SectorMismatch", "State", "TruncationMismatch", "UnknownGenerator",
    "VirasoroCharge", "affine", "algebra_from_json", "algebra_to_json",
    "apply_mode", "basis_monomials", "boson_fermion_character_check",
    "boson_fermion_check", "bootstrap_verify", "character",
    "commutative_va", "commutator_direct", "commutator_via_formula",
    "consistency_check", "coset_graded", "decompose", "expand",
    "field_mode", "free_fermion", "get_preset", "graded_dim",
    "heisenberg", "heisenberg_npoint", "huang_check", "lattice",
    "lattice_theta_character", "lattice_vertex_op", "locality_order",
    "morphism_check", "normal_order", "parse_scalar",
    "primary_differential_check", "reconstruct", "render_monomial",
    "render_state", "singular_part", "sl2_data", "sl3_data",
    "state_field_mode", "sugawara", "translate", "verify_axioms", "virasoro",
    "weyl",
]
