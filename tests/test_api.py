"""The public names of the package, and the knobs of its density layer,
stay put."""

import inspect
import re
from pathlib import Path

import maxentos
from maxentos import cdfs
from maxentos.hazards import PairHazard

PUBLIC = {
    "AverageCdf", "BetaOneKCdf", "CheckResult", "ComposedDeltaCdf",
    "CopulaKernel", "Degenerate", "DegeneracyReport", "DimensionTooLarge",
    "ExponentialCdf", "IntervalSet", "InvalidMarginal", "MarginalCdf",
    "MarginalVector", "MaxEntModel", "MaxentError", "Multidiagonal",
    "NotAbsolutelyContinuous", "NotInF0", "OrderStatUniformCdf", "OutOfPsi",
    "PiecewiseLinearCdf", "RootBracketFailure", "UniformCdf",
    "VerificationReport", "average_cdf", "build_model", "c_F_density",
    "c_delta_density", "check_stochastic_order", "copula_entropy_closed",
    "delta_inverse", "delta_psi", "detect_degenerate", "f_F_density",
    "generalized_inverse", "hazard", "in_support_LF", "j_functional",
    "j_functional_delta", "joint_entropy_closed", "ks_distance",
    "marginal_from_dict", "marginal_vector_from_dict",
    "multidiagonal_from_marginals", "multidiagonal_of_iid_uniform",
    "order_stat_copula_entropy", "psi_intervals", "run_full_verification",
    "sample", "sample_copula", "sigma_measure", "symmetrize_density",
    "unsymmetrize_density", "validate_multidiagonal",
}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 54
    assert len(maxentos.__all__) == len(set(maxentos.__all__))
    assert set(maxentos.__all__) == PUBLIC


def test_public_names_resolve():
    namespace = {}
    exec("from maxentos import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(maxentos, name)


# the density layer's entry points: their evaluation strategy is decided
# inside, from the input, never by a caller's option
SIGNATURES = {
    maxentos.in_support_LF: "(F, x)",
    PairHazard.lambda_between: "(self, s, t)",
    maxentos.f_F_density: "(model: 'MaxEntModel', x) -> 'np.ndarray'",
    maxentos.c_F_density: "(margins: 'MarginalVector', u, *, hazards=None) -> 'np.ndarray'",
    maxentos.c_delta_density: "(kernel: 'CopulaKernel', u) -> 'np.ndarray'",
}


def test_density_signatures_are_pinned():
    for fn, sig in SIGNATURES.items():
        assert str(inspect.signature(fn)) == sig, fn.__qualname__


def test_environment_variables_are_pinned():
    # the package reads no environment variable
    src = Path(maxentos.__file__).parent
    for path in src.glob("*.py"):
        text = path.read_text()
        assert "getenv" not in text and "environ" not in text, path.name


def test_cdf_conventions_live_in_the_base_class():
    # the scalar return and the quantile's ends are decided in MarginalCdf
    # alone; a family writes only the private _cdf, _sf, _pdf and _quantile
    public = {"cdf", "sf", "pdf", "ppf"}
    families = [c for c in vars(cdfs).values()
                if inspect.isclass(c) and issubclass(c, cdfs.MarginalCdf)]
    assert len(families) == 8
    for cls in families:
        if cls is not cdfs.MarginalCdf:
            assert not public & set(vars(cls)), cls.__name__
    sigs = {name: str(inspect.signature(getattr(cdfs.MarginalCdf, name)))
            for name in sorted(public)}
    assert sigs == {"cdf": "(self, x)", "pdf": "(self, x)", "ppf": "(self, u)",
                    "sf": "(self, x)"}


def test_one_gauss_legendre_unit_rule():
    # the hazard tables and the battery's rule read cdfs._unit_gauss; no
    # module builds a Gauss-Legendre rule of its own
    src = Path(maxentos.__file__).parent
    named = {path.name: path.read_text().count("leggauss") for path in src.glob("*.py")}
    assert {name: k for name, k in named.items() if k} == {"cdfs.py": 1}


def test_no_module_imports_scipy_integrate():
    # every 1-D quadrature runs cdfs' own tanh-sinh rule; scipy.integrate
    # is only the tests' oracle
    src = Path(maxentos.__file__).parent
    pattern = re.compile(r"^\s*(from\s+scipy\s+import\s+.*\bintegrate\b|"
                         r"from\s+scipy\.integrate\b|import\s+scipy\.integrate\b)", re.M)
    assert [path.name for path in src.glob("*.py") if pattern.search(path.read_text())] == []
