import numpy as np
import pytest

from adiabat import runner
from adiabat.propagation import Trajectory
from adiabat.spectral import HamiltonianFamily, SpectralDecomposition, vectorized


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_hermitian(rng, dim, scale=1.0):
    g = (rng.standard_normal((dim, dim))
         + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    return scale * 0.5 * (g + g.conj().T)


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def expm_series(a, terms=40):
    """Truncated power series; independent oracle for small-norm inputs."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    return out


def reversed_spectrum_family(fam, basis=True):
    """``fam`` with its analytic spectrum's eigenspaces listed in reverse
    (descending energy) order; numeric continuation when ``basis`` is off."""
    spectrum = fam.analytic_spectrum

    @vectorized
    def reversed_spectrum(s):
        d = spectrum(s)
        return SpectralDecomposition(energies=d.energies[..., ::-1].copy(),
                                     projectors=d.projectors[::-1], ranks=d.ranks[::-1])

    return HamiltonianFamily(dim=fam.dim, evaluate=fam.evaluate,
                             analytic_spectrum=reversed_spectrum,
                             analytic_basis=fam.analytic_basis if basis else None,
                             n_eigenspaces=fam.n_eigenspaces)


def lab_trajectories(ctx, gammas):
    """The :class:`runner.LabPass` of ``runner.integrate_pairs(ctx, gammas)``
    and every pair's whole lab trajectory, joined from the blocks that the
    pass hands its writer, in the pass's pair order."""
    blocks = {}

    def writer(gamma, exact, approx):
        blocks.setdefault(gamma, []).append((exact, approx))
    done = runner.integrate_pairs(ctx, gammas, writer)
    return done, [Trajectory(grid=np.concatenate([b[k].grid for b in blocks[gamma]]),
                             states=np.concatenate([b[k].states for b in blocks[gamma]]))
                  for gamma in done.gammas for k in (0, 1)]
