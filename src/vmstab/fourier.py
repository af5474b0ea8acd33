"""Periodic spectral utilities shared across the package.

Functions of one periodic variable are represented either by values on a
uniform grid (for FFT work) or by a trimmed one-sided coefficient list
(`PeriodicSeries`) for fast pointwise evaluation along trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def uniform_grid(period: float, n: int) -> np.ndarray:
    """Uniform periodic grid on [0, period), endpoint excluded."""
    return np.arange(n) * (period / n)


def spectral_derivative(values: np.ndarray, period: float, order: int = 1) -> np.ndarray:
    """Differentiate grid values of a smooth periodic function via FFT.

    The Nyquist mode is zeroed for odd derivative orders so the result of
    differentiating real data stays real and skew-symmetric.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=period / n)
    mult = (1j * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[-1] = 0.0
    return np.fft.irfft(np.fft.rfft(values) * mult, n=n)


@dataclass(frozen=True)
class PeriodicSeries:
    """One-sided trigonometric series f(x) = Re(sum_k a_k e^{2 pi i k x / P}).

    Coefficients are trimmed so evaluation cost tracks the true bandwidth of
    the function rather than the grid it was sampled on.
    """

    period: float
    coeffs: np.ndarray  # complex, index = harmonic k >= 0; coeffs[0] is real

    @classmethod
    def from_values(cls, values: np.ndarray, period: float,
                    trim_tol: float = 1e-14) -> "PeriodicSeries":
        values = np.asarray(values, dtype=float)
        n = values.size
        c = np.fft.rfft(values)
        a = np.empty(c.size, dtype=complex)
        a[0] = c[0].real / n
        a[1:] = 2.0 * c[1:] / n
        if n % 2 == 0:
            # Nyquist mode appears once in the rfft, not twice.
            a[-1] = c[-1].real / n
        scale = np.max(np.abs(a)) if a.size else 0.0
        if scale > 0.0:
            keep = np.nonzero(np.abs(a) > trim_tol * scale)[0]
            last = keep[-1] + 1 if keep.size else 1
        else:
            last = 1
        return cls(period=float(period), coeffs=a[:last].copy())

    @classmethod
    def from_coefficients(cls, coeffs, period: float) -> "PeriodicSeries":
        a = np.asarray(coeffs, dtype=complex)
        if a.size == 0:
            a = np.zeros(1, dtype=complex)
        a = a.copy()
        a[0] = a[0].real
        return cls(period=float(period), coeffs=a)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.exp((2j * np.pi / self.period) * x)
        values = horner_eval(self.coeffs, z)
        return values if x.ndim else float(values)

    def derivative(self) -> "PeriodicSeries":
        k = np.arange(self.coeffs.size)
        return PeriodicSeries(self.period, self.coeffs * (2j * np.pi / self.period) * k)

    def values(self, n: int) -> np.ndarray:
        return self(uniform_grid(self.period, n))

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))


def horner_eval(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Evaluate Re(sum_k coeffs[k] z^k) for precomputed z = e^{2 pi i x / P}."""
    acc = np.full(z.shape, coeffs[-1], dtype=complex)
    for k in range(coeffs.size - 2, -1, -1):
        acc = acc * z + coeffs[k]
    return acc.real


def real_basis_matrix(K: int, x: np.ndarray, period: float) -> np.ndarray:
    """Orthonormal real trigonometric basis sampled at points x.

    Row layout: [const, cos_1, sin_1, ..., cos_K, sin_K] with
    const = 1/sqrt(P), cos_k = sqrt(2/P) cos(2 pi k x / P), likewise sin_k.
    Orthonormal in the plain L^2 inner product on one period.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((2 * K + 1, x.size), dtype=float)
    out[0] = 1.0 / np.sqrt(period)
    amp = np.sqrt(2.0 / period)
    for k in range(1, K + 1):
        th = (2.0 * np.pi * k / period) * x
        out[2 * k - 1] = amp * np.cos(th)
        out[2 * k] = amp * np.sin(th)
    return out


def real_basis_derivative_matrix(K: int, x: np.ndarray,
                                 period: float) -> np.ndarray:
    """d/dx of every real_basis_matrix row, sampled at points x.

    Differentiation swaps each cos/sin pair and scales it by the angular
    wavenumber: cos_k' = -(2 pi k / P) sin_k, sin_k' = +(2 pi k / P) cos_k,
    and the constant row differentiates to zero.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((2 * K + 1, x.size), dtype=float)
    amp = np.sqrt(2.0 / period)
    for k in range(1, K + 1):
        w = 2.0 * np.pi * k / period
        th = w * x
        out[2 * k - 1] = -amp * w * np.sin(th)
        out[2 * k] = amp * w * np.cos(th)
    return out


def basis_wavenumbers(K: int, period: float) -> np.ndarray:
    """Angular wavenumber 2 pi k / P for each row of real_basis_matrix."""
    k = np.empty(2 * K + 1, dtype=float)
    k[0] = 0.0
    for j in range(1, K + 1):
        k[2 * j - 1] = k[2 * j] = 2.0 * np.pi * j / period
    return k
