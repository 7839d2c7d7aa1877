import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxforge.errors import ConfigError
from coxforge.gradient import SOBEL_X, SOBEL_Y, fft_convolve2d, sobel_magnitude


def direct_convolve2d(image, kernel):
    """Spatial-domain oracle: same centered window as fft_convolve2d."""
    ih, iw = image.shape
    kh, kw = kernel.shape
    full = np.zeros((ih + kh - 1, iw + kw - 1))
    for p in range(ih):
        for q in range(iw):
            full[p : p + kh, q : q + kw] += image[p, q] * kernel
    oy, ox = (kh - 1) // 2, (kw - 1) // 2
    return full[oy : oy + ih, ox : ox + iw]


def test_delta_kernel_is_identity():
    img = np.random.default_rng(0).normal(size=(6, 9))
    delta = np.zeros((3, 3))
    delta[1, 1] = 1.0
    assert np.allclose(fft_convolve2d(img, delta), img, atol=1e-12)


def test_single_element_kernel_scales():
    img = np.random.default_rng(1).normal(size=(4, 5))
    assert np.allclose(fft_convolve2d(img, np.array([[2.5]])), 2.5 * img)


def test_matches_direct_convolution():
    rng = np.random.default_rng(2)
    img = rng.normal(size=(8, 8))
    for ker in (SOBEL_X, SOBEL_Y, rng.normal(size=(5, 3))):
        got = fft_convolve2d(img, ker)
        want = direct_convolve2d(img, ker)
        assert np.max(np.abs(got - want)) < 1e-10


@given(
    ih=st.integers(1, 32), iw=st.integers(1, 32),
    kh=st.integers(1, 5), kw=st.integers(1, 5),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=50, deadline=None)
def test_fft_equals_direct_property(ih, iw, kh, kw, seed):
    rng = np.random.default_rng(seed)
    img = rng.normal(size=(ih, iw))
    ker = rng.normal(size=(kh, kw))
    got = fft_convolve2d(img, ker)
    want = direct_convolve2d(img, ker)
    assert np.max(np.abs(got - want)) < 1e-9


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (8, 8), (39, 91), (91, 39), (200, 77)])
def test_kernel_stack_equals_separate_calls(shape):
    """A stack of kernels gives, bit for bit, the convolutions one kernel at a time."""
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    stack = np.stack([SOBEL_X, SOBEL_Y])
    for _ in range(20):
        img = rng.uniform(size=shape)
        got = fft_convolve2d(img, stack)
        assert got.shape == (2, *shape)
        for k, ker in enumerate(stack):
            assert np.array_equal(got[k], fft_convolve2d(img, ker))
        assert np.array_equal(sobel_magnitude(img), np.hypot(*got))


def test_is_convolution_not_correlation():
    # an asymmetric kernel distinguishes the two: convolution flips it
    img = np.zeros((5, 5))
    img[2, 2] = 1.0
    ker = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    out = fft_convolve2d(img, ker)
    # delta at (2,2) convolved with offset (0,+1) puts mass at (2,3)
    assert out[2, 3] == pytest.approx(1.0, abs=1e-12)
    assert out[2, 1] == pytest.approx(0.0, abs=1e-12)


def test_linearity():
    rng = np.random.default_rng(3)
    a, b = rng.normal(size=(7, 6)), rng.normal(size=(7, 6))
    ker = rng.normal(size=(3, 3))
    lhs = fft_convolve2d(2.0 * a - 3.0 * b, ker)
    rhs = 2.0 * fft_convolve2d(a, ker) - 3.0 * fft_convolve2d(b, ker)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_non_2d_inputs_rejected():
    with pytest.raises(ConfigError):
        fft_convolve2d(np.zeros(5), np.zeros((3, 3)))
    with pytest.raises(ConfigError):
        fft_convolve2d(np.zeros((5, 5)), np.zeros(3))


class TestSobelMagnitude:
    def test_constant_surface_flat_interior(self):
        mag = sobel_magnitude(np.full((10, 10), 0.7))
        assert np.allclose(mag[1:-1, 1:-1], 0.0, atol=1e-12)
        # zero padding makes the border see an artificial edge
        assert mag[0].max() > 0

    def test_vertical_step_interior_response(self):
        surf = np.zeros((9, 10))
        surf[:, 5:] = 1.0
        mag = sobel_magnitude(surf)
        # unit step: |gx| = 4 on both columns flanking the edge, gy = 0
        assert np.allclose(mag[1:-1, 4], 4.0, atol=1e-10)
        assert np.allclose(mag[1:-1, 5], 4.0, atol=1e-10)
        assert np.allclose(mag[1:-1, 2], 0.0, atol=1e-10)

    def test_rotation_isotropy(self):
        surf = np.random.default_rng(4).uniform(size=(8, 8))
        got = sobel_magnitude(np.rot90(surf))
        want = np.rot90(sobel_magnitude(surf))
        assert np.allclose(got, want, atol=1e-10)

    def test_negation_invariance(self):
        surf = np.random.default_rng(5).normal(size=(6, 7))
        assert np.allclose(sobel_magnitude(-surf), sobel_magnitude(surf),
                           atol=1e-12)

    def test_nonnegative_and_shape_preserving(self):
        surf = np.random.default_rng(6).normal(size=(5, 11))
        mag = sobel_magnitude(surf)
        assert mag.shape == surf.shape
        assert (mag >= 0).all()

    def test_magnitude_combines_both_directions(self):
        surf = np.random.default_rng(7).uniform(size=(7, 7))
        gx = fft_convolve2d(surf, SOBEL_X)
        gy = fft_convolve2d(surf, SOBEL_Y)
        assert np.allclose(sobel_magnitude(surf), np.hypot(gx, gy))
