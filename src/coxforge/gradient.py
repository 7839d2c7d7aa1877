"""Edge-magnitude fields via FFT-based convolution.

The contact surface enters the model not only through its value but through
how sharply it changes; this module computes that edge strength with the
classic 3x3 Sobel pair applied by zero-padded linear convolution. The
convolution itself goes through the frequency domain (pad, multiply
transforms, invert), which matches direct spatial convolution to rounding
error while scaling to large fields.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

#: Horizontal-derivative Sobel kernel; its transpose is the vertical one.
SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = SOBEL_X.T.copy()
_SOBEL_XY = np.stack([SOBEL_X, SOBEL_Y])


def fft_convolve2d(image: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Zero-padded linear convolution, returned at the image's own shape.

    Computes true convolution (kernel flipped): with the full linear
    convolution ``full[i, j] = sum_{p,q} image[p, q] * kernel[i-p, j-q]``,
    the returned array is the centered same-size window
    ``full[(kh-1)//2 : ..., (kw-1)//2 : ...]``.

    ``kernel`` may be a stack (..., kh, kw); the result is then the stack
    of convolutions, (..., ih, iw), and the image is transformed once.
    """
    img = np.asarray(image, dtype=float)
    ker = np.asarray(kernel, dtype=float)
    if img.ndim != 2 or ker.ndim < 2:
        raise ConfigError("image must be 2-D, and kernel 2-D or a stack of 2-D kernels")
    ih, iw = img.shape
    kh, kw = ker.shape[-2:]
    fh, fw = ih + kh - 1, iw + kw - 1
    spec = np.fft.rfft2(img, s=(fh, fw)) * np.fft.rfft2(ker, s=(fh, fw))
    full = np.fft.irfft2(spec, s=(fh, fw))
    oy, ox = (kh - 1) // 2, (kw - 1) // 2
    return full[..., oy : oy + ih, ox : ox + iw]


def sobel_magnitude(surface: np.ndarray) -> np.ndarray:
    """Gradient magnitude sqrt(gx^2 + gy^2) of a 2-D field.

    Both directional responses come from one :func:`fft_convolve2d` call
    with the stacked Sobel kernels; the result is non-negative and has the
    input's shape. An ideal unit step yields magnitude 4 on the interior
    cells flanking the edge.
    """
    gx, gy = fft_convolve2d(surface, _SOBEL_XY)
    return np.hypot(gx, gy)
