"""All-positive 3-channel embedding of 2-D optical flow fields.

A flow field is a plain 2xHxW floating array: the per-pixel displacement
(u, v) from a source frame to a target frame.  A flow vector (u, v) is lifted
to (u, v, m) with m its Euclidean magnitude; the lifted points live on a cone
around the z axis.  A fixed linear map then tilts that cone onto the
positive octant so the channels behave like image intensities.  The map
factors as Q diag(1, 1, sqrt(2)) with Q a proper rotation, i.e. the
magnitude scaling is already folded into its third column, so it is applied
to the unscaled triple.  Feeding (u, v, sqrt(2) m) instead, the
scale-then-rotate reading, would break the sqrt(3) norm law.
"""

import numpy as np

_S3 = np.sqrt(3.0)

# columns 1-2 orthonormal, column 3 of norm sqrt(2); det = +sqrt(2)
ROTATION = np.array([
    [1.0 / (2.0 * _S3) + 0.5, 1.0 / (2.0 * _S3) - 0.5, np.sqrt(2.0) / _S3],
    [1.0 / (2.0 * _S3) - 0.5, 1.0 / (2.0 * _S3) + 0.5, np.sqrt(2.0) / _S3],
    [-1.0 / _S3, -1.0 / _S3, np.sqrt(2.0) / _S3],
])


def embed_flow(uv: np.ndarray) -> np.ndarray:
    """The 3xHxW all-positive embedding of a 2xHxW flow field, a plain
    array in the flow's dtype."""
    u, v = uv[0], uv[1]
    m = np.sqrt(u * u + v * v)
    p = np.stack([u, v, m])
    return np.einsum("ij,jhw->ihw", ROTATION.astype(p.dtype), p)
