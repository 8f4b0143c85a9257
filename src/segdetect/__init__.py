"""Adversarial attacks on a toy segmentation model and their uncertainty-based detection."""

import os

__version__ = "0.1.0"

_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20


def _keep_freed_heap():
    """Keep up to _TOP_PAD_BYTES of freed memory mapped at the top of each
    glibc malloc arena. A model pass frees 2-5 MB of conv, ReLU and softmax
    temporaries; without the pad glibc trims that freed top back to the kernel
    (systrim) and the next pass faults it in again: about 500 minor faults per
    parameter gradient at 64 px, 1,380 per input gradient at 96 px, none with
    the pad. Forked workers inherit the setting with the heap. A request
    larger than the free top is still mmapped and unmapped on free, so memory
    stays bounded as images grow. Placement only: no output changes.
    Elsewhere than glibc this does nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
    except (AttributeError, ValueError, OSError):
        return
    import ctypes  # numpy imports it anyway
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _TOP_PAD_BYTES)


_keep_freed_heap()
