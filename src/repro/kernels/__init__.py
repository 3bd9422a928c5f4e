"""JIT kernel registry: numba-compiled hot loops with a python fallback.

The two interpreted inner loops that dominate large-n days — the greedy
``solve_columnar`` ordered-placement sweep and the branch-and-bound child
expansion — have compiled builds in :mod:`repro.kernels._numba_impl`
(numba ``@njit(cache=True)``) and pure-Python reference builds in
:mod:`repro.kernels.placement` (a plain-list sweep) and
:mod:`repro.kernels.bnb`.  This module is the dispatcher that picks
between them:

* **auto** (default): ``numba`` when the import succeeds, else ``python``
  with a once-logged info line — a missing numba never fails a run.
* ``ENKI_KERNELS=numba|python`` in the environment, or
  ``enki-repro --kernels``, forces a backend.  Forcing ``numba`` on a box
  without numba degrades to ``python`` (logged once) rather than erroring.

Both backends are **bit-identical by construction**: processing order and
random tie-break keys are drawn outside the kernels, and the compiled
loops replicate the exact float operation sequence of the reference
builds (same accumulation order, same first-minimum argmin, same stable
sort).  ``tests/test_kernels.py`` pins this.

Compilation happens once per process.  :func:`warm_kernels` triggers it
eagerly (and times it); the parallel runtime warms the parent before
forking workers and installs a pool initializer for spawn-style pools, so
workers never pay the compile per task.  ``cache=True`` persists the
machine code in ``__pycache__`` next to ``_numba_impl.py``, so later
processes only pay a cache load.
"""

from __future__ import annotations

import logging
import os
import time
from contextlib import contextmanager
from typing import Optional

_logger = logging.getLogger(__name__)

#: Environment variable selecting the kernel backend.
KERNELS_ENV = "ENKI_KERNELS"

#: Recognized backend choices (``auto`` resolves at call time).
BACKEND_CHOICES = ("auto", "numba", "python")

#: Programmatic override (set by :func:`set_backend`); beats the env var.
_forced: Optional[str] = None

#: Cached numba import: ``None`` = not probed, module = importable impl,
#: ``False`` = unavailable or broken (import or compile failed).
_impl = None

#: One-time JIT compile cost in seconds (``None`` until warmed, ``0.0``
#: on the python backend).
_warm_seconds: Optional[float] = None

#: Log-once guards, keyed by message class.
_logged = set()


def _log_once(key: str, message: str, *args) -> None:
    if key not in _logged:
        _logged.add(key)
        _logger.info(message, *args)


def _import_numba():
    """Import hook for the numba package (monkeypatchable in tests)."""
    import numba

    return numba


def _load_impl():
    """The compiled-kernel module, or ``None`` when numba is unusable."""
    global _impl
    if _impl is None:
        try:
            _import_numba()
            from . import _numba_impl

            _impl = _numba_impl
        except Exception as exc:  # ImportError and any numba-internal failure
            _impl = False
            _log_once(
                "numba-missing",
                "numba is not importable (%s); falling back to python kernels",
                exc,
            )
    return _impl or None


def numba_available() -> bool:
    """True when the compiled backend can actually be used."""
    return _load_impl() is not None


def _requested() -> str:
    """The backend the user asked for: forced > env var > auto."""
    if _forced is not None:
        return _forced
    env = os.environ.get(KERNELS_ENV, "").strip().lower()
    if env in ("numba", "python"):
        return env
    if env and env != "auto":
        _log_once(
            f"bad-env:{env}",
            "ignoring unrecognized %s=%r (expected numba|python|auto)",
            KERNELS_ENV,
            env,
        )
    return "auto"


def active_backend() -> str:
    """The backend kernel calls will dispatch to right now.

    Resolved per call (the env var and :func:`set_backend` both take
    effect immediately); only the numba import probe is cached.
    """
    requested = _requested()
    if requested == "python":
        return "python"
    if numba_available():
        return "numba"
    if requested == "numba":
        _log_once(
            "numba-forced-missing",
            "%s=numba requested but numba is not importable; "
            "falling back to python kernels",
            KERNELS_ENV,
        )
    return "python"


def set_backend(choice: str) -> str:
    """Force the kernel backend (the ``--kernels`` CLI flag).

    ``auto`` clears any previous override.  The choice is mirrored into
    the :data:`KERNELS_ENV` environment variable so worker processes
    (fork or spawn) resolve the same backend as the parent.

    Returns:
        The backend that will actually serve (``numba`` or ``python``).
    """
    global _forced
    choice = choice.strip().lower()
    if choice not in BACKEND_CHOICES:
        raise ValueError(
            f"kernel backend must be one of {BACKEND_CHOICES}, got {choice!r}"
        )
    if choice == "auto":
        _forced = None
        os.environ.pop(KERNELS_ENV, None)
    else:
        _forced = choice
        os.environ[KERNELS_ENV] = choice
    return active_backend()


@contextmanager
def forced_backend(choice: str):
    """Temporarily force a backend (tests and A/B benchmarks)."""
    global _forced
    previous_forced = _forced
    previous_env = os.environ.get(KERNELS_ENV)
    try:
        set_backend(choice)
        yield active_backend()
    finally:
        _forced = previous_forced
        if previous_env is None:
            os.environ.pop(KERNELS_ENV, None)
        else:
            os.environ[KERNELS_ENV] = previous_env


def warm_kernels() -> dict:
    """Compile (or cache-load) every JIT kernel once; idempotent.

    Safe to call from anywhere — a compile failure demotes the process to
    the python backend (logged once) instead of raising, so this can be a
    process-pool initializer.  Returns :func:`kernel_meta`.
    """
    global _impl, _warm_seconds
    if _warm_seconds is None:
        if active_backend() != "numba":
            _warm_seconds = 0.0
        else:
            impl = _load_impl()
            started = time.perf_counter()
            try:
                impl.warm()
                _warm_seconds = time.perf_counter() - started
            except Exception:
                _impl = False
                _warm_seconds = 0.0
                if "numba-compile-failed" not in _logged:
                    _logged.add("numba-compile-failed")
                    _logger.warning(
                        "numba kernel compilation failed; falling back to "
                        "python kernels",
                        exc_info=True,
                    )
    return kernel_meta()


def jit_ready() -> bool:
    """True when the compiled kernels are warm and safe to call."""
    if active_backend() != "numba":
        return False
    warm_kernels()
    return active_backend() == "numba"


def numba_version() -> Optional[str]:
    """The numba version string, or ``None`` without a working numba."""
    if not numba_available():
        return None
    try:
        return _import_numba().__version__
    except Exception:  # pragma: no cover - version attr always exists
        return None


def kernel_meta() -> dict:
    """Provenance record for BENCH meta: backend, version, compile cost."""
    return {
        "kernel_backend": active_backend(),
        "numba_version": numba_version(),
        "jit_compile_seconds": _warm_seconds if _warm_seconds is not None else 0.0,
    }


def _reset_backend_state() -> None:
    """Forget every cached decision (tests only)."""
    global _forced, _impl, _warm_seconds
    _forced = None
    _impl = None
    _warm_seconds = None
    _logged.clear()
