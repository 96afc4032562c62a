"""The schedule families, one module each: churn, gray and Byzantine.

:mod:`repro.sim` is the paper's Section 2 model.  Everything a schedule
family adds beyond it lives in that family's module: its schedule
injector with its grammar and random draw, its oracle monitor, its part
of the run, bundle and sweep paths, and its CLI flags.  The shared code
names no family: it loops over :data:`repro.analysis.families.FAMILIES`
and imports a module only when a run, a bundle or the CLI uses its
family.  A module declares

* ``CODECS`` — each owned ``run_protocol`` keyword's bundle
  ``(decode, encode)``;
* ``parse(spec, root)`` and ``draw(topology, rate, rng, horizon, root,
  **shape)`` — the schedule of a spec string and of a random spec;
* ``FLAGS`` (:class:`FaultFlag` rows), ``VERDICTS`` (``(column,
  verdict)``), ``CHAOS_COLUMNS`` (``(column, read)``) and
  ``cli_config(args, spec)`` — its CLI flags and the ``run_protocol``
  keywords they give;

and, where it needs them, hooks called for a run whose switch (its first
keyword) is set (:func:`repro.analysis.families.hooks`): ``share(cfg)``,
``oracles(cfg, inputs, caaf=, mode=)``, ``plan(topology, inputs,
schedule, cfg, mode=, **common)`` for a family that restarts the
protocol in epochs, ``attach(cfg, injectors)`` and ``columns(cfg)`` for
one on the plain path, and ``sweep_columns(records)``.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional, Tuple

#: What a knob needs to have any effect: ``(test(args), rejection text)``,
#: with ``args`` the parsed ``argparse.Namespace``.
Need = Tuple[Callable[[Any], bool], str]


class FaultFlag(NamedTuple):
    """One fault-model flag: ``add_argument(flag, **kwargs)``.

    The flag is on when its value is neither the default nor empty (or
    when ``on(args)``, if given).  An on flag switches on ``family``, its
    :data:`repro.analysis.families.EXCLUSIONS` name, shown in messages as
    ``label``; it is rejected with ``error: <label> <why>`` for the first
    of its ``needs`` whose test fails, since it would silently do nothing.
    ``kwargs=None`` marks a flag each verb adds itself.
    """

    flag: str
    kwargs: Optional[dict]
    family: Optional[str] = None
    needs: Tuple[Need, ...] = ()
    label: Optional[str] = None
    on: Optional[Callable[[Any], bool]] = None

    def is_on(self, args) -> bool:
        if self.on is not None:
            return self.on(args)
        default = (self.kwargs or {}).get("default")
        value = getattr(args, self.flag[2:].replace("-", "_"), default)
        return value not in (default, "")


def without(flag: str, does: str) -> Need:
    """The need of a knob that only shapes ``--<flag>``."""
    return (
        lambda a: bool(getattr(a, flag)),
        f"{does}; it does nothing without --{flag}",
    )
