"""The shared unknown-keyword error path.

Python callers and config files report a misspelt keyword the same way:
every unknown name at once, in sorted order, optionally followed by the
accepted spellings.  The config-file loader
(:mod:`repro.runtime.models`) routes its unknown-key diagnostics
through :func:`reject_unknown_kwargs`.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["reject_unknown_kwargs"]


def reject_unknown_kwargs(
    owner: str, kwargs: dict[str, Any], known: Sequence[str] = ()
) -> None:
    """Raise the usual TypeError naming every leftover keyword.

    Every leftover name is reported, in sorted order — a call with three
    typos gets all three back at once instead of one arbitrary pick per
    retry.  ``known`` optionally names the accepted spellings in the
    message; the config-file loader routes its unknown-key diagnostics
    through here so CLI and Python callers read the same error shape.
    """
    if not kwargs:
        return
    names = ", ".join(repr(name) for name in sorted(kwargs))
    if len(kwargs) > 1:
        message = f"{owner}() got unexpected keyword arguments {names}"
    else:
        message = f"{owner}() got an unexpected keyword argument {names}"
    if known:
        message += f" (known: {', '.join(sorted(known))})"
    raise TypeError(message)
