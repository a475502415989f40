"""Find, clear and count the package's ``functools`` caches from outside it.

A cold pass must start with every cache empty.  The caches are found by
introspection (module-level functions and class attributes that carry
``cache_info``/``cache_clear``) and the result is cross-checked against the
cache decorators written in the source, so a cache that introspection cannot
see makes the benchmark refuse to run instead of warming a "cold" pass.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

_DECORATOR = re.compile(
    r"^[ \t]*@(?:functools\.)?(?:lru_cache|cache)\b[^\n]*\n"
    r"(?:[ \t]*@[^\n]*\n)*"
    r"[ \t]*(?:async[ \t]+)?def[ \t]+(\w+)",
    re.MULTILINE,
)


def submodules(package) -> list:
    """The package and every module below it, imported."""
    mods = [package]
    for info in pkgutil.walk_packages(package.__path__, package.__name__ + "."):
        mods.append(importlib.import_module(info.name))
    return mods


def _short(module_name: str, package_name: str) -> str:
    return module_name[len(package_name) + 1:] if module_name != package_name else module_name


def _is_cache(obj) -> bool:
    return callable(getattr(obj, "cache_info", None)) and callable(
        getattr(obj, "cache_clear", None)
    )


def discover(package) -> dict:
    """``{"module.function": cached_callable}`` for every cache defined in the package."""
    found = {}
    for mod in submodules(package):
        short = _short(mod.__name__, package.__name__)
        for attr, obj in vars(mod).items():
            if _is_cache(obj) and getattr(obj, "__module__", None) == mod.__name__:
                found[f"{short}.{obj.__wrapped__.__name__}"] = obj
            elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    target = getattr(cobj, "__func__", cobj)
                    if _is_cache(target):
                        found[f"{short}.{target.__wrapped__.__name__}"] = target
    return found


def declared(package) -> set:
    """``module.function`` names of every cache decorator in the package source."""
    names = set()
    for mod in submodules(package):
        path = getattr(mod, "__file__", None)
        if not path or not path.endswith(".py"):
            continue
        short = _short(mod.__name__, package.__name__)
        text = Path(path).read_text(encoding="utf-8")
        names.update(f"{short}.{name}" for name in _DECORATOR.findall(text))
    return names


def reset(caches: dict) -> None:
    for func in caches.values():
        func.cache_clear()


def totals(caches: dict) -> dict:
    """Hits, misses and entries summed over every cache."""
    infos = [func.cache_info() for func in caches.values()]
    return {
        "hits": sum(i.hits for i in infos),
        "misses": sum(i.misses for i in infos),
        "entries": sum(i.currsize for i in infos),
    }


def self_test(package, caches: dict) -> list[str]:
    """Problems with cache discovery or reset; empty when both are sound."""
    problems = []
    source = declared(package)
    if set(caches) != source:
        problems.append(
            "discovered caches differ from the source decorators: "
            f"missing {sorted(source - set(caches))}, extra {sorted(set(caches) - source)}"
        )
    reset(caches)
    for name, func in caches.items():
        info = func.cache_info()
        if info.currsize or info.hits or info.misses:
            problems.append(f"{name} is not empty after reset: {info}")
    return problems
