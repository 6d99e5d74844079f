"""Package-based profiling filters (paper Section 7.3).

Profiling every hot method of a large platform is too expensive; ROLP
lets the user name the packages that manage application *data* (e.g.
``cassandra.db``) and restricts instrumentation to them.  A filter with
no include prefixes accepts everything (minus explicit excludes).

Matching follows Java package semantics: a prefix matches the package
itself and every sub-package (``cassandra.db`` matches
``cassandra.db.compaction`` but not ``cassandra.dbx``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence


def _package_matches(package: str, prefix: str) -> bool:
    if not prefix:
        return True
    return package == prefix or package.startswith(prefix + ".")


class PackageFilter:
    """Include/exclude package filter applied at JIT instrumentation.

    Parameters
    ----------
    include:
        Package prefixes to profile; empty/None = profile everything.
    exclude:
        Package prefixes to never profile (take precedence over
        includes).
    """

    def __init__(
        self,
        include: Optional[Sequence[str]] = None,
        exclude: Optional[Sequence[str]] = None,
    ) -> None:
        self.include: List[str] = sorted(set(include or ()))
        self.exclude: List[str] = sorted(set(exclude or ()))

    @classmethod
    def accept_all(cls) -> "PackageFilter":
        return cls()

    def accepts(self, package: str) -> bool:
        """Whether methods of ``package`` get profiling code installed."""
        for prefix in self.exclude:
            if _package_matches(package, prefix):
                return False
        if not self.include:
            return True
        return any(_package_matches(package, prefix) for prefix in self.include)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "PackageFilter(include=%r, exclude=%r)" % (self.include, self.exclude)
