"""Dataset persistence: JSONL observations, reloadable across runs.

A measurement campaign's raw output — (domain, certificate list)
observations — serialises to JSON Lines, one observation per line, so
corpora can be archived, diffed, shipped to colleagues, and re-analysed
without regenerating the ecosystem.  Round-trips preserve certificate
fingerprints bit for bit.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.errors import EncodingError
from repro.x509 import Certificate
from repro.x509.encoding import certificate_from_dict, certificate_to_dict

#: Format marker written into every line, for forward compatibility.
FORMAT_VERSION = 1

Observation = tuple[str, list[Certificate]]


def observation_to_json(domain: str, chain: list[Certificate]) -> str:
    """One observation as a compact JSON line (no trailing newline)."""
    return json.dumps(
        {
            "v": FORMAT_VERSION,
            "domain": domain,
            "chain": [certificate_to_dict(cert) for cert in chain],
        },
        separators=(",", ":"),
    )


def observation_from_json(line: str) -> Observation:
    """Inverse of :func:`observation_to_json`."""
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EncodingError(f"malformed observation line: {exc}") from exc
    if payload.get("v") != FORMAT_VERSION:
        raise EncodingError(
            f"unsupported observation format version {payload.get('v')!r}"
        )
    try:
        domain = payload["domain"]
        chain = [certificate_from_dict(obj) for obj in payload["chain"]]
    except KeyError as exc:
        raise EncodingError(f"observation missing field {exc}") from exc
    return domain, chain


def write_observations(handle, observations: list[Observation]) -> int:
    """Append observations to an open text file as JSONL lines;
    returns the line count.  Successive calls concatenate, so a corpus
    written batch by batch equals one written whole."""
    for domain, chain in observations:
        handle.write(observation_to_json(domain, chain))
        handle.write("\n")
    return len(observations)


def save_observations(path: str | Path,
                      observations: list[Observation]) -> int:
    """Write observations to ``path`` as JSONL; returns the line count."""
    with Path(path).open("w", encoding="utf-8") as handle:
        return write_observations(handle, observations)


def load_observations(path: str | Path) -> list[Observation]:
    """Read a JSONL observation file written by :func:`save_observations`.

    Blank lines and ``#`` comment lines are tolerated (hand-edited
    corpora); anything else malformed raises :class:`EncodingError`
    with the offending line number.
    """
    path = Path(path)
    observations: list[Observation] = []
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                observations.append(observation_from_json(line))
            except EncodingError as exc:
                raise EncodingError(f"{path}:{number}: {exc}") from exc
    return observations
