"""Run reports (versioned JSON) and the PC1/PC2 scatter (standalone SVG).

Both artifacts are byte-deterministic for fixed inputs: the JSON is
``json.dumps``' indent-2 text with sorted keys, written through json's C
encoder, and carries no wall-clock fields, and the SVG formats every
coordinate with fixed precision. Run metadata (seeds, replicate
counts, thresholds, input digests) is embedded so a report is sufficient
to reproduce itself.
"""

from __future__ import annotations

import functools
import itertools
import json
from importlib import resources

import numpy as np

from ._version import __version__
from .cognates import non_xml_concept
from .metrics import MeaningClassMetrics
from .multivariate import ClusterAssignment, PcaResult
from .ranking import SuitabilityRanking, WordlistSelection

REPORT_SCHEMA_VERSION = 1


def escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for XML character data, as ``xml.sax.saxutils.escape``.

    Written out here because importing ``xml.sax.saxutils`` also imports
    ``urllib.request`` and with it ``http.client``, ``ssl`` and ``email``.
    """
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def report_schema() -> dict:
    """The published JSON Schema for report documents (v1)."""
    text = (
        resources.files("lexiphylo").joinpath("schema/report_v1.json").read_text("utf-8")
    )
    return json.loads(text)


def _check_row_sets(
    metrics: list[MeaningClassMetrics],
    pca: PcaResult,
    clusters: ClusterAssignment,
    ranking: SuitabilityRanking,
) -> None:
    metric_concepts = {m.concept for m in metrics}
    pca_concepts = set(pca.row_labels)
    rank_concepts = {row.concept for row in ranking.rows}
    for missing, where in (
        (metric_concepts - pca_concepts, "PCA scores"),
        (pca_concepts - metric_concepts, "metrics"),
        (pca_concepts - rank_concepts, "ranking"),
        (rank_concepts - pca_concepts, "PCA scores"),
    ):
        if missing:
            raise ValueError(f"concept {min(missing)!r} missing from {where}")
    if len(clusters.labels) != len(pca.row_labels):
        raise ValueError("cluster labels do not match the PCA rows")


def to_json(document: dict) -> str:
    """The one JSON format of the report and the stage caches: the text of
    ``json.dumps(document, indent=2, sort_keys=True, default=np.ndarray.tolist)``
    and a newline.

    Sorted keys and a fixed indent make the text byte-deterministic; numpy
    arrays are written as (nested) lists. ``indent`` would put the whole
    document through json's pure-Python encoder, so only the containers that
    hold containers are walked here; each other container, and each run of
    scalars, goes to the stdlib's C encoder, with the item separator of its
    depth, which writes the same text.
    """
    return _to_json(document, 0) + "\n"


_CONTAINERS = (dict, list, tuple, np.ndarray)
_SCALARS = frozenset({str, int, float, bool, type(None)})


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """The C encoder of items at indent level ``depth``, which puts each on a line of its own."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": "),
                            default=np.ndarray.tolist)


def _to_json(value: object, depth: int) -> str:
    """``value``'s indent-2 text, for a value at indent level ``depth``."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    encoder = _encoder(depth + 1)
    is_dict = isinstance(value, dict)
    if not is_dict and not isinstance(value, (list, tuple)):
        return encoder.encode(value)
    if not value:
        return "{}" if is_dict else "[]"
    items = value.values() if is_dict else value
    # Most containers hold only the plain scalar types, which map(type) tells at once.
    if _SCALARS.issuperset(map(type, items)) or not any(isinstance(v, _CONTAINERS) for v in items):
        text = encoder.encode(value)[1:-1]
    else:
        parts = []
        pairs = sorted(value.items()) if is_dict else [(None, v) for v in value]
        for nested, run in itertools.groupby(pairs, lambda pair: isinstance(pair[1], _CONTAINERS)):
            run = list(run)
            if not nested:  # a run of scalars, in one call
                parts.append(encoder.encode(dict(run) if is_dict else [v for _, v in run])[1:-1])
            elif is_dict:  # a key that is no string is written as json writes {key: 0}'s
                parts += (f"{encoder.encode(k) if isinstance(k, str) else encoder.encode({k: 0})[1:-4]}"
                          f": {_to_json(v, depth + 1)}" for k, v in run)
            else:
                parts += (_to_json(v, depth + 1) for _, v in run)
        text = encoder.item_separator.join(parts)
    open_, close = "{}" if is_dict else "[]"
    return f"{open_}\n{'  ' * (depth + 1)}{text}\n{'  ' * depth}{close}"


def emit_report(
    metrics: list[MeaningClassMetrics],
    pca: PcaResult,
    clusters: ClusterAssignment,
    ranking: SuitabilityRanking,
    selection: WordlistSelection,
    metadata: dict,
) -> str:
    """Assemble the single self-describing report document as JSON text.

    ``metadata`` is the caller's run block (seeds, n_reps, thresholds,
    input digests); it is embedded verbatim under ``"run"``. Each concept's
    ``mean_D_status`` is ``"imputed"`` when its record has no mean D (every
    class was skipped) and ``"computed"`` otherwise. Concept blocks, class
    entries, ranking rows, the selection and the cluster assignment are
    their records' fields as stored (``vars``), not deep copies; a concept
    block writes ``mean_d`` as ``mean_D``, and ``class_results`` and
    ``class_skips`` as the ``classes`` and ``skipped_classes`` lists.
    """
    _check_row_sets(metrics, pca, clusters, ranking)

    concept_blocks = []
    for m in sorted(metrics, key=lambda m: m.concept):
        block = vars(m).copy()
        block["mean_D"] = block.pop("mean_d")
        block["mean_D_status"] = "imputed" if m.mean_d is None else "computed"
        block["classes"] = [
            {"cognate_class": cls, **vars(res)}
            for cls, res in sorted(block.pop("class_results").items())
        ]
        block["skipped_classes"] = [
            {"cognate_class": cls, "reason": reason}
            for cls, reason in sorted(block.pop("class_skips").items())
        ]
        concept_blocks.append(block)

    document = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "generator": {"name": "lexiphylo", "version": __version__},
        "run": metadata,
        "concepts": concept_blocks,
        "pca": {
            "variables": pca.variables,
            "eigenvalues": pca.eigenvalues,
            "explained_variance": pca.explained_variance,
            "loadings": pca.loadings,
            "contributions": pca.contributions,
            "scores": [
                {"concept": concept, "values": pca.scores[i]}
                for i, concept in enumerate(pca.row_labels)
            ],
        },
        "clusters": {
            **vars(clusters),
            "labels": [
                {"concept": concept, "cluster": int(clusters.labels[i])}
                for i, concept in enumerate(pca.row_labels)
            ],
        },
        "ranking": [vars(row) for row in ranking.rows],
        "selection": vars(selection),
        "warnings": sorted(
            set(metadata.get("warnings", [])) | set(selection.warnings)
        ),
    }
    return to_json(document)


# -- scatter plot ------------------------------------------------------------

_PALETTE = (
    "#4477aa",
    "#ee6677",
    "#228833",
    "#ccbb44",
    "#66ccee",
    "#aa3377",
    "#bbbbbb",
    "#222255",
    "#225555",
    "#552222",
)

_WIDTH, _HEIGHT = 800, 620
_MARGIN = 70


def _hull(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Convex hull (Andrew's monotone chain), counter-clockwise."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(ordered) -> list[tuple[float, float]]:  # less its last point, the other's first
        chain: list[tuple[float, float]] = []
        for p in ordered:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(reversed(pts))


def _element(tag: str, content: str | None = None, /, **attributes: object) -> str:
    """The SVG element ``tag``: its attributes in the order given, each name's
    ``_`` written as ``-`` and a trailing one dropped (``class_`` is ``class``),
    then ``content``, which is markup, and a closing tag, or ``/>`` without it."""
    head = "".join(
        f' {name.rstrip("_").replace("_", "-")}="{value}"' for name, value in attributes.items()
    )
    return f"<{tag}{head}/>" if content is None else f"<{tag}{head}>{content}</{tag}>"


def emit_scatter(
    pca: PcaResult,
    clusters: ClusterAssignment,
    ranking: SuitabilityRanking,
) -> str:
    """SVG scatter of oriented PC1/PC2 scores.

    Points are labeled by concept and colored by cluster; clusters with at
    least three members get a convex-hull outline; the six variables are
    drawn as loading arrows from the origin; axis captions report explained
    variance. Identical inputs yield identical bytes, and ``_element`` writes
    every element. A concept that XML cannot hold is a ValueError.
    """
    n = len(pca.row_labels)
    if n < 3:
        raise ValueError(f"need >= 3 points for a scatter, got {n}")
    if len(clusters.labels) != n:
        raise ValueError("cluster labels do not match the PCA rows")
    for concept in pca.row_labels:
        if problem := non_xml_concept(concept):
            raise ValueError(problem)

    xs = pca.scores[:, 0].astype(float)
    ys = pca.scores[:, 1].astype(float)
    rank_by_concept = {row.concept: row for row in ranking.rows}

    def padded(lo: float, hi: float) -> tuple[float, float]:
        if hi - lo < 1e-9:
            lo, hi = lo - 1.0, hi + 1.0
        pad = 0.08 * (hi - lo)
        return lo - pad, hi + pad

    # Keep the origin inside the frame: loading arrows start there.
    xmin, xmax = padded(min(xs.min(), 0.0), max(xs.max(), 0.0))
    ymin, ymax = padded(min(ys.min(), 0.0), max(ys.max(), 0.0))
    plot_w = _WIDTH - 2 * _MARGIN
    plot_h = _HEIGHT - 2 * _MARGIN

    def px(x: float) -> float:
        return _MARGIN + (x - xmin) / (xmax - xmin) * plot_w

    def py(y: float) -> float:
        return _HEIGHT - _MARGIN - (y - ymin) / (ymax - ymin) * plot_h

    def fmt(v: float) -> str:
        return f"{v:.2f}"

    parts = [
        _element("rect", x=0, y=0, width=_WIDTH, height=_HEIGHT, fill="white"),
        _element("rect", x=_MARGIN, y=_MARGIN, width=plot_w, height=plot_h, fill="none",
                 stroke="#444444", stroke_width=1),
        # Zero lines.
        _element("line", x1=fmt(px(0.0)), y1=_MARGIN, x2=fmt(px(0.0)), y2=_HEIGHT - _MARGIN,
                 stroke="#bbbbbb", stroke_dasharray="4,4"),
        _element("line", x1=_MARGIN, y1=fmt(py(0.0)), x2=_WIDTH - _MARGIN, y2=fmt(py(0.0)),
                 stroke="#bbbbbb", stroke_dasharray="4,4"),
    ]

    # Cluster hulls first so points draw on top.
    for cluster_id in sorted(set(int(c) for c in clusters.labels)):
        member_idx = [i for i in range(n) if int(clusters.labels[i]) == cluster_id]
        hull = _hull([(float(xs[i]), float(ys[i])) for i in member_idx])
        if len(hull) < 3:
            continue
        color = _PALETTE[cluster_id % len(_PALETTE)]
        path = " ".join(f"{fmt(px(x))},{fmt(py(y))}" for x, y in hull)
        parts.append(_element("polygon", points=path, fill=color, fill_opacity=0.12,
                              stroke=color, stroke_width=1))

    # Loading arrows for the variables.
    arrow_scale = 0.85 * min(
        max(abs(xmin), abs(xmax)), max(abs(ymin), abs(ymax))
    ) / max(np.max(np.abs(pca.loadings[:, :2])), 1e-12)
    for v, name in enumerate(pca.variables):
        lx = float(pca.loadings[v, 0]) * arrow_scale
        ly = float(pca.loadings[v, 1]) * arrow_scale
        x1, y1 = px(0.0), py(0.0)
        x2, y2 = px(lx), py(ly)
        parts.append(_element("line", x1=fmt(x1), y1=fmt(y1), x2=fmt(x2), y2=fmt(y2),
                              stroke="#884400", stroke_width=1.5, class_="loading-arrow"))
        # Arrowhead: two short strokes back from the tip.
        dx, dy = x2 - x1, y2 - y1
        norm = max((dx * dx + dy * dy) ** 0.5, 1e-9)
        ux, uy = dx / norm, dy / norm
        for rot in (0.35, -0.35):
            cos_r, sin_r = np.cos(np.pi - rot), np.sin(np.pi - rot)
            hx = ux * cos_r - uy * sin_r
            hy = ux * sin_r + uy * cos_r
            parts.append(_element("line", x1=fmt(x2), y1=fmt(y2), x2=fmt(x2 + 8 * hx),
                                  y2=fmt(y2 + 8 * hy), stroke="#884400", stroke_width=1.5))
        parts.append(_element("text", escape(name), x=fmt(x2 + (4 if lx >= 0 else -4)),
                              y=fmt(y2 - 4), font_size=11, fill="#884400",
                              text_anchor="start" if lx >= 0 else "end"))

    # Points with concept labels.
    for i, concept in enumerate(pca.row_labels):
        color = _PALETTE[int(clusters.labels[i]) % len(_PALETTE)]
        cx, cy = px(float(xs[i])), py(float(ys[i]))
        row = rank_by_concept.get(concept)
        title = (
            f"{concept}: rank {row.rank}, {row.quadrant}" if row is not None else concept
        )
        parts.append(_element("circle", _element("title", escape(title)), cx=fmt(cx),
                              cy=fmt(cy), r=3.5, fill=color, class_="concept-point"))
        parts.append(_element("text", escape(concept), x=fmt(cx + 5), y=fmt(cy - 5),
                              font_size=10, fill="#222222"))

    pc1_pct = float(pca.explained_variance[0]) * 100.0
    pc2_pct = float(pca.explained_variance[1]) * 100.0
    parts.append(_element("text", f"PC1 ({pc1_pct:.1f}% explained)", x=f"{_WIDTH / 2:.1f}",
                          y=_HEIGHT - 20, font_size=14, text_anchor="middle"))
    parts.append(_element("text", f"PC2 ({pc2_pct:.1f}% explained)", x=22,
                          y=f"{_HEIGHT / 2:.1f}", font_size=14, text_anchor="middle",
                          transform=f"rotate(-90 22 {_HEIGHT / 2:.1f})"))
    return _element("svg", "\n".join(["", *parts, ""]), xmlns="http://www.w3.org/2000/svg",
                    width=_WIDTH, height=_HEIGHT, viewBox=f"0 0 {_WIDTH} {_HEIGHT}") + "\n"
